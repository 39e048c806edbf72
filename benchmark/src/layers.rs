//! Per-layer metrics of a traced run, one group per crate.
//!
//! Times come from the `{span}.dur_ns` histogram sums (the benchmark's own
//! `bench.*` spans around public calls, and the spans the crates already
//! emit); counts come from the crates' counters and gauges. Nothing is read
//! from the span buffer, which drops events past its cap.

use crate::Metric;
use ahw_telemetry::MetricsSnapshot;

/// Seconds summed over every closed `span` (all threads).
fn span_s(snap: &MetricsSnapshot, span: &str) -> f64 {
    snap.histograms
        .get(&format!("{span}.dur_ns"))
        .map_or(0.0, |h| h.sum as f64 / 1e9)
}

fn count(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn per_s(work: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// Inputs to the per-layer metrics besides the telemetry snapshots.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs {
    /// Pool worker threads.
    pub threads: usize,
    /// Training images processed by the traced setup.
    pub images_trained: f64,
    /// Weight cells mapped by the traced pass.
    pub mapped_cells: f64,
    /// Wall time of the traced pass, seconds.
    pub traced_wall_s: f64,
    /// Busy time of the traced pass, seconds.
    pub traced_run_s: f64,
    /// Median busy time of an untraced pass, seconds.
    pub untraced_run_s: f64,
    /// Compute roof over all threads, GFLOP/s.
    pub fma_gflops: f64,
}

/// The per-layer metrics: `setup` is the snapshot of the traced setup,
/// `run` that of the traced pass.
pub fn layer_metrics(
    setup: &MetricsSnapshot,
    run: &MetricsSnapshot,
    x: &LayerInputs,
) -> Vec<Metric> {
    let train_s = span_s(setup, "bench.nn.fit");
    let gemm_s = ["matmul", "matmul_transa", "matmul_transb"]
        .iter()
        .map(|op| span_s(run, &format!("tensor.ops.{op}")))
        .sum::<f64>();
    let kernels_s = gemm_s + span_s(run, "tensor.ops.im2col") + span_s(run, "tensor.ops.col2im");
    let corrupt_s = span_s(run, "sram.injector.corrupt");
    let gemm_flops = count(run, "tensor.ops.gemm_flops");
    let gemm_gflops = per_s(gemm_flops, gemm_s) / 1e9;
    let per_thread_roof = x.fma_gflops / x.threads.max(1) as f64;
    let worker_busy: Vec<f64> = run
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("tensor.pool.worker") && name.ends_with(".busy_ns"))
        .map(|(_, &ns)| ns as f64)
        .filter(|&ns| ns > 0.0)
        .collect();
    let imbalance = match worker_busy.len() {
        0 => 0.0,
        n => {
            let mean = worker_busy.iter().sum::<f64>() / n as f64;
            worker_busy.iter().copied().fold(0.0, f64::max) / mean
        }
    };
    let map_s = span_s(run, "bench.core.crossbar_variant");
    let words = count(run, "sram.injector.words_stored");
    let m = Metric::new;
    vec![
        m(
            "datasets.generate_s",
            span_s(setup, "bench.datasets.generate"),
            "s",
        ),
        m("nn.train_s", train_s, "s"),
        m(
            "nn.train_images_per_s",
            per_s(x.images_trained, train_s),
            "1/s",
        ),
        m(
            "nn.shard_self_s",
            (span_s(run, "attacks.evaluate.shard") - kernels_s - corrupt_s).max(0.0),
            "s",
        ),
        m("nn.plan.compiled", count(run, "nn.plan.compiled"), "count"),
        m(
            "nn.plan.cache_hits",
            count(run, "nn.plan.cache_hits"),
            "count",
        ),
        m("tensor.gemm_s", gemm_s, "s"),
        m("tensor.gemm_flops", gemm_flops, "flop"),
        m("tensor.gemm_gflops", gemm_gflops, "GFLOP/s"),
        m(
            "tensor.gemm_pct_roof",
            if per_thread_roof > 0.0 {
                100.0 * gemm_gflops / per_thread_roof
            } else {
                0.0
            },
            "%",
        ),
        m("tensor.im2col_s", span_s(run, "tensor.ops.im2col"), "s"),
        m("tensor.col2im_s", span_s(run, "tensor.ops.col2im"), "s"),
        m(
            "tensor.pool.busy_frac",
            per_s(
                count(run, "tensor.pool.busy_ns") / 1e9,
                x.threads as f64 * x.traced_wall_s,
            ),
            "ratio",
        ),
        m("tensor.pool.imbalance", imbalance, "ratio"),
        m(
            "tensor.workspace.allocated",
            count(run, "tensor.workspace.allocated"),
            "count",
        ),
        m(
            "tensor.workspace.bytes_resident",
            run.gauges
                .get("tensor.workspace.bytes_resident")
                .copied()
                .unwrap_or(0.0),
            "bytes",
        ),
        m("sram.corrupt_s", corrupt_s, "s"),
        m("sram.words_stored", words, "count"),
        m(
            "sram.bit_flips",
            count(run, "sram.injector.bit_flips"),
            "count",
        ),
        m(
            "sram.mwords_per_s",
            per_s(words, corrupt_s) / 1e6,
            "Mword/s",
        ),
        m("crossbar.map_s", map_s, "s"),
        m(
            "crossbar.tile_program_s",
            span_s(run, "crossbar.tile.program"),
            "s",
        ),
        m(
            "crossbar.solver.solves",
            count(run, "crossbar.solver.solves"),
            "count",
        ),
        m(
            "crossbar.mcells_per_s",
            per_s(x.mapped_cells, map_s) / 1e6,
            "Mcell/s",
        ),
        m(
            "attacks.evaluate_s",
            span_s(run, "bench.attacks.evaluate_mode"),
            "s",
        ),
        m(
            "attacks.gradient_queries",
            count(run, "attacks.methods.gradient_queries"),
            "count",
        ),
        m(
            "attacks.examples",
            count(run, "attacks.evaluate.examples"),
            "count",
        ),
        m(
            "core.search_s",
            span_s(run, "bench.core.select_noise_sites"),
            "s",
        ),
        m("core.search.sweep_s", span_s(run, "core.search.sweep"), "s"),
        m(
            "core.search.combine_s",
            span_s(run, "core.search.combine"),
            "s",
        ),
        m(
            "core.search.candidates_done",
            count(run, "core.search.candidates_done"),
            "count",
        ),
        m(
            "core.apply_noise_plan_s",
            span_s(run, "bench.core.apply_noise_plan"),
            "s",
        ),
        m("bench.traced_run_s", x.traced_run_s, "s"),
        m(
            "telemetry.overhead_frac",
            if x.untraced_run_s > 0.0 {
                x.traced_run_s / x.untraced_run_s - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "telemetry.spans.dropped",
            count(run, "telemetry.spans.dropped"),
            "count",
        ),
    ]
}
