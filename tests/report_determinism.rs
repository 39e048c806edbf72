//! The run report (`ahw_report` / the `TelemetryFlush` drop-time write) is
//! deterministic where it claims to be: for a fixed seed, the invariant
//! subset of the report — workload-counter lines for `sram.` /
//! `tensor.ops.` counters that are not time-valued — is byte-identical
//! across `AHW_THREADS` ∈ {1, 2, 4, 7}, and the span tree satisfies its
//! structural invariants (self time ≥ 0, children's inclusive time never
//! exceeds the parent's) at every thread count. A trace file re-renders
//! the report the run wrote at exit, byte for byte.
//!
//! Wall-clock columns, pool-worker counters (`tensor.pool.*`), and
//! per-shard span counts are thread-count-*dependent* by design and are
//! excluded from the byte comparison.
//!
//! Lives in its own integration-test binary because it flips process-global
//! state (the telemetry enable flag, metric values, and the pool thread
//! override); the local lock serializes the tests inside this process.

use adversarial_hw::prelude::*;
use ahw_attacks::Attack;
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_sram::{HybridMemoryConfig, HybridWordConfig};
use ahw_telemetry::{Roofline, SpanNode};
use ahw_tensor::{pool, rng, Tensor};
use std::sync::{Barrier, Mutex};

const SEED: u64 = 0x5E90;

/// Serializes tests that pin process-global telemetry / thread state.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn model(seed: u64) -> Sequential {
    let mut r = rng::seeded(seed);
    let mut m = Sequential::new();
    m.push(ahw_nn::layers::Conv2d::new(1, 4, 3, 1, 1, &mut r).unwrap());
    m.push(ahw_nn::layers::ReLU::new());
    m.push(ahw_nn::layers::Flatten::new());
    m.push(ahw_nn::layers::Linear::new(4 * 8 * 8, 3, &mut r).unwrap());
    m
}

fn noisy_images(seed: u64) -> Tensor {
    let clean = rng::uniform(&[24, 1, 8, 8], 0.0, 1.0, &mut rng::seeded(seed));
    let cfg = HybridMemoryConfig::new(HybridWordConfig::new(4, 4).unwrap(), 0.60).unwrap();
    let injector = BitErrorInjector::new(cfg, &BitErrorModel::srinivasan22nm(), seed ^ 0x52A);
    injector.corrupt(&clean)
}

/// A miniature train + attack pipeline exercising every instrumented layer
/// (tensor kernels, pool, SRAM injector, attacks).
fn pipeline(threads: usize) {
    pool::set_thread_override(Some(threads));
    let mut m = model(SEED);
    let images = noisy_images(SEED);
    let labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 1,
        lr: 0.05,
        batch_size: 8,
        ..TrainConfig::default()
    });
    trainer
        .fit(&mut m, &images, &labels, &mut rng::seeded(SEED ^ 0xF16))
        .unwrap();
    let _ = ahw_attacks::sweep_epsilons(
        &m,
        &m,
        &images,
        &labels,
        Attack::pgd(0.08),
        &[0.04, 0.08],
        6,
    )
    .unwrap();
    pool::set_thread_override(None);
}

/// Renders the full run report for one pipeline run at `threads` workers
/// followed by `then`, returning the Markdown and the drained spans.
fn report_at(threads: usize, then: impl FnOnce()) -> (String, Vec<ahw_telemetry::SpanEvent>) {
    ahw_telemetry::set_enabled(true);
    ahw_telemetry::reset();
    pipeline(threads);
    then();
    let spans = ahw_telemetry::peek_spans();
    let snap = ahw_telemetry::snapshot();
    let roof = Roofline {
        peak_gflops: 10.0,
        stream_gbps: 5.0,
    };
    let md = ahw_telemetry::render_report_md(&spans, &snap, Some(&roof));
    let _ = ahw_telemetry::drain_spans();
    ahw_telemetry::set_enabled(false);
    (md, spans)
}

/// The thread-count-invariant subset of the report: workload-counter table
/// lines for `sram.` / `tensor.ops.` counters that are not time-valued
/// (`_ns`). Pool-worker counters and every timing column are excluded —
/// they measure the schedule, not the workload.
fn invariant_subset(md: &str) -> Vec<String> {
    let counters = md
        .split("## Workload counters")
        .nth(1)
        .expect("report has a counters section")
        .split("\n## ")
        .next()
        .unwrap();
    counters
        .lines()
        .filter(|l| l.starts_with("| `sram.") || l.starts_with("| `tensor.ops."))
        .filter(|l| !l.contains("_ns`"))
        .map(String::from)
        .collect()
}

/// Walks the span tree asserting the structural invariants the report's
/// self-time column depends on.
fn assert_tree_invariants(name: &str, node: &SpanNode) {
    assert!(
        node.children_incl_ns() <= node.incl_ns,
        "children of {name:?} sum to {} ns, exceeding the parent's {} ns",
        node.children_incl_ns(),
        node.incl_ns
    );
    // `self_ns` is saturating; the real invariant is the inequality above,
    // which makes the subtraction exact.
    assert_eq!(node.self_ns(), node.incl_ns - node.children_incl_ns());
    for (child_name, child) in &node.children {
        assert_tree_invariants(child_name, child);
    }
}

/// The acceptance criterion: the invariant subset of the report is
/// byte-identical across `AHW_THREADS` ∈ {1, 2, 4, 7}, every report has
/// all four sections, and the span tree is structurally sound at every
/// thread count.
#[test]
fn report_invariant_subset_is_byte_identical_across_thread_counts() {
    let _g = lock();
    let mut reference: Option<Vec<String>> = None;
    for &threads in &[1usize, 2, 4, 7] {
        let (md, spans) = report_at(threads, || {});
        for section in [
            "# ahw run report",
            "## Span tree",
            "## Workload counters",
            "## Worker utilization",
            "## Roofline",
        ] {
            assert!(md.contains(section), "missing {section:?} at {threads} thr");
        }
        let subset = invariant_subset(&md);
        assert!(
            subset
                .iter()
                .any(|l| l.starts_with("| `tensor.ops.gemm_flops`")),
            "no GEMM flops counter in the invariant subset at {threads} threads"
        );
        assert!(
            subset.iter().any(|l| l.starts_with("| `sram.")),
            "no SRAM counter in the invariant subset at {threads} threads"
        );
        match &reference {
            None => reference = Some(subset),
            Some(expected) => assert_eq!(
                expected, &subset,
                "invariant report subset differs at {threads} threads"
            ),
        }
        let tree = ahw_telemetry::span_tree(&spans);
        assert!(
            !tree.root.children.is_empty(),
            "span tree is empty at {threads} threads"
        );
        for (name, node) in &tree.root.children {
            assert_tree_invariants(name, node);
        }
    }
}

/// The roofline section scores the GEMM kernel against the provided roof
/// at every thread count, and the utilization section reports every
/// worker whenever the pool ran more than one.
#[test]
fn report_sections_reflect_the_schedule() {
    let _g = lock();
    let (md, _) = report_at(2, || {
        // Force the schedule the test checks: the two chunks of this job
        // wait for each other, so the caller can run only one of them and
        // the pool worker must run the other, however fast the pipeline's
        // own jobs were.
        let meet = Barrier::new(2);
        pool::set_thread_override(Some(2));
        pool::parallel_for_ranges(2, 1, |chunks| {
            for _ in chunks {
                meet.wait();
            }
        });
        pool::set_thread_override(None);
    });
    assert!(
        md.contains("| gemm |"),
        "roofline table must score the GEMM kernel"
    );
    assert!(
        md.contains("roof: 10.00 GFLOP/s peak compute · 5.00 GB/s stream"),
        "roofline header must echo the provided roof"
    );
    let utilization = md
        .split("## Worker utilization")
        .nth(1)
        .unwrap()
        .split("\n## ")
        .next()
        .unwrap();
    assert!(
        utilization.contains("| worker0 |") && utilization.contains("| worker1 |"),
        "both workers must appear in the utilization table:\n{utilization}"
    );
    assert!(
        utilization.contains("timeline (pool participation"),
        "utilization must include the participation timeline"
    );
}

/// `ahw_report --trace` re-renders the report the run wrote at exit, byte
/// for byte, when both score against the same roof. The p95 column and,
/// when the span buffer overflowed, the dropped-span warning come from the
/// trace's `"metrics"` section, so a capped run is one of the cases.
#[test]
fn trace_file_re_renders_the_exit_report_byte_for_byte() {
    let _g = lock();
    let roof = Roofline {
        peak_gflops: 10.0,
        stream_gbps: 5.0,
    };
    for cap in [None, Some(64)] {
        ahw_telemetry::set_enabled(true);
        ahw_telemetry::reset();
        ahw_telemetry::set_span_cap(cap);
        pipeline(2);
        // what the exit guard renders, then the file `finish` writes
        let spans = ahw_telemetry::peek_spans();
        let exit_md =
            ahw_telemetry::render_report_md(&spans, &ahw_telemetry::snapshot(), Some(&roof));
        let spans = ahw_telemetry::drain_spans();
        let trace = ahw_telemetry::trace_json(&spans, &ahw_telemetry::snapshot());
        ahw_telemetry::set_span_cap(None);
        ahw_telemetry::set_enabled(false);
        let path = std::env::temp_dir().join(format!(
            "ahw_report_trace_{}_{}.json",
            std::process::id(),
            cap.unwrap_or(0)
        ));
        std::fs::write(&path, &trace).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let (spans, snap) = ahw_bench::report::parse_trace(&text).expect("a whole trace");
        let md = ahw_telemetry::render_report_md(&spans, &snap, Some(&roof));
        assert_eq!(
            md, exit_md,
            "re-rendered report differs at span cap {cap:?}"
        );
        assert_eq!(
            md.contains("span(s) dropped"),
            cap.is_some(),
            "dropped-span warning at span cap {cap:?}"
        );
    }
}
