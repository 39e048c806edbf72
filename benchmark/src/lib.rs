//! # ahw-benchmark
//!
//! End-to-end benchmark of the workspace. One process runs one workload:
//! it builds its inputs from the seed, sets up several times, repeats whole
//! passes of the workload's public calls for a fixed time, checks every
//! result against the first pass (and against a golden digest where one is
//! recorded), and reports metrics by name and unit. A traced run also
//! runs one pass with telemetry on and reports per-layer metrics.
//!
//! See `README.md` for the workloads, the metrics and how to read them.

mod golden;
pub mod host;
pub mod layers;
pub mod measure;
pub mod workloads;

use ahw_nn::NnError;
use ahw_telemetry as telemetry;
use measure::{median, timed_section, Section};
use std::time::Instant;
use workloads::{images_trained, setup, Prepared, Seed, Size, Workload};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, `^[A-Za-z0-9_.-]+$`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Minimum length of the untraced timed section, seconds.
    pub seconds: f64,
    /// Whether to add a traced pass and report per-layer metrics.
    pub trace: bool,
    /// How much work a setup and a pass do.
    pub size: Size,
    /// Pool worker threads.
    pub threads: usize,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// No call failed, no check failed, and every digest matched.
    pub correct: bool,
    /// Timed calls made.
    pub attempted: u64,
    /// Failed calls and checks (a pass with a wrong digest fails whole).
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Run facts and host evidence, printed beside the metrics.
    pub context: Vec<(&'static str, String)>,
    /// What went wrong, for stderr.
    pub errors: Vec<String>,
}

/// Setups per untraced run: at least this many, and more while they total
/// under [`SETUP_FLOOR_S`], so that a fast setup is still timed steadily.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_FLOOR_S: f64 = 1.0;

/// Sets up repeatedly; returns each setup's seconds and the last result
/// (or the first error).
fn repeated_setup(cfg: &Config, seed: Seed, min: usize) -> (Vec<f64>, Result<Prepared, NnError>) {
    let mut times = Vec::new();
    loop {
        // the previous inputs are dropped by now, so each setup starts equal
        ahw_attacks::clear_plan_pool();
        let start = Instant::now();
        let result = setup(cfg.workload, &cfg.size, seed);
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= min && times.iter().sum::<f64>() >= SETUP_FLOOR_S;
        if result.is_err() || enough || times.len() >= MAX_SETUPS {
            return (times, result);
        }
    }
}

/// Runs the benchmark described by `cfg`.
pub fn run(cfg: &Config) -> Report {
    ahw_tensor::pool::set_thread_override(Some(cfg.threads));
    telemetry::set_enabled(false);
    telemetry::reset();
    let seed = Seed(cfg.seed);

    // a traced run sets up once, with telemetry on, for the setup layers
    telemetry::set_enabled(cfg.trace);
    let (setup_times, prepared) = repeated_setup(cfg, seed, if cfg.trace { 1 } else { MIN_SETUPS });
    telemetry::set_enabled(false);
    let setup_snap = telemetry::snapshot();
    telemetry::reset();
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => {
            return Report {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                context: Vec::new(),
                errors: vec![format!("setup failed: {e}")],
            }
        }
    };

    let before = host::CpuSample::now();
    let untraced = timed_section(
        cfg.workload,
        &prepared,
        &cfg.size,
        seed,
        cfg.seconds,
        1,
        usize::MAX,
    );
    let cpu = before.until(&host::CpuSample::now(), cfg.threads);
    let peak_rss = host::peak_rss_mib().unwrap_or(0.0);
    let run_s = median(&untraced.pass_s);

    let traced = cfg.trace.then(|| {
        telemetry::set_enabled(true);
        let traced = timed_section(cfg.workload, &prepared, &cfg.size, seed, 0.0, 1, 1);
        telemetry::set_enabled(false);
        let snap = telemetry::snapshot();
        telemetry::reset();
        (traced, snap)
    });
    drop(prepared);

    // the roof runs after VmHWM is read, so its arrays are not counted
    let fma = host::fma_gflops(cfg.threads);
    let stream = host::stream_gbps(cfg.threads);
    let host_metrics = [
        Metric::new("host.cpu_util", cpu.util, "ratio"),
        Metric::new("host.sys_frac", cpu.sys_frac, "ratio"),
        Metric::new("host.steal_frac", cpu.steal_frac, "ratio"),
        Metric::new("host.fma_gflops", fma, "GFLOP/s"),
        Metric::new("host.stream_gbps", stream, "GB/s"),
    ];

    let digest = untraced.digest;
    let golden = golden_status(cfg, digest);
    let mut report = judge(
        std::iter::once(&untraced).chain(traced.as_ref().map(|(t, _)| t)),
        golden == "mismatch",
    );
    report.context = vec![
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("threads", cfg.threads.to_string()),
        ("git_rev", host::git_rev()),
        ("isa", host::isa()),
        ("setups", setup_times.len().to_string()),
        ("passes", untraced.pass_s.len().to_string()),
        ("ops", untraced.op_ms.len().to_string()),
        ("section_s", format!("{:.3}", untraced.wall.as_secs_f64())),
        ("digest", format!("{digest:016x}")),
        ("golden", golden.to_string()),
        ("stream_array_bytes", host::STREAM_ARRAY_BYTES.to_string()),
    ];
    report.context.extend(
        host_metrics
            .iter()
            .map(|m| (m.name, format!("{:.4}", m.value))),
    );
    report.metrics = match traced {
        Some((traced, run_snap)) => {
            let inputs = layers::LayerInputs {
                threads: cfg.threads,
                images_trained: images_trained(cfg.workload, &cfg.size) as f64,
                mapped_cells: traced.mapped_cells as f64,
                traced_wall_s: traced.wall.as_secs_f64(),
                traced_run_s: median(&traced.pass_s),
                untraced_run_s: run_s,
                fma_gflops: fma,
            };
            let mut metrics = layers::layer_metrics(&setup_snap, &run_snap, &inputs);
            metrics.extend(host_metrics);
            metrics
        }
        None => vec![
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new("run_s", run_s, "s"),
            Metric::new("op_ms_p50", median(&untraced.op_ms), "ms"),
            Metric::new("peak_rss_mb", peak_rss, "MiB"),
        ],
    };
    report
}

/// Whether the first pass matched a recorded golden digest.
fn golden_status(cfg: &Config, digest: u64) -> &'static str {
    if cfg.size != Size::standard() {
        return "not recorded for this size";
    }
    match golden::golden(cfg.workload.name(), cfg.seed, &host::isa()) {
        None => "not recorded",
        Some(g) if g == digest => "match",
        Some(_) => "mismatch",
    }
}

/// Totals the sections' calls and failures. Every section must reproduce
/// the first one's digest (telemetry only observes); a golden mismatch
/// fails every call.
fn judge<'a>(sections: impl Iterator<Item = &'a Section>, golden_mismatch: bool) -> Report {
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    let mut first = None;
    for s in sections {
        attempted += s.attempted;
        failed += s.failed;
        errors.extend(s.errors.iter().cloned());
        let digest = *first.get_or_insert(s.digest);
        if s.digest != digest {
            failed += s.attempted - s.failed.min(s.attempted);
            errors.push(format!(
                "traced digest {:016x} != untraced {digest:016x}",
                s.digest
            ));
        }
    }
    if golden_mismatch {
        failed = attempted;
        errors.push("first-pass digest does not match the golden".into());
    }
    Report {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: Vec::new(),
        context: Vec::new(),
        errors,
    }
}
