//! A std-only benchmark harness (the workspace's replacement for Criterion).
//!
//! Bench targets are plain `fn main()` binaries with `harness = false`; each
//! registers closures on a [`Harness`] and gets, per benchmark:
//!
//! 1. a timed warm-up that also calibrates how many iterations fit in one
//!    sample, so microsecond kernels are batched while second-long
//!    experiments run once per sample;
//! 2. a fixed number of samples, each reporting mean time per iteration;
//! 3. one JSON line on stdout — `{"name": ..., "median_ns": ...}` — so runs
//!    can be diffed or collected by scripts without a parser dependency.
//!
//! Environment knobs:
//!
//! * `AHW_BENCH_SAMPLES`   — samples per benchmark (default 10).
//! * `AHW_BENCH_WARMUP_MS` — warm-up/calibration window (default 300).
//!
//! Command-line operands act as substring filters on benchmark names;
//! anything starting with `-` (such as the `--bench` flag Cargo passes to
//! `harness = false` targets) is ignored.

use std::time::{Duration, Instant};

/// Re-export so bench binaries keep the `black_box` idiom without a
/// Criterion import.
pub use std::hint::black_box;

/// Runs registered benchmarks and prints one JSON line per result.
#[derive(Debug)]
pub struct Harness {
    filters: Vec<String>,
    samples: usize,
    warmup: Duration,
    ran: usize,
    skipped: usize,
    /// Live metrics server, when `AHW_METRICS_ADDR` is set — held so a
    /// long bench run can be scraped while it is in flight.
    _server: Option<ahw_telemetry::MetricsServer>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            filters: Vec::new(),
            samples: 10,
            warmup: Duration::from_millis(300),
            ran: 0,
            skipped: 0,
            _server: None,
        }
    }
}

/// One benchmark's timing summary (durations in nanoseconds per iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Benchmark name as registered.
    pub name: String,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample (from warm-up calibration).
    pub iters: u64,
    /// Median of the per-sample mean iteration times.
    pub median_ns: u128,
    /// 75th percentile of the per-sample mean iteration times
    /// (nearest-rank).
    pub p75_ns: u128,
    /// 95th percentile of the per-sample mean iteration times
    /// (nearest-rank; with few samples this approaches the max).
    pub p95_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
}

impl Summary {
    /// The JSON line printed for this result.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"samples\":{},\"iters\":{},\"median_ns\":{},\"p75_ns\":{},\"p95_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
            ahw_telemetry::json::quote(&self.name),
            self.samples,
            self.iters,
            self.median_ns,
            self.p75_ns,
            self.p95_ns,
            self.min_ns,
            self.max_ns
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted sample list: the value at
/// 1-based rank `ceil(q * len)`.
fn percentile(sorted: &[u128], q: f64) -> u128 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Harness {
    /// A harness configured from the process arguments (name filters) and
    /// the `AHW_BENCH_*` environment knobs.
    pub fn from_env() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        let mut h = Harness {
            filters,
            _server: ahw_telemetry::serve::start_from_env(),
            ..Harness::default()
        };
        if let Some(s) = env_u64("AHW_BENCH_SAMPLES") {
            h.samples = (s as usize).max(1);
        }
        if let Some(ms) = env_u64("AHW_BENCH_WARMUP_MS") {
            h.warmup = Duration::from_millis(ms);
        }
        h
    }

    /// A harness with explicit name filters (tests).
    pub fn with_filters(filters: Vec<String>) -> Self {
        Harness {
            filters,
            ..Harness::default()
        }
    }

    /// Overrides the per-benchmark sample count.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Overrides the warm-up window.
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Whether `name` passes the command-line filters.
    pub fn matches(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    /// Times `work` (unless filtered out), prints the JSON line, and
    /// returns the summary.
    pub fn bench(&mut self, name: &str, mut work: impl FnMut()) -> Option<Summary> {
        if !self.matches(name) {
            self.skipped += 1;
            return None;
        }
        // Warm-up doubles as calibration: count how many iterations fit in
        // the window to choose a batch size that keeps clock overhead small.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            work();
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos() / u128::from(warm_iters.max(1));
        // Target ~1/10 of the warm-up window per sample, at least one
        // iteration, capped so a pathologically fast closure stays bounded.
        let target_ns = (self.warmup.as_nanos() / 10).max(1);
        let iters = target_ns
            .checked_div(per_iter)
            .map_or(1_000_000, |n| n.clamp(1, 1_000_000)) as u64;

        let mut sample_ns: Vec<u128> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                work();
            }
            sample_ns.push(t.elapsed().as_nanos() / u128::from(iters));
        }
        sample_ns.sort_unstable();
        let summary = Summary {
            name: name.to_string(),
            samples: self.samples,
            iters,
            median_ns: sample_ns[sample_ns.len() / 2],
            p75_ns: percentile(&sample_ns, 0.75),
            p95_ns: percentile(&sample_ns, 0.95),
            min_ns: sample_ns[0],
            max_ns: *sample_ns.last().unwrap(),
        };
        println!("{}", summary.to_json());
        self.ran += 1;
        Some(summary)
    }

    /// Prints a run footer to stderr: how many benchmarks ran vs. were
    /// filtered out. Call once at the end of `main`.
    ///
    /// When telemetry is enabled (`AHW_TRACE`/`AHW_METRICS`) this also emits
    /// the metrics snapshot as one more stdout JSON line —
    /// `{"name":"telemetry/metrics","snapshot":{...}}` — so `scripts/bench.sh`
    /// collects it alongside the timings, and flushes the telemetry
    /// exporters (trace file / stderr summary).
    pub fn finish(&self) {
        eprintln!(
            "benchmarks: {} run, {} filtered out",
            self.ran, self.skipped
        );
        if ahw_telemetry::enabled() {
            println!(
                "{{\"name\":\"telemetry/metrics\",\"snapshot\":{}}}",
                ahw_telemetry::snapshot_json()
            );
        }
        ahw_telemetry::finish();
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benches_run_and_summarize() {
        let mut h = Harness::with_filters(Vec::new())
            .samples(4)
            .warmup(Duration::from_millis(5));
        let s = h
            .bench("spin", || {
                black_box((0..100).sum::<u64>());
            })
            .unwrap();
        assert_eq!(s.samples, 4);
        assert!(s.iters >= 1);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert!(s.median_ns <= s.p75_ns && s.p75_ns <= s.p95_ns && s.p95_ns <= s.max_ns);
        let json = s.to_json();
        assert!(json.contains("\"name\":\"spin\""));
        assert!(json.contains("\"p75_ns\":") && json.contains("\"p95_ns\":"));
    }

    #[test]
    fn nearest_rank_percentiles_are_pinned() {
        let sorted = [10u128, 20, 30, 40, 50];
        assert_eq!(percentile(&sorted, 0.50), 30); // rank ceil(2.5)=3
        assert_eq!(percentile(&sorted, 0.75), 40); // rank ceil(3.75)=4
        assert_eq!(percentile(&sorted, 0.95), 50); // rank ceil(4.75)=5
        assert_eq!(percentile(&[7u128], 0.95), 7);
    }

    #[test]
    fn filters_select_by_substring() {
        let mut h = Harness::with_filters(vec!["mat".into()])
            .samples(1)
            .warmup(Duration::from_millis(1));
        assert!(h.bench("matmul_32", || {}).is_some());
        assert!(h.bench("conv_forward", || {}).is_none());
        assert!(h.matches("matmul_32"));
        assert!(!h.matches("conv_forward"));
    }

    #[test]
    fn heavy_workloads_run_once_per_sample() {
        let mut h = Harness::with_filters(Vec::new())
            .samples(2)
            .warmup(Duration::from_millis(2));
        let s = h
            .bench("slow", || std::thread::sleep(Duration::from_millis(3)))
            .unwrap();
        assert_eq!(s.iters, 1);
    }
}
