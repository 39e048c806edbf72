//! One-shot machine-roof calibration for the roofline report: measures
//! peak compute (GFLOP/s) and peak streaming bandwidth (GB/s) at the
//! configured thread count.
//!
//! The compute roof comes from register-resident FMA chains, not from a
//! kernel the report scores: timing the GEMM itself would put GEMM at
//! about 100% of roof by construction, and the roof would move whenever
//! the GEMM code does.
//!
//! The measurement deliberately runs with telemetry recording **suspended**
//! — calibration work must not pollute the FLOP/byte counters or the span
//! buffers of the run being profiled — and registers the measured roof via
//! [`ahw_telemetry::set_roofline`] so the `/report` endpoint and the
//! end-of-run report can score kernels immediately.
//!
//! `scripts/bench.sh` records the roof as a JSON line in
//! `BENCH_kernels.json` (`"name":"calibration/roofline"`), versioning the
//! machine roof alongside the kernel timings; the bench-history parser
//! skips the row (it has no `median_ns`), and [`parse_latest_calibration`]
//! reads it back for offline report generation.
//!
//! Environment overrides `AHW_ROOF_GFLOPS` / `AHW_ROOF_GBPS` short-circuit
//! the measurement entirely ([`roofline_from_env`]) — useful on shared
//! hosts where a fresh measurement would be noisy.

use ahw_telemetry::{json, Roofline};
use ahw_tensor::pool;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Independent FMA chains per thread: enough to cover FMA latency times
/// issue width whether the compiler picks 256- or 512-bit vectors.
const FMA_LANES: usize = 128;

/// How long each timed compute-roof repetition runs its FMA chains: long
/// enough to reach steady clocks, short enough that a debug build stays
/// fast.
const FMA_WINDOW: Duration = Duration::from_millis(50);

/// Elements in the stream-roof buffers (f32): 4 MiB per buffer, far beyond
/// L2 on any relevant host, so the measurement sees memory, not cache.
pub const STREAM_ELEMS: usize = 1 << 20;

/// Timed repetitions per roof; the best repetition is the roof (transient
/// interference only ever slows a run down).
const REPS: usize = 3;

/// One measured (or overridden) machine roof.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Best measured compute throughput (FMA chains), GFLOP/s.
    pub peak_gflops: f64,
    /// Best measured streaming bandwidth, GB/s.
    pub stream_gbps: f64,
    /// Worker count the measurement ran at.
    pub threads: usize,
}

impl Calibration {
    pub fn roofline(&self) -> Roofline {
        Roofline {
            peak_gflops: self.peak_gflops,
            stream_gbps: self.stream_gbps,
        }
    }

    /// The JSON history line `scripts/bench.sh` appends to
    /// `BENCH_kernels.json`. Deliberately has no `median_ns` field so the
    /// bench-regression parser skips it.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"calibration/roofline\",\"threads\":{},\"peak_gflops\":{:.3},\"stream_gbps\":{:.3}}}",
            self.threads, self.peak_gflops, self.stream_gbps
        )
    }
}

/// Measures the machine roof at the current `AHW_THREADS` setting and
/// registers it via [`ahw_telemetry::set_roofline`]. Telemetry recording
/// is suspended for the duration so the calibration work never shows up in
/// the profiled run's counters or spans.
pub fn calibrate() -> Calibration {
    let was_enabled = ahw_telemetry::enabled();
    ahw_telemetry::set_enabled(false);
    let cal = Calibration {
        peak_gflops: measure_fma_gflops(),
        stream_gbps: measure_stream_gbps(),
        threads: pool::num_threads(),
    };
    ahw_telemetry::set_enabled(was_enabled);
    ahw_telemetry::set_roofline(Some(cal.roofline()));
    cal
}

/// Runs [`FMA_LANES`] independent multiply-add chains until [`FMA_WINDOW`]
/// after `start`, and returns how many steps each chain took.
fn fma_chains(start: Instant) -> u64 {
    const CLOCK_EVERY: u64 = 16 * 1024;
    let (m, c) = (black_box(0.999_9f32), black_box(1e-4f32));
    let mut acc = [0.0f32; FMA_LANES];
    let mut steps = 0;
    while start.elapsed() < FMA_WINDOW {
        for _ in 0..CLOCK_EVERY {
            for a in &mut acc {
                *a = a.mul_add(m, c);
            }
        }
        steps += CLOCK_EVERY;
    }
    black_box(acc);
    steps
}

/// Compute roof: GFLOP/s of register-resident FMA chains on
/// `pool::num_threads()` threads at once, best of [`REPS`].
fn measure_fma_gflops() -> f64 {
    let threads = pool::num_threads();
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let start = Instant::now();
        let steps: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| fma_chains(start)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("calibration FMA worker"))
                .sum()
        });
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            best = best.max(2.0 * FMA_LANES as f64 * steps as f64 / secs / 1e9);
        }
    }
    best
}

fn measure_stream_gbps() -> f64 {
    let src: Vec<f32> = (0..STREAM_ELEMS).map(|i| (i % 17) as f32).collect();
    let mut dst = vec![0.0f32; STREAM_ELEMS];
    // Read + write per element.
    let bytes = (2 * STREAM_ELEMS * std::mem::size_of::<f32>()) as f64;
    let mut best = 0.0f64;
    for rep in 0..=REPS {
        let t = Instant::now();
        let scale = 1.0 + rep as f32 * 1e-6;
        pool::par_row_chunks_mut(&mut dst, 4096, 1, |first, rows| {
            let base = first * 4096;
            for (j, v) in rows.iter_mut().enumerate() {
                *v = src[base + j] * scale;
            }
        });
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&dst);
        // rep 0 is the warm-up (page faults on `dst`).
        if rep > 0 && secs > 0.0 {
            best = best.max(bytes / secs / 1e9);
        }
    }
    best
}

/// A roof figure is usable only when positive and finite.
fn usable_roof(v: f64) -> Option<f64> {
    (v.is_finite() && v > 0.0).then_some(v)
}

/// The roof from `AHW_ROOF_GFLOPS` / `AHW_ROOF_GBPS`, when both are set to
/// positive finite numbers.
pub fn roofline_from_env() -> Option<Roofline> {
    let get = |key: &str| usable_roof(std::env::var(key).ok()?.parse().ok()?);
    Some(Roofline {
        peak_gflops: get("AHW_ROOF_GFLOPS")?,
        stream_gbps: get("AHW_ROOF_GBPS")?,
    })
}

/// The newest well-formed `calibration/roofline` row in a
/// `BENCH_kernels.json` history whose roof is usable (positive and finite),
/// if any — the offline fallback roof for `ahw_report` when no live
/// calibration ran in this process.
pub fn parse_latest_calibration(history: &str) -> Option<Calibration> {
    history.lines().rev().find_map(|line| {
        let row = json::parse(line).ok()?;
        if row.get("name")?.as_str()? != "calibration/roofline" {
            return None;
        }
        let roof = |field: &str| usable_roof(row.get(field)?.as_f64()?);
        Some(Calibration {
            peak_gflops: roof("peak_gflops")?,
            stream_gbps: roof("stream_gbps")?,
            threads: usize::try_from(row.get("threads")?.as_u64()?).ok()?,
        })
    })
}

/// Resolution order for the roof a report should use: an explicitly
/// registered roof (a live calibration in this process), then the
/// environment override, then the newest `calibration/roofline` row in
/// `bench_history` (when provided).
pub fn resolve_roofline(bench_history: Option<&str>) -> Option<Roofline> {
    ahw_telemetry::roofline()
        .or_else(roofline_from_env)
        .or_else(|| Some(parse_latest_calibration(bench_history?)?.roofline()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global roofline slot, the
    /// telemetry enable flag, or the pool thread override.
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn calibration_json_round_trips_and_is_skipped_by_the_bench_parser() {
        let cal = Calibration {
            peak_gflops: 12.345,
            stream_gbps: 6.789,
            threads: 4,
        };
        let line = cal.to_json();
        assert!(line.contains("\"name\":\"calibration/roofline\""));
        assert!(!line.contains("median_ns"));
        let parsed = parse_latest_calibration(&line).expect("parse back");
        assert!((parsed.peak_gflops - 12.345).abs() < 1e-9);
        assert!((parsed.stream_gbps - 6.789).abs() < 1e-9);
        assert_eq!(parsed.threads, 4);
        assert!(
            crate::compare::parse_rows(&line).is_empty(),
            "the regression watchdog must skip calibration rows"
        );
    }

    #[test]
    fn latest_calibration_row_wins() {
        let history = concat!(
            "{\"name\":\"calibration/roofline\",\"threads\":1,\"gemm_dim\":256,\"peak_gflops\":1.0,\"stream_gbps\":1.0}\n",
            "{\"rev\":\"x\",\"threads\":1,\"name\":\"matmul/256\",\"median_ns\":1,\"min_ns\":1,\"max_ns\":1}\n",
            "{\"name\":\"calibration/roofline\",\"threads\":2,\"gemm_dim\":256,\"peak_gflops\":3.5,\"stream_gbps\":2.25}\n",
        );
        let cal = parse_latest_calibration(history).expect("newest row");
        assert_eq!(cal.threads, 2);
        assert!((cal.peak_gflops - 3.5).abs() < 1e-12);
        assert!(parse_latest_calibration("no calibration here").is_none());
    }

    #[test]
    fn history_rows_with_an_unusable_roof_are_skipped() {
        let good = "{\"name\":\"calibration/roofline\",\"threads\":1,\"gemm_dim\":256,\"peak_gflops\":9.0,\"stream_gbps\":4.0}";
        for bad in [
            "{\"name\":\"calibration/roofline\",\"threads\":2,\"gemm_dim\":256,\"peak_gflops\":-1,\"stream_gbps\":4.0}",
            "{\"name\":\"calibration/roofline\",\"threads\":2,\"gemm_dim\":256,\"peak_gflops\":9.0,\"stream_gbps\":0.000}",
            "{\"name\":\"calibration/roofline\",\"threads\":2,\"gemm_dim\":256,\"peak_gflops\":1e999,\"stream_gbps\":4.0}",
        ] {
            assert!(parse_latest_calibration(bad).is_none(), "{bad}");
            let cal = parse_latest_calibration(&format!("{good}\n{bad}\n")).expect("older row");
            assert_eq!((cal.peak_gflops, cal.threads), (9.0, 1), "{bad}");
        }
        let _g = lock();
        ahw_telemetry::set_roofline(None);
        if roofline_from_env().is_none() {
            let bad = "{\"name\":\"calibration/roofline\",\"threads\":1,\"gemm_dim\":256,\"peak_gflops\":-1,\"stream_gbps\":4.0}";
            assert_eq!(resolve_roofline(Some(bad)), None, "negative roof resolved");
        }
    }

    #[test]
    fn measured_calibration_is_positive_and_registers_the_roof() {
        let _g = lock();
        pool::set_thread_override(Some(2));
        ahw_telemetry::set_roofline(None);
        let was_enabled = ahw_telemetry::enabled();
        let cal = calibrate();
        pool::set_thread_override(None);
        assert!(cal.peak_gflops > 0.0, "compute roof must be positive");
        assert!(cal.stream_gbps > 0.0, "stream roof must be positive");
        assert_eq!(cal.threads, 2);
        assert_eq!(
            ahw_telemetry::enabled(),
            was_enabled,
            "calibration must restore the telemetry enable flag"
        );
        let roof = ahw_telemetry::roofline().expect("roof registered");
        assert_eq!(roof.peak_gflops, cal.peak_gflops);
        ahw_telemetry::set_roofline(None);
    }

    #[test]
    fn resolution_order_prefers_registered_then_history() {
        let _g = lock();
        ahw_telemetry::set_roofline(None);
        let history =
            "{\"name\":\"calibration/roofline\",\"threads\":1,\"gemm_dim\":256,\"peak_gflops\":9.0,\"stream_gbps\":4.0}";
        let from_history = resolve_roofline(Some(history)).expect("history roof");
        assert_eq!(from_history.peak_gflops, 9.0);
        ahw_telemetry::set_roofline(Some(Roofline {
            peak_gflops: 2.0,
            stream_gbps: 1.0,
        }));
        let registered = resolve_roofline(Some(history)).expect("registered roof");
        assert_eq!(registered.peak_gflops, 2.0, "registered roof wins");
        ahw_telemetry::set_roofline(None);
    }
}
