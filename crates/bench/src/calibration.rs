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
//! buffers of the run being profiled.
//!
//! `ahw_bench --calibrate` prints the roof as a JSON row
//! (`"name":"calibration/roofline"`). `scripts/ab.sh` runs it after every
//! kernel run, so each side of an A/B session carries its roof as host
//! evidence, and a session recorded in `BENCH_kernels.json` versions the
//! machine roof alongside the kernel timings. [`parse_latest_calibration`]
//! reads it back for reports that run no calibration of their own.
//!
//! Environment overrides `AHW_ROOF_GFLOPS` / `AHW_ROOF_GBPS` short-circuit
//! the measurement entirely ([`roofline_from_env`]) — useful on shared
//! hosts where a fresh measurement would be noisy.

use ahw_telemetry::{json, MetricsSnapshot, Roofline};
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

    /// The JSON row `ahw_bench --calibrate` prints. It has no `median_ns`,
    /// so the speed judge reads it as host evidence, not as a timing.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"calibration/roofline\",\"threads\":{},\"peak_gflops\":{:.3},\"stream_gbps\":{:.3}}}",
            self.threads, self.peak_gflops, self.stream_gbps
        )
    }
}

/// Measures the machine roof at the current `AHW_THREADS` setting.
/// Telemetry recording is suspended for the duration so the calibration
/// work never shows up in the profiled run's counters or spans.
pub fn calibrate() -> Calibration {
    let was_enabled = ahw_telemetry::enabled();
    ahw_telemetry::set_enabled(false);
    let cal = Calibration {
        peak_gflops: measure_fma_gflops(),
        stream_gbps: measure_stream_gbps(),
        threads: pool::num_threads(),
    };
    ahw_telemetry::set_enabled(was_enabled);
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
/// `BENCH_kernels.json` history that was measured at `threads` threads
/// with FMA chains and has a usable roof (positive and finite), if any —
/// the roof for reports when the environment sets none.
/// Rows inside a recorded A/B session line's `output` count; rows with a
/// `gemm_dim` field timed the GEMM the report scores and are skipped.
pub fn parse_latest_calibration(history: &str, threads: usize) -> Option<Calibration> {
    history.lines().rev().find_map(|line| {
        let line = json::parse(line).ok()?;
        let session_output = line.get("output").and_then(json::Value::as_array);
        let rows = session_output.unwrap_or(std::slice::from_ref(&line));
        rows.iter().rev().find_map(|row| {
            if row.get("name")?.as_str()? != "calibration/roofline" || row.get("gemm_dim").is_some()
            {
                return None;
            }
            let roof = |field: &str| usable_roof(row.get(field)?.as_f64()?);
            let cal = Calibration {
                peak_gflops: roof("peak_gflops")?,
                stream_gbps: roof("stream_gbps")?,
                threads: usize::try_from(row.get("threads")?.as_u64()?).ok()?,
            };
            (cal.threads == threads).then_some(cal)
        })
    })
}

/// Resolution order for the roof a report should use: the environment
/// override, then the newest FMA-chain `calibration/roofline` row in
/// `bench_history` (when provided) measured at `threads`, the pool width of
/// the run being reported. `None` makes the report say the roof is not
/// calibrated.
pub fn resolve_roofline(bench_history: Option<&str>, threads: usize) -> Option<Roofline> {
    roofline_from_env()
        .or_else(|| Some(parse_latest_calibration(bench_history?, threads)?.roofline()))
}

/// The pool width a recorded run's snapshot shows: the threads that ran
/// pool chunks (one `tensor.pool.worker<tid>.busy_ns` counter each), or 1
/// when none did, since the run's kernels then ran on one thread.
pub fn snapshot_threads(snap: &MetricsSnapshot) -> usize {
    ahw_telemetry::profile::utilization(&[], snap).map_or(1, |u| u.workers.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the telemetry enable flag or the pool
    /// thread override.
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A `calibration/roofline` row at `threads` threads; `extra` fields go
    /// before the roof.
    fn row(threads: usize, extra: &str, peak: &str, stream: &str) -> String {
        format!("{{\"name\":\"calibration/roofline\",\"threads\":{threads},{extra}\"peak_gflops\":{peak},\"stream_gbps\":{stream}}}")
    }

    #[test]
    fn calibration_json_round_trips_and_reads_as_host_evidence() {
        let cal = Calibration {
            peak_gflops: 12.345,
            stream_gbps: 6.789,
            threads: 4,
        };
        let line = cal.to_json();
        assert!(line.contains("\"name\":\"calibration/roofline\""));
        assert!(!line.contains("median_ns"));
        let parsed = parse_latest_calibration(&line, 4).expect("parse back");
        assert!((parsed.peak_gflops - 12.345).abs() < 1e-9);
        assert!((parsed.stream_gbps - 6.789).abs() < 1e-9);
        assert_eq!(parsed.threads, 4);
        let session = format!("{{\"rev\":\"r\",\"side\":\"base\",\"pair\":1,\"output\":[{line}]}}");
        let runs = crate::compare::parse_session(&session).expect("a session line");
        assert!(runs[0].metrics.is_empty(), "a roof is not a timing");
        assert_eq!(runs[0].evidence[0], ("peak_gflops".to_string(), 12.345));
        let recorded = parse_latest_calibration(&session, 4).expect("a recorded session's roof");
        assert_eq!(recorded, parsed);
    }

    #[test]
    fn history_roof_is_the_newest_fma_row_at_the_asked_thread_count() {
        let session = format!(
            "{{\"rev\":\"r\",\"side\":\"work\",\"pair\":1,\"output\":[{},{}]}}",
            row(3, "", "5.0", "1.0"),
            row(3, "", "6.0", "1.0")
        );
        let history = [
            row(2, "", "1.0", "1.0"),
            r#"{"rev":"x","threads":2,"name":"matmul/256","median_ns":1,"min_ns":1,"max_ns":1}"#
                .to_string(),
            row(1, "", "3.5", "2.25"),
            row(2, "", "2.0", "1.0"),
            row(2, "\"gemm_dim\":256,", "85.6", "27.9"),
            session,
        ]
        .join("\n");
        let two = parse_latest_calibration(&history, 2).expect("an FMA row at 2 threads");
        assert_eq!(
            (two.threads, two.peak_gflops),
            (2, 2.0),
            "the newest FMA row wins; GEMM-timed rows are skipped"
        );
        let one = parse_latest_calibration(&history, 1).expect("the row at 1 thread");
        assert_eq!((one.threads, one.peak_gflops), (1, 3.5));
        let three = parse_latest_calibration(&history, 3).expect("the session's row");
        assert_eq!(
            three.peak_gflops, 6.0,
            "the last row of a session line wins"
        );
        assert!(
            parse_latest_calibration(&history, 4).is_none(),
            "no row at 4 threads"
        );
        assert!(parse_latest_calibration("no calibration here", 2).is_none());
    }

    #[test]
    fn snapshot_threads_counts_the_pool_workers_that_ran() {
        let mut snap = MetricsSnapshot::default();
        assert_eq!(snapshot_threads(&snap), 1, "no pool job ran");
        for (name, ns) in [
            ("tensor.pool.worker0.busy_ns", 80),
            ("tensor.pool.worker3.busy_ns", 40),
            ("tensor.pool.busy_ns", 120),
        ] {
            snap.counters.insert(name.to_string(), ns);
        }
        assert_eq!(snapshot_threads(&snap), 2);
    }

    #[test]
    fn history_rows_with_an_unusable_roof_are_skipped() {
        let good = row(1, "", "9.0", "4.0");
        for bad in [
            row(1, "", "-1", "4.0"),
            row(1, "", "9.0", "0.000"),
            row(1, "", "1e999", "4.0"),
        ] {
            assert!(parse_latest_calibration(&bad, 1).is_none(), "{bad}");
            let cal = parse_latest_calibration(&format!("{good}\n{bad}\n"), 1).expect("older row");
            assert_eq!((cal.peak_gflops, cal.threads), (9.0, 1), "{bad}");
        }
        if roofline_from_env().is_none() {
            let bad = row(3, "", "-1", "4.0");
            assert_eq!(
                resolve_roofline(Some(&bad), 3),
                None,
                "negative roof resolved"
            );
        }
    }

    #[test]
    fn measured_calibration_is_positive_and_restores_telemetry() {
        let _g = lock();
        pool::set_thread_override(Some(2));
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
    }

    #[test]
    fn without_an_env_roof_the_history_row_at_the_run_width_resolves() {
        if roofline_from_env().is_some() {
            return;
        }
        let history = &row(3, "", "9.0", "4.0");
        let from_history = resolve_roofline(Some(history), 3).expect("history roof");
        assert_eq!(from_history.peak_gflops, 9.0);
        assert_eq!(
            resolve_roofline(Some(history), 2),
            None,
            "the row is at 3 threads"
        );
        assert_eq!(resolve_roofline(None, 3), None, "no history, no roof");
    }
}
