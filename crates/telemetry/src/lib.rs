//! # ahw-telemetry
//!
//! std-only observability for the `adversarial-hw` workspace: hierarchical
//! wall-clock **spans**, a global registry of atomic **metrics** (counters,
//! gauges, fixed-bucket histograms), and **exporters** — a human-readable
//! summary table on stderr, a machine-readable JSON snapshot, and a
//! chrome://tracing / Perfetto-compatible trace-event file — plus
//! [`json`], the one JSON reader/writer that re-reads those exports.
//!
//! ## Guarantees
//!
//! * **Zero overhead when disabled.** Every instrumentation site is gated on
//!   [`enabled`], a single relaxed atomic load. No allocation, no clock
//!   read, no lock is taken on the disabled path.
//! * **A pure observer.** Telemetry only *reads* the computation: it never
//!   draws randomness, never touches tensor data, and never feeds a value
//!   back into the pipeline, so enabling it cannot change numerical results
//!   at any thread count (locked in by `tests/telemetry_determinism.rs` at
//!   the workspace root).
//! * **Deterministic flush.** Spans buffer per thread with no cross-thread
//!   contention on the hot path; [`drain_spans`] merges the buffers into a
//!   fixed order (start time, then duration descending, then thread id,
//!   then name), and metric snapshots iterate a sorted map — two runs that
//!   did the same work produce snapshots with identical keys and counter
//!   values.
//!
//! ## Enabling
//!
//! Telemetry turns on when either environment variable is set at first use:
//!
//! * `AHW_TRACE=<path>` — buffer spans and write a trace-event JSON file to
//!   `<path>` at [`finish`] (open it in <https://ui.perfetto.dev> or
//!   chrome://tracing);
//! * `AHW_METRICS=1` — record metrics and print the summary table to stderr
//!   at [`finish`] (any non-empty value other than `0` counts);
//! * `AHW_METRICS_ADDR=<host:port>` — additionally serve the live
//!   endpoints (`/metrics`, `/snapshot.json`, `/trace.json`, `/healthz`)
//!   from a background thread once the process calls
//!   [`serve::start_from_env`] (the experiment binaries and the bench
//!   harness do this at startup).
//!
//! Tests and long-lived processes can override the environment with
//! [`set_enabled`] and read back state with [`snapshot`] / [`drain_spans`].
//!
//! ## Naming convention
//!
//! Metric and span names are `crate.component.metric`, e.g.
//! `tensor.pool.busy_ns`, `sram.injector.bit_flips`, `nn.train.loss`.
//! Counter names carry their unit as a suffix where it is not a plain
//! count (`_ns`, `_bytes`, `_flops`).
//!
//! ## Example
//!
//! ```
//! use ahw_telemetry as telemetry;
//!
//! static STEPS: telemetry::LazyCounter = telemetry::LazyCounter::new("demo.steps");
//!
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::span("demo.work");
//!     STEPS.add(3);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counters["demo.steps"], 3);
//! assert_eq!(telemetry::drain_spans().len(), 1);
//! telemetry::set_enabled(false);
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod serve;
pub mod span;

pub use export::{
    finish, is_prometheus_name, prometheus_name, prometheus_text, render_summary, snapshot_json,
    trace_json,
};
pub use metrics::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, LazyCounter,
    LazyGauge, LazyHistogram, MetricsSnapshot,
};
pub use profile::{
    render_report_html, render_report_md, roofline, set_roofline, span_tree, Roofline, SpanNode,
    SpanTree,
};
pub use progress::Progress;
pub use serve::MetricsServer;
pub use span::{
    drain_spans, dropped_spans, peek_spans, set_span_cap, span, span_labeled, thread_id, SpanEvent,
    SpanGuard,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Tri-state so the first [`enabled`] call can lazily consult the
/// environment exactly once without a lock on later calls.
const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether telemetry is recording. This is the whole disabled-path cost of
/// every instrumentation site: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// First-call resolution of the `AHW_TRACE` / `AHW_METRICS` /
/// `AHW_METRICS_ADDR` environment. Racing initializers read the same
/// environment, so any winner is correct.
#[cold]
fn init_from_env() -> bool {
    let on = env_trace_path().is_some() || env_metrics_on() || env_metrics_addr().is_some();
    let state = if on { STATE_ON } else { STATE_OFF };
    let _ = STATE.compare_exchange(STATE_UNINIT, state, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Forces telemetry on or off process-wide, overriding the environment.
/// Tests use this to record without touching env vars; it can be flipped
/// repeatedly (already-buffered spans and metric values are kept).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// The `AHW_TRACE` destination, if one is configured.
pub fn env_trace_path() -> Option<String> {
    std::env::var("AHW_TRACE").ok().filter(|p| !p.is_empty())
}

/// Whether `AHW_METRICS` asks for the stderr summary (non-empty, not `0`).
pub fn env_metrics_on() -> bool {
    std::env::var("AHW_METRICS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The `AHW_METRICS_ADDR` bind address for the live metrics server
/// ([`serve::start_from_env`]), if one is configured. Setting it also
/// enables telemetry recording at first use — a live endpoint with nothing
/// to report would be useless.
pub fn env_metrics_addr() -> Option<String> {
    std::env::var("AHW_METRICS_ADDR")
        .ok()
        .filter(|a| !a.is_empty())
}

/// Clears every metric value (counters/histograms to zero, gauges to 0.0)
/// and discards all buffered spans, keeping registrations intact so cached
/// [`LazyCounter`]-style handles stay valid. Benchmarks and determinism
/// tests call this between runs to compare fresh snapshots.
pub fn reset() {
    metrics::reset_values();
    span::reset_dropped();
    let _ = span::drain_spans();
}

/// Nanoseconds since the process-wide telemetry epoch (the first call).
/// Monotonic (`Instant`-based), shared by every span so trace events from
/// different threads land on one timeline.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes unit tests that flip the process-global enabled state or
    /// inspect global buffers.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_overrides_and_toggles() {
        let _g = test_lock::hold();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = test_lock::hold();
        set_enabled(false);
        reset();
        static C: LazyCounter = LazyCounter::new("test.lib.disabled_counter");
        C.add(5);
        {
            let _s = span("test.lib.disabled_span");
        }
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.lib.disabled_counter"), None);
        assert!(drain_spans().is_empty());
        set_enabled(false);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
