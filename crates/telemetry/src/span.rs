//! Hierarchical wall-clock spans with RAII guards and per-thread buffers.
//!
//! A span is opened with [`span`] (or [`span_labeled`]) and closed when the
//! returned [`SpanGuard`] drops; the finished [`SpanEvent`] is pushed onto
//! the *calling thread's* buffer, so concurrent spans never contend on a
//! shared lock. [`drain_spans`] collects every thread's buffer and merges
//! them into one deterministic order.
//!
//! Nesting is tracked with a per-thread depth counter: a span opened while
//! another is active records `depth + 1`, which the summary table uses for
//! indentation and trace viewers reconstruct from the timestamps.
//!
//! Every closed span additionally feeds its duration into the registry
//! histogram `{name}.dur_ns` (power-of-four buckets), so the stderr summary
//! and the run report can give p50/p95/p99 per span name from the metrics
//! snapshot alone, exact even when the span buffer hit its cap. The
//! histogram handle is cached per thread; the steady-state close cost is
//! one hash lookup plus three relaxed `fetch_add`s.

use crate::metrics::{histogram, Histogram, LazyCounter};
use crate::now_ns;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default cap on the total number of buffered spans across all threads
/// (~1M events, on the order of 100 MB). Long traced sweeps hit the cap
/// instead of growing memory without bound; see [`set_span_cap`].
pub const DEFAULT_SPAN_CAP: usize = 1 << 20;

/// Resolved span cap; 0 means "not yet resolved from the environment".
static SPAN_CAP: AtomicUsize = AtomicUsize::new(0);

/// Total spans currently buffered across every thread (drained spans are
/// subtracted). Compared against the cap on every span close; the race
/// between concurrent closers can overshoot the cap by at most one span
/// per thread, which is fine for a memory guard.
static BUFFERED: AtomicUsize = AtomicUsize::new(0);

/// Spans discarded at the cap since the last [`reset_dropped`]. Kept in a
/// plain atomic (authoritative, readable without touching the registry)
/// and mirrored into the `telemetry.spans.dropped` counter so exporters
/// and the run report can warn about partial traces.
static DROPPED: AtomicU64 = AtomicU64::new(0);

static DROPPED_COUNTER: LazyCounter = LazyCounter::new("telemetry.spans.dropped");

fn span_cap() -> usize {
    match SPAN_CAP.load(Ordering::Relaxed) {
        0 => resolve_span_cap(),
        cap => cap,
    }
}

#[cold]
fn resolve_span_cap() -> usize {
    let cap = std::env::var("AHW_SPAN_CAP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_SPAN_CAP);
    let _ = SPAN_CAP.compare_exchange(0, cap, Ordering::Relaxed, Ordering::Relaxed);
    SPAN_CAP.load(Ordering::Relaxed)
}

/// Overrides the span-buffer cap process-wide (`Some(n)` caps at `n ≥ 1`
/// spans; `None` re-resolves `AHW_SPAN_CAP` / the default on next use).
/// Tests use this to exercise the drop path without buffering a million
/// events.
pub fn set_span_cap(cap: Option<usize>) {
    SPAN_CAP.store(cap.map_or(0, |c| c.max(1)), Ordering::Relaxed);
}

/// Spans discarded at the [`set_span_cap`] limit since the last
/// [`crate::reset`]. Non-zero means every span-derived view (trace file,
/// span tree, utilization timeline) is partial.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Zeroes the dropped-span count (the registry mirror is zeroed by the
/// caller via `metrics::reset_values`).
pub(crate) fn reset_dropped() {
    DROPPED.store(0, Ordering::Relaxed);
}

/// One finished span: what ran, on which thread, when, and for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Dotted `crate.component.op` name.
    pub name: &'static str,
    /// Optional per-instance detail (e.g. `"eps=0.1"`), shown as trace args.
    pub label: Option<String>,
    /// Telemetry thread id (registration order; the first recording thread
    /// is 0 — usually `main`).
    pub tid: u32,
    /// Start, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at open time (outermost span on a thread is 1).
    pub depth: u16,
}

/// Per-thread span sink. Buffers are registered once per thread and live for
/// the process (pool workers never exit), so the registry only ever grows.
struct ThreadBuf {
    tid: u32,
    spans: Mutex<Vec<SpanEvent>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    static DUR_HISTS: RefCell<HashMap<&'static str, Arc<Histogram>>> =
        RefCell::new(HashMap::new());
}

/// Records a closed span's duration into the `{name}.dur_ns` registry
/// histogram, resolving (and caching) the handle on first use per thread.
fn record_span_duration(name: &'static str, dur_ns: u64) {
    DUR_HISTS.with(|cell| {
        let mut map = cell.borrow_mut();
        let hist = map
            .entry(name)
            .or_insert_with(|| histogram(&format!("{name}.dur_ns")));
        hist.record(dur_ns);
    });
}

fn local_buf() -> Arc<ThreadBuf> {
    LOCAL.with(|cell| {
        Arc::clone(cell.get_or_init(|| {
            let mut reg = registry()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let buf = Arc::new(ThreadBuf {
                tid: reg.len() as u32,
                spans: Mutex::new(Vec::new()),
            });
            reg.push(Arc::clone(&buf));
            buf
        }))
    })
}

/// Stable telemetry id of the calling thread: threads are numbered in the
/// order they first record telemetry, starting at 0. Used for per-worker
/// metric names and trace-event `tid`s.
pub fn thread_id() -> u32 {
    local_buf().tid
}

/// RAII guard returned by [`span`]; records the [`SpanEvent`] when dropped.
/// When telemetry is disabled the guard is inert (no clock read, no drop
/// work beyond an `Option` check).
#[must_use = "a span measures the scope of its guard; binding to _ drops it immediately"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    label: Option<String>,
    start_ns: u64,
}

/// Opens a span named `name` covering the guard's lifetime.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(None);
    }
    begin(name, None)
}

/// Opens a span with a lazily-built label; `label` is only invoked (and its
/// `String` only allocated) when telemetry is enabled.
#[inline]
pub fn span_labeled<F: FnOnce() -> String>(name: &'static str, label: F) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(None);
    }
    begin(name, Some(label()))
}

fn begin(name: &'static str, label: Option<String>) -> SpanGuard {
    DEPTH.with(|d| d.set(d.get() + 1));
    SpanGuard(Some(ActiveSpan {
        name,
        label,
        start_ns: now_ns(),
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let end = now_ns();
            let depth = DEPTH.with(|d| {
                let v = d.get();
                d.set(v.saturating_sub(1));
                v
            });
            push(
                active.name,
                active.label,
                active.start_ns,
                end.saturating_sub(active.start_ns),
                depth,
            );
        }
    }
}

/// Records a span that started at `start_ns` (a [`crate::now_ns`]
/// reading) and ran for `dur_ns`, on the calling thread and one level
/// below its open spans, exactly as a guard opened then and dropped
/// `dur_ns` later would. A kernel that interleaves two kinds of work times
/// each with its own clock reads and records them with this, so each kind
/// keeps its own span name. Inert when telemetry is disabled.
pub fn record_span(name: &'static str, label: Option<String>, start_ns: u64, dur_ns: u64) {
    if crate::enabled() {
        push(name, label, start_ns, dur_ns, DEPTH.with(Cell::get) + 1);
    }
}

/// Feeds a closed span into the `{name}.dur_ns` histogram and, under the
/// cap, the calling thread's buffer.
fn push(name: &'static str, label: Option<String>, start_ns: u64, dur_ns: u64, depth: u16) {
    let buf = local_buf();
    // The duration histogram is fixed-size and always fed; only the
    // unbounded event buffer is guarded by the cap.
    record_span_duration(name, dur_ns);
    if BUFFERED.load(Ordering::Relaxed) >= span_cap() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        DROPPED_COUNTER.incr();
    } else {
        BUFFERED.fetch_add(1, Ordering::Relaxed);
        buf.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(SpanEvent {
                name,
                label,
                tid: buf.tid,
                start_ns,
                dur_ns,
                depth,
            });
    }
}

/// Drains every thread's buffered spans into one vector with a fixed merge
/// order — start time ascending, then duration *descending* (parents sort
/// before the children they enclose at equal timestamps), then thread id,
/// then name — so repeated identical runs export identically-ordered
/// traces regardless of which worker flushed first.
pub fn drain_spans() -> Vec<SpanEvent> {
    let bufs: Vec<Arc<ThreadBuf>> = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let mut all = Vec::new();
    for buf in bufs {
        all.append(
            &mut buf
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
    }
    BUFFERED.fetch_sub(all.len(), Ordering::Relaxed);
    sort_spans(&mut all);
    all
}

/// Copies every thread's buffered spans without draining them, in the same
/// deterministic merge order as [`drain_spans`]. A run report rendered just
/// before [`crate::finish`] uses this, so the trace file that `finish`
/// writes still holds every span the report counted.
pub fn peek_spans() -> Vec<SpanEvent> {
    let bufs: Vec<Arc<ThreadBuf>> = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let mut all = Vec::new();
    for buf in bufs {
        all.extend(
            buf.spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .cloned(),
        );
    }
    sort_spans(&mut all);
    all
}

fn sort_spans(all: &mut [SpanEvent]) {
    all.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.tid.cmp(&b.tid))
            .then(a.name.cmp(b.name))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn spans_nest_and_record_depth() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let _ = drain_spans();
        {
            let _outer = span("test.span.outer");
            let _inner = span("test.span.inner");
        }
        let events = drain_spans();
        crate::set_enabled(false);
        let outer = events.iter().find(|e| e.name == "test.span.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "test.span.inner").unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.dur_ns <= outer.dur_ns);
    }

    #[test]
    fn labels_are_lazy_and_recorded() {
        let _g = test_lock::hold();
        crate::set_enabled(false);
        {
            // must not evaluate the label closure while disabled
            let _s = span_labeled("test.span.labeled", || {
                unreachable!("label built while off")
            });
        }
        crate::set_enabled(true);
        let _ = drain_spans();
        {
            let _s = span_labeled("test.span.labeled", || "eps=0.25".to_string());
        }
        let events = drain_spans();
        crate::set_enabled(false);
        let ev = events
            .iter()
            .find(|e| e.name == "test.span.labeled")
            .unwrap();
        assert_eq!(ev.label.as_deref(), Some("eps=0.25"));
    }

    #[test]
    fn drain_merges_threads_deterministically() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let _ = drain_spans();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _s = span("test.span.worker");
                });
            }
        });
        let events = drain_spans();
        crate::set_enabled(false);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "test.span.worker")
                .count(),
            3
        );
        // sorted by the documented key
        for pair in events.windows(2) {
            let key = |e: &SpanEvent| (e.start_ns, u64::MAX - e.dur_ns, e.tid, e.name);
            assert!(key(&pair[0]) <= key(&pair[1]));
        }
        // a second drain is empty
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn thread_ids_are_stable_per_thread() {
        let a = thread_id();
        let b = thread_id();
        assert_eq!(a, b);
    }

    #[test]
    fn closed_spans_feed_duration_histograms() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let _ = drain_spans();
        for _ in 0..3 {
            let _s = span("test.span.hist_feed");
        }
        let snap = crate::snapshot();
        crate::set_enabled(false);
        let _ = drain_spans();
        let hist = snap
            .histograms
            .get("test.span.hist_feed.dur_ns")
            .expect("span close registered no duration histogram");
        assert!(hist.count >= 3);
    }

    #[test]
    fn recorded_spans_nest_like_guards_and_feed_histograms() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let _ = drain_spans();
        {
            let _outer = span("test.span.record_outer");
            record_span("test.span.recorded", Some("part".into()), 1_000, 250);
        }
        record_span("test.span.recorded", None, 2_000, 750);
        let snap = crate::snapshot();
        crate::set_enabled(false);
        record_span("test.span.recorded", None, 3_000, 1);
        let events = drain_spans();
        let recorded: Vec<_> = events
            .iter()
            .filter(|e| e.name == "test.span.recorded")
            .map(|e| (e.label.as_deref(), e.start_ns, e.dur_ns, e.depth))
            .collect();
        assert_eq!(
            recorded,
            [(Some("part"), 1_000, 250, 2), (None, 2_000, 750, 1)],
            "a disabled record must be inert"
        );
        let hist = &snap.histograms["test.span.recorded.dur_ns"];
        assert!(hist.count >= 2 && hist.sum >= 1_000);
    }

    #[test]
    fn span_cap_drops_and_counts_overflow() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        crate::reset();
        set_span_cap(Some(3));
        for _ in 0..5 {
            let _s = span("test.span.capped");
        }
        let events = drain_spans();
        let dropped = dropped_spans();
        let snap = crate::snapshot();
        set_span_cap(None);
        crate::set_enabled(false);
        assert_eq!(events.len(), 3, "cap of 3 should keep exactly 3 spans");
        assert_eq!(dropped, 2);
        assert_eq!(snap.counters.get("telemetry.spans.dropped"), Some(&2));
        // the duration histogram still saw every close
        assert_eq!(snap.histograms["test.span.capped.dur_ns"].count, 5);
        // draining freed the buffer: new spans are accepted again
        crate::set_enabled(true);
        crate::reset();
        set_span_cap(Some(3));
        {
            let _s = span("test.span.capped");
        }
        let events = drain_spans();
        set_span_cap(None);
        crate::set_enabled(false);
        assert_eq!(events.len(), 1);
        assert_eq!(dropped_spans(), 0, "reset clears the dropped count");
    }

    #[test]
    fn peek_spans_does_not_drain() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        let _ = drain_spans();
        {
            let _s = span("test.span.peeked");
        }
        let peeked = peek_spans();
        let peeked_again = peek_spans();
        let drained = drain_spans();
        crate::set_enabled(false);
        assert_eq!(peeked, peeked_again);
        assert_eq!(peeked, drained);
        assert!(peeked.iter().any(|e| e.name == "test.span.peeked"));
        assert!(drain_spans().is_empty());
    }
}
