//! Exporters: JSON metrics snapshot, chrome://tracing / Perfetto
//! trace-event JSON that carries that snapshot, and a human-readable stderr
//! summary.
//!
//! Strings and floats are written through [`crate::json`]. Output is
//! deterministic for deterministic input: metric maps are sorted, spans are
//! pre-sorted by [`drain_spans`], and floats are formatted with fixed
//! precision.

use crate::json;
use crate::metrics::{snapshot, MetricsSnapshot};
use crate::span::{drain_spans, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes the current metrics snapshot as one JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,"sum":..,"buckets":[..]}}}`.
pub fn snapshot_json() -> String {
    metrics_snapshot_json(&snapshot())
}

/// Serializes a given [`MetricsSnapshot`] (see [`snapshot_json`]).
pub fn metrics_snapshot_json(snap: &MetricsSnapshot) -> String {
    let entry = |name: &str, value: String| format!("{}:{value}", json::quote(name));
    let counters = snap.counters.iter().map(|(n, v)| entry(n, v.to_string()));
    let gauges = snap.gauges.iter().map(|(n, v)| entry(n, json::number(*v)));
    let histograms = snap.histograms.iter().map(|(n, h)| {
        let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
        let (count, sum, buckets) = (h.count, h.sum, buckets.join(","));
        entry(
            n,
            format!("{{\"count\":{count},\"sum\":{sum},\"buckets\":[{buckets}]}}"),
        )
    });
    let object = |entries: Vec<String>| format!("{{{}}}", entries.join(","));
    format!(
        "{{\"counters\":{},\"gauges\":{},\"histograms\":{}}}",
        object(counters.collect()),
        object(gauges.collect()),
        object(histograms.collect())
    )
}

/// Renders spans as chrome trace-event JSON — complete (`"ph":"X"`) events
/// on a µs timebase plus one thread-name metadata record per thread — that
/// loads directly in <https://ui.perfetto.dev> or chrome://tracing. The
/// metrics snapshot rides along under one more top-level key, `"metrics"`
/// ([`metrics_snapshot_json`]), which trace viewers ignore, so the one file
/// holds everything the run report reads.
pub fn trace_json(spans: &[SpanEvent], snap: &MetricsSnapshot) -> String {
    let mut tids: Vec<u32> = spans.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let threads = tids.into_iter().map(|tid| {
        let label = if tid == 0 {
            "main".to_string()
        } else {
            format!("worker-{tid}")
        };
        format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        )
    });
    let events = spans.iter().map(|ev| {
        let cat = ev.name.split('.').next().unwrap_or(ev.name);
        let label = match &ev.label {
            Some(label) => format!("\"label\":{},", json::quote(label)),
            None => String::new(),
        };
        format!(
            "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{label}\"depth\":{}}}}}",
            json::quote(ev.name),
            json::quote(cat),
            ev.tid,
            ev.start_ns as f64 / 1000.0,
            ev.dur_ns as f64 / 1000.0,
            ev.depth
        )
    });
    let records: Vec<String> = threads.chain(events).collect();
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"metrics\":{}}}",
        records.join(","),
        metrics_snapshot_json(snap)
    )
}

/// Per-span-name aggregate used by the summary table.
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Renders the human-readable summary: a per-name span table (count, total,
/// mean/min/max) followed by every counter and gauge.
pub fn render_summary(spans: &[SpanEvent], snap: &MetricsSnapshot) -> String {
    let mut out = String::from("== telemetry summary ==\n");
    if !spans.is_empty() {
        let mut aggs: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
        for ev in spans {
            let agg = aggs.entry(ev.name).or_insert(SpanAgg {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            agg.count += 1;
            agg.total_ns += ev.dur_ns;
            agg.min_ns = agg.min_ns.min(ev.dur_ns);
            agg.max_ns = agg.max_ns.max(ev.dur_ns);
        }
        let name_w = aggs.keys().map(|n| n.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8}  {:>12}  {:>10}  {:>10}  {:>10}",
            "span", "count", "total_ms", "mean_us", "min_us", "max_us"
        );
        for (name, agg) in &aggs {
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>8}  {:>12.3}  {:>10.1}  {:>10.1}  {:>10.1}",
                name,
                agg.count,
                agg.total_ns as f64 / 1e6,
                agg.total_ns as f64 / agg.count as f64 / 1e3,
                agg.min_ns as f64 / 1e3,
                agg.max_ns as f64 / 1e3,
            );
        }
    }
    if !snap.counters.is_empty() {
        out.push_str("-- counters --\n");
        let name_w = snap.counters.keys().map(String::len).max().unwrap_or(0);
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "{name:<name_w$}  {v}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("-- gauges --\n");
        let name_w = snap.gauges.keys().map(String::len).max().unwrap_or(0);
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "{name:<name_w$}  {v:.6}");
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("-- histograms --\n");
        let name_w = snap.histograms.keys().map(String::len).max().unwrap_or(0);
        for (name, h) in &snap.histograms {
            let (p50, p95, p99) = h.percentiles();
            let _ = writeln!(
                out,
                "{name:<name_w$}  count={}  sum={}  mean={:.1}  p50={p50:.1}  p95={p95:.1}  p99={p99:.1}",
                h.count,
                h.sum,
                h.mean()
            );
        }
    }
    out
}

/// End-of-process flush: drains spans once, writes them and the metrics
/// snapshot to the `AHW_TRACE` file if configured ([`trace_json`]), and
/// prints the `AHW_METRICS` summary to stderr if requested.
/// A no-op when telemetry is disabled; safe to call more than once (later
/// calls see an empty span buffer).
pub fn finish() {
    if !crate::enabled() {
        return;
    }
    // Terminate any in-flight CR-rewritten progress line before writing to
    // stderr, so the summary starts on a fresh line instead of splicing
    // into a half-drawn sweep status.
    crate::progress::interrupt();
    let spans = drain_spans();
    let snap = snapshot();
    let dropped = crate::span::dropped_spans();
    if dropped > 0 {
        eprintln!(
            "[telemetry] warning: {dropped} span(s) dropped at the AHW_SPAN_CAP buffer \
             limit — the trace and span-derived reports are partial"
        );
    }
    if let Some(path) = crate::env_trace_path() {
        match std::fs::write(&path, trace_json(&spans, &snap)) {
            Ok(()) => eprintln!("[telemetry] wrote {} span(s) to {path}", spans.len()),
            Err(e) => eprintln!("[telemetry] failed to write trace to {path}: {e}"),
        }
    }
    if crate::env_metrics_on() {
        eprint!("{}", render_summary(&spans, &snap));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HISTOGRAM_BUCKETS;
    use crate::test_lock;

    fn ev(name: &'static str, tid: u32, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            label: None,
            tid,
            start_ns: start,
            dur_ns: dur,
            depth: 1,
        }
    }

    #[test]
    fn trace_json_shape() {
        let spans = vec![
            ev("tensor.ops.matmul", 0, 1000, 2500),
            SpanEvent {
                label: Some("eps=0.1".to_string()),
                ..ev("attacks.sweep.epsilon", 1, 4000, 900)
            },
        ];
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("demo.count".to_string(), 3);
        let json = trace_json(&spans, &snap);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with(&format!(
            "],\"displayTimeUnit\":\"ms\",\"metrics\":{}}}",
            metrics_snapshot_json(&snap)
        )));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"main\""));
        assert!(json.contains("\"name\":\"worker-1\""));
        assert!(json.contains("\"ph\":\"X\",\"name\":\"tensor.ops.matmul\",\"cat\":\"tensor\""));
        assert!(
            json.contains("\"ts\":1,\"dur\":2.5") || json.contains("\"ts\":1.000,\"dur\":2.500")
        );
        assert!(json.contains("\"label\":\"eps=0.1\""));
    }

    #[test]
    fn snapshot_json_is_valid_shape() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        crate::reset();
        static C: crate::LazyCounter = crate::LazyCounter::new("test.export.count");
        static G: crate::LazyGauge = crate::LazyGauge::new("test.export.gauge");
        C.add(9);
        G.set(1.5);
        let json = snapshot_json();
        crate::set_enabled(false);
        assert!(json.contains("\"test.export.count\":9"));
        assert!(json.contains("\"test.export.gauge\":1.5"));
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn summary_aggregates_spans() {
        let spans = vec![
            ev("nn.train.batch", 0, 0, 1000),
            ev("nn.train.batch", 0, 2000, 3000),
        ];
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("nn.train.batches".to_string(), 2);
        let text = render_summary(&spans, &snap);
        assert!(text.contains("nn.train.batch"));
        assert!(text.contains("2")); // count column
        assert!(text.contains("nn.train.batches"));
    }

    #[test]
    fn summary_histograms_report_percentiles() {
        let mut snap = MetricsSnapshot::default();
        let mut h = crate::HistogramSnapshot {
            count: 1,
            sum: 10,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        h.buckets[1] = 1; // a single record at 10 -> bucket [4,16)
        snap.histograms.insert("demo.hist".to_string(), h);
        let text = render_summary(&[], &snap);
        assert!(
            text.contains("p50=10.0") && text.contains("p95=10.0") && text.contains("p99=10.0"),
            "{text}"
        );
    }
}
