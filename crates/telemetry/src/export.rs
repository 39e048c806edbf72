//! Exporters: JSON metrics snapshot, chrome://tracing / Perfetto
//! trace-event JSON, and a human-readable stderr summary.
//!
//! Strings and floats are written through [`crate::json`]. Output is
//! deterministic for deterministic input: metric maps are sorted, spans are
//! pre-sorted by [`drain_spans`], and floats are formatted with fixed
//! precision.

use crate::json;
use crate::metrics::{bucket_upper, snapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
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

/// Maps a dotted `crate.component.metric` name onto the Prometheus metric
/// charset `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character becomes `_`,
/// and a leading digit gains a `_` prefix. `tensor.ops.matmul.dur_ns`
/// becomes `tensor_ops_matmul_dur_ns`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Whether `name` already satisfies the Prometheus metric-name charset.
pub fn is_prometheus_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn prometheus_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders the current registry in the Prometheus text exposition format
/// (version 0.0.4): every counter, gauge, and histogram, in stable sorted
/// name order, with sanitized names ([`prometheus_name`]).
///
/// Histograms export the standard cumulative `_bucket{le="..."}` / `_sum` /
/// `_count` series (bucket edges are the power-of-four uppers; `le` is
/// nominally inclusive where our buckets are exclusive at the edge — the
/// 4x-wide buckets dwarf that off-by-one) **plus** derived `_p50` / `_p95`
/// / `_p99` gauges ([`crate::HistogramSnapshot::quantile`]), so the
/// span-latency histograms fed by every closed span surface per-name
/// latency percentiles directly in a scrape.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge\n{n} {}", prometheus_f64(*v));
    }
    for (name, h) in &snap.histograms {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        // The last of the 17 power-of-four buckets is open-ended, so its
        // exposition edge is `+Inf`; the finite edges are the uppers of the
        // 16 bounded buckets.
        let mut cumulative = 0u64;
        for (i, &c) in h.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
            cumulative += c;
            let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cumulative}", bucket_upper(i));
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        let (p50, p95, p99) = h.percentiles();
        for (suffix, v) in [("p50", p50), ("p95", p95), ("p99", p99)] {
            let _ = writeln!(
                out,
                "# TYPE {n}_{suffix} gauge\n{n}_{suffix} {}",
                prometheus_f64(v)
            );
        }
    }
    out
}

/// Renders spans as chrome trace-event JSON — complete (`"ph":"X"`) events
/// on a µs timebase plus one thread-name metadata record per thread — that
/// loads directly in <https://ui.perfetto.dev> or chrome://tracing.
pub fn trace_json(spans: &[SpanEvent]) -> String {
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
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        records.join(",")
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

/// End-of-process flush: drains spans once, writes the `AHW_TRACE` file if
/// configured, and prints the `AHW_METRICS` summary to stderr if requested.
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
    let dropped = crate::span::dropped_spans();
    if dropped > 0 {
        eprintln!(
            "[telemetry] warning: {dropped} span(s) dropped at the AHW_SPAN_CAP buffer \
             limit — the trace and span-derived reports are partial"
        );
    }
    if let Some(path) = crate::env_trace_path() {
        match std::fs::write(&path, trace_json(&spans)) {
            Ok(()) => eprintln!("[telemetry] wrote {} span(s) to {path}", spans.len()),
            Err(e) => eprintln!("[telemetry] failed to write trace to {path}: {e}"),
        }
    }
    if crate::env_metrics_on() {
        eprint!("{}", render_summary(&spans, &snapshot()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let json = trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
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
    fn prometheus_names_sanitize_and_lint() {
        assert_eq!(
            prometheus_name("tensor.ops.matmul.dur_ns"),
            "tensor_ops_matmul_dur_ns"
        );
        assert_eq!(prometheus_name("8t.cell-rate"), "_8t_cell_rate");
        assert!(is_prometheus_name("tensor_ops_matmul_dur_ns"));
        assert!(is_prometheus_name("a:b_c9"));
        assert!(!is_prometheus_name("tensor.ops"));
        assert!(!is_prometheus_name("9lives"));
        assert!(!is_prometheus_name(""));
        // sanitizing always yields a valid name
        for raw in ["nn.train.loss", "8t", "a b\tc", "Ω.µ"] {
            assert!(is_prometheus_name(&prometheus_name(raw)), "{raw:?}");
        }
    }

    #[test]
    fn prometheus_text_golden_shape() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("zz.later".to_string(), 7);
        snap.counters.insert("aa.first".to_string(), 1);
        snap.gauges.insert("nn.train.loss".to_string(), 0.5);
        let mut h = crate::HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        // values 0, 1, 5, 100 — the pinned-percentile fixture
        for (i, c) in [(0usize, 2u64), (1, 1), (3, 1)] {
            h.buckets[i] = c;
        }
        h.count = 4;
        h.sum = 106;
        snap.histograms.insert("demo.span.dur_ns".to_string(), h);
        let text = prometheus_text(&snap);
        // counters render in sorted order with TYPE headers
        let aa = text.find("aa_first 1").unwrap();
        let zz = text.find("zz_later 7").unwrap();
        assert!(aa < zz);
        assert!(text.contains("# TYPE aa_first counter\n"));
        assert!(text.contains("# TYPE nn_train_loss gauge\nnn_train_loss 0.5\n"));
        // histogram: cumulative buckets, sum/count, derived percentiles
        assert!(text.contains("# TYPE demo_span_dur_ns histogram\n"));
        assert!(text.contains("demo_span_dur_ns_bucket{le=\"4\"} 2\n"));
        assert!(text.contains("demo_span_dur_ns_bucket{le=\"16\"} 3\n"));
        assert!(text.contains("demo_span_dur_ns_bucket{le=\"256\"} 4\n"));
        assert!(text.contains("demo_span_dur_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("demo_span_dur_ns_sum 106\n"));
        assert!(text.contains("demo_span_dur_ns_count 4\n"));
        assert!(text.contains("# TYPE demo_span_dur_ns_p50 gauge\ndemo_span_dur_ns_p50 3\n"));
        assert!(text.contains("demo_span_dur_ns_p95 160\n"));
        assert!(text.contains("demo_span_dur_ns_p99 160\n"));
        // identical input renders byte-identically
        assert_eq!(text, prometheus_text(&snap));
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
