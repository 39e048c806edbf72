//! Run-report plumbing around `ahw_telemetry::render_report_md` (span tree
//! with self times, worker utilization, roofline scoring): re-parsing a
//! previous run's exports, and writing the Markdown/HTML pair.
//!
//! Three ways to get a report:
//!
//! 1. **Live, automatic** — every `exp_*` binary holds a
//!    [`crate::TelemetryFlush`] guard; when telemetry is enabled the guard
//!    writes `results/report_<bin>.md` (+ `.html`) at exit, before the
//!    exporters drain the span buffers. `AHW_REPORT=<path>` overrides the
//!    destination (and force-enables telemetry); `AHW_REPORT=0` disables
//!    the write.
//! 2. **Live, scraped** — `ahw_report --scrape <host:port>` fetches
//!    `/report.md` from a running process's metrics server.
//! 3. **Offline** — `ahw_report --trace trace.json --snapshot
//!    snapshot.json` re-renders the report from the files a previous run
//!    exported (`AHW_TRACE`, `/snapshot.json`), re-parsing them with
//!    `ahw_telemetry::json`.

use ahw_telemetry::json::{self, Value};
use ahw_telemetry::{HistogramSnapshot, MetricsSnapshot, SpanEvent};
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

/// Interns a span name to the `&'static str` the telemetry types require:
/// trace files are re-parsed long after the original statics are gone, so
/// each distinct name is leaked exactly once per process.
fn intern_name(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = INTERNED
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

/// Re-parses a trace-event JSON export (`ahw_telemetry::trace_json`) back
/// into span events. Metadata (`"ph":"M"`) records and malformed events are
/// skipped, and an unparsable file yields no spans; `ts`/`dur` are on the
/// export's µs timebase with 3 decimals, so the ns round-trip is exact.
pub fn parse_trace_json(text: &str) -> Vec<SpanEvent> {
    let Ok(doc) = json::parse(text) else {
        return Vec::new();
    };
    let events = doc.get("traceEvents").and_then(Value::as_array);
    let mut spans: Vec<SpanEvent> = events
        .unwrap_or_default()
        .iter()
        .filter(|ev| ev.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|ev| {
            let arg = |field: &str| ev.get("args")?.get(field);
            let us_to_ns = |field: &str| Some((ev.get(field)?.as_f64()? * 1000.0).round() as u64);
            Some(SpanEvent {
                name: intern_name(ev.get("name")?.as_str()?),
                label: arg("label").and_then(Value::as_str).map(str::to_string),
                tid: u32::try_from(ev.get("tid")?.as_u64()?).ok()?,
                start_ns: us_to_ns("ts")?,
                dur_ns: us_to_ns("dur")?,
                depth: arg("depth")
                    .and_then(Value::as_u64)
                    .map_or(Some(1), |d| u16::try_from(d).ok())?,
            })
        })
        .collect();
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.tid.cmp(&b.tid))
            .then(a.name.cmp(b.name))
    });
    spans
}

/// Re-parses a metrics snapshot export (`ahw_telemetry::snapshot_json`).
/// Gauges are ignored — no report section reads them — malformed entries
/// are skipped, and an unparsable file yields an empty snapshot.
pub fn parse_snapshot_json(text: &str) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    let Ok(doc) = json::parse(text) else {
        return snap;
    };
    let section = |name: &str| doc.get(name).and_then(Value::as_object).unwrap_or_default();
    for (name, v) in section("counters") {
        if let Some(v) = v.as_u64() {
            snap.counters.insert(name.clone(), v);
        }
    }
    for (name, h) in section("histograms") {
        let field = |f: &str| h.get(f).and_then(Value::as_u64);
        let (Some(count), Some(sum)) = (field("count"), field("sum")) else {
            continue;
        };
        let mut hist = HistogramSnapshot {
            count,
            sum,
            buckets: [0; ahw_telemetry::metrics::HISTOGRAM_BUCKETS],
        };
        let stored = h.get("buckets").and_then(Value::as_array);
        for (slot, b) in hist.buckets.iter_mut().zip(stored.unwrap_or_default()) {
            *slot = b.as_u64().unwrap_or(0);
        }
        snap.histograms.insert(name.clone(), hist);
    }
    snap
}

/// Writes `md` to `path` and a rendered HTML sibling (`.html`); returns
/// the HTML path.
pub fn write_report_files(path: &std::path::Path, md: &str) -> std::io::Result<std::path::PathBuf> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, md)?;
    let html_path = path.with_extension("html");
    std::fs::write(
        &html_path,
        ahw_telemetry::profile::md_to_html(md, "ahw run report"),
    )?;
    Ok(html_path)
}

/// The report destination for this process, if reports are enabled:
/// `AHW_REPORT=<path>` names it explicitly (`0`/empty disables), otherwise
/// telemetry being enabled selects `results/report_<bin>.md`.
pub fn report_path_from_env() -> Option<std::path::PathBuf> {
    match std::env::var("AHW_REPORT") {
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) => Some(std::path::PathBuf::from(v)),
        Err(_) => {
            if !ahw_telemetry::enabled() {
                return None;
            }
            let bin = std::env::current_exe()
                .ok()
                .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
                .unwrap_or_else(|| "run".to_string());
            Some(std::path::PathBuf::from(format!("results/report_{bin}.md")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_round_trips_through_the_parser() {
        let spans = vec![
            SpanEvent {
                name: "tensor.ops.matmul",
                label: None,
                tid: 0,
                start_ns: 1_000,
                dur_ns: 2_500,
                depth: 1,
            },
            SpanEvent {
                name: "attacks.sweep.epsilon",
                label: Some("eps=0.1".to_string()),
                tid: 1,
                start_ns: 4_000,
                dur_ns: 900,
                depth: 2,
            },
        ];
        let parsed = parse_trace_json(&ahw_telemetry::trace_json(&spans));
        assert_eq!(parsed, spans, "µs-timebase export must round-trip to ns");
    }

    #[test]
    fn snapshot_json_round_trips_counters_and_histograms() {
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert("tensor.ops.gemm_flops".to_string(), 123_456);
        snap.counters.insert("tensor.pool.jobs".to_string(), 7);
        let mut h = HistogramSnapshot {
            count: 3,
            sum: 999,
            buckets: [0; ahw_telemetry::metrics::HISTOGRAM_BUCKETS],
        };
        h.buckets[2] = 3;
        snap.histograms
            .insert("tensor.ops.matmul.dur_ns".to_string(), h);
        let json = ahw_telemetry::export::metrics_snapshot_json(&snap);
        let parsed = parse_snapshot_json(&json);
        assert_eq!(parsed.counters, snap.counters);
        assert_eq!(parsed.histograms, snap.histograms);
    }

    #[test]
    fn reversed_brackets_are_not_a_trace() {
        assert!(parse_trace_json("][").is_empty());
        assert!(parse_trace_json("x]y[").is_empty());
    }

    #[test]
    fn identical_histograms_keep_their_own_names() {
        // reset() keeps registrations, so untouched histograms share one
        // all-zero body
        let mut snap = MetricsSnapshot::default();
        let zero = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; ahw_telemetry::metrics::HISTOGRAM_BUCKETS],
        };
        snap.histograms
            .insert("a.one.dur_ns".to_string(), zero.clone());
        snap.histograms.insert("b.two.dur_ns".to_string(), zero);
        let parsed = parse_snapshot_json(&ahw_telemetry::export::metrics_snapshot_json(&snap));
        let names: Vec<&str> = parsed.histograms.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.one.dur_ns", "b.two.dur_ns"]);
    }

    #[test]
    fn report_files_land_as_md_and_html() {
        let dir = std::env::temp_dir().join(format!("ahw_report_test_{}", std::process::id()));
        let path = dir.join("report.md");
        let html = write_report_files(&path, "# ahw run report\n\n## Span tree\n").unwrap();
        let md_back = std::fs::read_to_string(&path).unwrap();
        let html_back = std::fs::read_to_string(&html).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(md_back.starts_with("# ahw run report"));
        assert!(html_back.starts_with("<!DOCTYPE html>"));
        assert!(html_back.contains("<h2>Span tree</h2>"));
    }

    #[test]
    fn interning_is_stable_per_name() {
        let a = intern_name("test.report.interned");
        let b = intern_name("test.report.interned");
        assert!(std::ptr::eq(a, b), "same name must intern to one leak");
    }
}
