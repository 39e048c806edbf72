//! Profiling & attribution on top of the raw telemetry: a deterministic
//! **span tree** (inclusive/self time per name-path), a **worker-utilization**
//! summary derived from the pool's busy counters and participation spans,
//! **roofline** efficiency scoring of the counted kernels against a measured
//! machine roof, and a self-contained Markdown/HTML **run report** combining
//! all three.
//!
//! ## Determinism
//!
//! The tree is keyed by *name-path* (the chain of span names from each
//! thread's outermost span down), children render in name order, and counts
//! aggregate per path — so for a workload whose span set is
//! thread-count-invariant, the tree *structure* and *counts* are byte-stable
//! across `AHW_THREADS` (pinned by `tests/report_determinism.rs` at the
//! workspace root). Wall-clock columns (inclusive/self/mean/p95) and the
//! utilization section are measurements and legitimately vary run to run.
//!
//! ## Self-time semantics
//!
//! A node's **inclusive** time is the summed wall-clock duration of every
//! span instance at its path. Its **self** time is inclusive minus the
//! inclusive time of its children. Children of one parent instance are
//! sequential RAII scopes on one thread, so their durations never overlap
//! and always sum to at most the parent's duration — self time is therefore
//! never negative, and that invariant is asserted by the report tests.

use crate::metrics::MetricsSnapshot;
use crate::span::SpanEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Name of the span each pool participant records around a job (see
/// `ahw_tensor::pool`); the utilization timeline is drawn from these.
pub const POOL_PARTICIPATE_SPAN: &str = "tensor.pool.participate";

/// Measured machine roof: peak compute and peak streaming bandwidth at the
/// configured thread count, against which kernels are scored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Best measured compute throughput, GFLOP/s.
    pub peak_gflops: f64,
    /// Best measured streaming bandwidth, GB/s.
    pub stream_gbps: f64,
}

fn roof_slot() -> &'static Mutex<Option<Roofline>> {
    static ROOF: Mutex<Option<Roofline>> = Mutex::new(None);
    &ROOF
}

/// Registers (or clears) the process-wide roofline used by the `/report`
/// endpoint and the end-of-run report. `ahw_bench` sets this after its
/// one-shot calibration; tests pin explicit values.
pub fn set_roofline(roof: Option<Roofline>) {
    *roof_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = roof;
}

/// The currently registered roofline, if any.
pub fn roofline() -> Option<Roofline> {
    *roof_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One aggregated node of the span tree: every span instance whose
/// name-path (chain of enclosing span names) matches this node's path.
#[derive(Debug, Default, Clone)]
pub struct SpanNode {
    /// Instances aggregated into this node.
    pub count: u64,
    /// Summed wall-clock duration of those instances.
    pub incl_ns: u64,
    /// Children keyed by span name (sorted, so traversal is deterministic).
    pub children: BTreeMap<&'static str, SpanNode>,
}

impl SpanNode {
    /// Summed inclusive time of the direct children.
    pub fn children_incl_ns(&self) -> u64 {
        self.children.values().map(|c| c.incl_ns).sum()
    }

    /// Inclusive minus children-inclusive time. Saturating by construction,
    /// but interval containment guarantees it never actually saturates.
    pub fn self_ns(&self) -> u64 {
        self.incl_ns.saturating_sub(self.children_incl_ns())
    }
}

/// The aggregated span tree; `root` is synthetic (its children are each
/// thread's outermost span names).
#[derive(Debug, Default, Clone)]
pub struct SpanTree {
    pub root: SpanNode,
}

/// Builds the aggregate tree from finished spans. Nesting is reconstructed
/// per thread from the recorded depth plus interval containment: a span
/// becomes a child of the innermost enclosing span on its thread; a span
/// whose recorded parent is absent (e.g. still open at a mid-run peek)
/// attaches at the outermost level instead of to a wrong parent.
pub fn span_tree(spans: &[SpanEvent]) -> SpanTree {
    let mut ordered: Vec<&SpanEvent> = spans.iter().collect();
    // Per-thread open order: parents open before (or at the same tick as,
    // with longer duration / smaller depth than) their children.
    ordered.sort_by(|a, b| {
        a.tid
            .cmp(&b.tid)
            .then(a.start_ns.cmp(&b.start_ns))
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.depth.cmp(&b.depth))
            .then(a.name.cmp(b.name))
    });
    let mut tree = SpanTree::default();
    struct Open {
        start_ns: u64,
        end_ns: u64,
        depth: u16,
        path: Vec<&'static str>,
    }
    let mut stack: Vec<Open> = Vec::new();
    let mut tid = None;
    for ev in ordered {
        if tid != Some(ev.tid) {
            tid = Some(ev.tid);
            stack.clear();
        }
        let end_ns = ev.start_ns.saturating_add(ev.dur_ns);
        while let Some(top) = stack.last() {
            let contained =
                ev.depth > top.depth && ev.start_ns >= top.start_ns && end_ns <= top.end_ns;
            if contained {
                break;
            }
            stack.pop();
        }
        let mut path: Vec<&'static str> = stack.last().map(|t| t.path.clone()).unwrap_or_default();
        path.push(ev.name);
        let mut node = &mut tree.root;
        for name in &path {
            node = node.children.entry(name).or_default();
        }
        node.count += 1;
        node.incl_ns += ev.dur_ns;
        stack.push(Open {
            start_ns: ev.start_ns,
            end_ns,
            depth: ev.depth,
            path,
        });
    }
    tree
}

/// Per-worker busy time plus the derived parallel-efficiency figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// Wall-clock window covered by the spans (first start to last end).
    pub wall_ns: u64,
    /// `(telemetry thread id, busy_ns)` per worker that recorded pool busy
    /// time, in thread-id order.
    pub workers: Vec<(u32, u64)>,
    /// Sum of the per-worker busy times.
    pub total_busy_ns: u64,
    /// Max worker busy time over the mean (1.0 = perfectly even).
    pub imbalance: f64,
    /// Amdahl-style serial-fraction estimate (see [`serial_fraction`]).
    pub serial_fraction: f64,
}

/// Amdahl inversion: observed speedup `S = total_busy / wall` on `n`
/// workers solves `S = 1 / (s + (1 - s)/n)` for the serial fraction
/// `s = (n/S - 1) / (n - 1)`, clamped to `[0, 1]`. One worker (or no busy
/// time) is fully serial by definition.
pub fn serial_fraction(wall_ns: u64, total_busy_ns: u64, n_workers: usize) -> f64 {
    if n_workers <= 1 || total_busy_ns == 0 || wall_ns == 0 {
        return 1.0;
    }
    let speedup = total_busy_ns as f64 / wall_ns as f64;
    if speedup <= 0.0 {
        return 1.0;
    }
    let n = n_workers as f64;
    ((n / speedup - 1.0) / (n - 1.0)).clamp(0.0, 1.0)
}

/// Derives the utilization summary from the pool's per-worker busy
/// counters (`tensor.pool.worker<tid>.busy_ns`) and the span window.
/// Returns `None` when no worker recorded any busy time.
pub fn utilization(spans: &[SpanEvent], snap: &MetricsSnapshot) -> Option<Utilization> {
    let mut workers: Vec<(u32, u64)> = snap
        .counters
        .iter()
        .filter_map(|(name, &busy)| {
            let tid = name
                .strip_prefix("tensor.pool.worker")?
                .strip_suffix(".busy_ns")?
                .parse::<u32>()
                .ok()?;
            Some((tid, busy))
        })
        .collect();
    workers.sort_unstable();
    let total_busy_ns: u64 = workers.iter().map(|&(_, b)| b).sum();
    if workers.is_empty() || total_busy_ns == 0 {
        return None;
    }
    let wall_ns = span_window(spans).map_or(0, |(lo, hi)| hi - lo);
    let max_busy = workers.iter().map(|&(_, b)| b).max().unwrap_or(0);
    let mean_busy = total_busy_ns as f64 / workers.len() as f64;
    Some(Utilization {
        wall_ns,
        total_busy_ns,
        imbalance: if mean_busy > 0.0 {
            max_busy as f64 / mean_busy
        } else {
            1.0
        },
        serial_fraction: serial_fraction(wall_ns, total_busy_ns, workers.len()),
        workers,
    })
}

/// `(first start, last end)` over the spans, when any exist.
fn span_window(spans: &[SpanEvent]) -> Option<(u64, u64)> {
    let lo = spans.iter().map(|e| e.start_ns).min()?;
    let hi = spans
        .iter()
        .map(|e| e.start_ns.saturating_add(e.dur_ns))
        .max()?;
    Some((lo, hi.max(lo)))
}

/// Width of the per-worker timeline, in bins.
const TIMELINE_BINS: usize = 60;

/// Shade ramp for bin coverage (0% .. 100% busy).
const TIMELINE_RAMP: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Renders one `tid -> coverage row` per worker that recorded
/// participation spans: each of the `TIMELINE_BINS` bins shades the
/// fraction of that bin covered by `tensor.pool.participate` intervals.
/// Empty when no participation spans exist (e.g. a one-thread run).
pub fn utilization_timeline(spans: &[SpanEvent]) -> Vec<(u32, String)> {
    let (lo, hi) = match span_window(spans) {
        Some(w) => w,
        None => return Vec::new(),
    };
    let width = (hi - lo).max(1) as f64;
    let mut per_tid: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for ev in spans
        .iter()
        .filter(|e| e.name == POOL_PARTICIPATE_SPAN && e.dur_ns > 0)
    {
        let bins = per_tid
            .entry(ev.tid)
            .or_insert_with(|| vec![0.0; TIMELINE_BINS]);
        let s = (ev.start_ns - lo) as f64 / width * TIMELINE_BINS as f64;
        let e = (ev.start_ns - lo + ev.dur_ns) as f64 / width * TIMELINE_BINS as f64;
        let first = (s.floor() as usize).min(TIMELINE_BINS - 1);
        let last = (e.ceil() as usize).clamp(first + 1, TIMELINE_BINS);
        for (i, bin) in bins.iter_mut().enumerate().take(last).skip(first) {
            let cover = (e.min((i + 1) as f64) - s.max(i as f64)).max(0.0);
            *bin = (*bin + cover).min(1.0);
        }
    }
    per_tid
        .into_iter()
        .map(|(tid, bins)| {
            let row: String = bins
                .iter()
                .map(|&c| {
                    let idx = (c * (TIMELINE_RAMP.len() - 1) as f64).round() as usize;
                    TIMELINE_RAMP[idx.min(TIMELINE_RAMP.len() - 1)]
                })
                .collect();
            (tid, row)
        })
        .collect()
}

/// One counted kernel scored against the roof.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelScore {
    /// Kernel family name (`gemm`, `im2col`, `col2im`).
    pub name: &'static str,
    /// Work counted by the kernel's FLOP counter (0 for pure-stream ops).
    pub flops: u64,
    /// Traffic counted (or derived from element counts) in bytes.
    pub bytes: u64,
    /// Summed span time of the kernel family, from the `.dur_ns` histograms.
    pub time_ns: u64,
    /// Operational intensity, FLOP per byte (0 when no FLOPs are counted).
    pub intensity: f64,
    /// Achieved GFLOP/s over the kernel's own span time.
    pub gflops: f64,
    /// Achieved GB/s over the kernel's own span time.
    pub gbps: f64,
    /// Achieved over attainable (roofline-limited) throughput, when a
    /// roof is registered: compute-counted kernels score
    /// `gflops / min(peak_gflops, intensity * stream_gbps)`; pure-stream
    /// kernels score `gbps / stream_gbps`.
    pub pct_of_roof: Option<f64>,
}

/// Counter / histogram wiring for one scored kernel family.
struct KernelSpec {
    name: &'static str,
    flops_counter: Option<&'static str>,
    bytes_counter: Option<&'static str>,
    /// Element counter converted to bytes at 8 bytes/element (one f32 read
    /// plus one f32 write per gathered/scattered element).
    elems_counter: Option<&'static str>,
    span_names: &'static [&'static str],
}

const KERNEL_SPECS: &[KernelSpec] = &[
    KernelSpec {
        name: "gemm",
        flops_counter: Some("tensor.ops.gemm_flops"),
        bytes_counter: Some("tensor.ops.gemm_bytes"),
        elems_counter: None,
        span_names: &[
            "tensor.ops.matmul",
            "tensor.ops.matmul_transa",
            "tensor.ops.matmul_transb",
        ],
    },
    KernelSpec {
        name: "im2col",
        flops_counter: None,
        bytes_counter: None,
        elems_counter: Some("tensor.ops.im2col_elems"),
        span_names: &["tensor.ops.im2col"],
    },
    KernelSpec {
        name: "col2im",
        flops_counter: None,
        bytes_counter: None,
        elems_counter: Some("tensor.ops.col2im_elems"),
        span_names: &["tensor.ops.col2im"],
    },
];

/// Scores every counted kernel family with recorded work against `roof`.
/// Families with zero counted work are omitted.
pub fn roofline_scores(snap: &MetricsSnapshot, roof: Option<&Roofline>) -> Vec<KernelScore> {
    let counter = |name: Option<&str>| name.and_then(|n| snap.counters.get(n)).copied();
    KERNEL_SPECS
        .iter()
        .filter_map(|spec| {
            let flops = counter(spec.flops_counter).unwrap_or(0);
            let bytes = counter(spec.bytes_counter)
                .or_else(|| counter(spec.elems_counter).map(|e| e * 8))
                .unwrap_or(0);
            if flops == 0 && bytes == 0 {
                return None;
            }
            let time_ns: u64 = spec
                .span_names
                .iter()
                .filter_map(|n| snap.histograms.get(&format!("{n}.dur_ns")))
                .map(|h| h.sum)
                .sum();
            let secs = time_ns as f64 / 1e9;
            let (gflops, gbps) = if secs > 0.0 {
                (flops as f64 / secs / 1e9, bytes as f64 / secs / 1e9)
            } else {
                (0.0, 0.0)
            };
            let intensity = if bytes > 0 {
                flops as f64 / bytes as f64
            } else {
                0.0
            };
            let pct_of_roof = roof.and_then(|r| {
                if flops > 0 {
                    let attainable = r.peak_gflops.min(intensity * r.stream_gbps);
                    (attainable > 0.0 && secs > 0.0).then(|| gflops / attainable)
                } else {
                    (r.stream_gbps > 0.0 && secs > 0.0).then(|| gbps / r.stream_gbps)
                }
            });
            Some(KernelScore {
                name: spec.name,
                flops,
                bytes,
                time_ns,
                intensity,
                gflops,
                gbps,
                pct_of_roof,
            })
        })
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn render_tree_rows(
    out: &mut String,
    node: &SpanNode,
    name: &str,
    depth: usize,
    snap: &MetricsSnapshot,
) {
    if !name.is_empty() {
        let indent = "· ".repeat(depth.saturating_sub(1));
        let mean_us = us(node.incl_ns as f64 / node.count.max(1) as f64);
        let p95_us = snap
            .histograms
            .get(&format!("{name}.dur_ns"))
            .map_or(0.0, |h| us(h.quantile(0.95)));
        let _ = writeln!(
            out,
            "| `{indent}{name}` | {} | {:.3} | {:.3} | {mean_us:.1} | {p95_us:.1} |",
            node.count,
            ms(node.incl_ns),
            ms(node.self_ns()),
        );
    }
    for (child_name, child) in &node.children {
        render_tree_rows(out, child, child_name, depth + 1, snap);
    }
}

/// Renders the span-tree section. The first two columns (path and count)
/// are thread-count-invariant for invariant workloads; the time columns
/// are measurements.
pub fn render_span_tree_md(tree: &SpanTree, snap: &MetricsSnapshot) -> String {
    let mut out = String::from("## Span tree\n\n");
    if tree.root.children.is_empty() {
        out.push_str("no spans recorded\n");
        return out;
    }
    out.push_str("| span | count | incl_ms | self_ms | mean_us | p95_us |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|\n");
    render_tree_rows(&mut out, &tree.root, "", 0, snap);
    out
}

fn render_utilization_md(spans: &[SpanEvent], snap: &MetricsSnapshot) -> String {
    let mut out = String::from("## Worker utilization\n\n");
    let util = match utilization(spans, snap) {
        Some(u) => u,
        None => {
            out.push_str("no pool busy time recorded\n");
            return out;
        }
    };
    let _ = writeln!(
        out,
        "wall: {:.3} ms · pool busy (all workers): {:.3} ms · workers: {} · \
         load imbalance: {:.2}x · serial fraction (Amdahl): {:.2}",
        ms(util.wall_ns),
        ms(util.total_busy_ns),
        util.workers.len(),
        util.imbalance,
        util.serial_fraction,
    );
    out.push('\n');
    out.push_str("| worker | busy_ms | busy_frac |\n|---|---:|---:|\n");
    for &(tid, busy) in &util.workers {
        let frac = if util.wall_ns > 0 {
            busy as f64 / util.wall_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "| worker{tid} | {:.3} | {frac:.3} |", ms(busy));
    }
    let timeline = utilization_timeline(spans);
    if !timeline.is_empty() {
        out.push_str("\ntimeline (pool participation, one row per thread):\n\n```\n");
        for (tid, row) in &timeline {
            let _ = writeln!(out, "worker{tid:<3} |{row}|");
        }
        out.push_str("```\n");
    }
    out
}

fn render_roofline_md(snap: &MetricsSnapshot, roof: Option<&Roofline>) -> String {
    let mut out = String::from("## Roofline\n\n");
    match roof {
        Some(r) => {
            let _ = writeln!(
                out,
                "roof: {:.2} GFLOP/s peak compute · {:.2} GB/s stream\n",
                r.peak_gflops, r.stream_gbps
            );
        }
        None => out.push_str("roof: not calibrated (run `ahw_bench --calibrate` or set AHW_ROOF_GFLOPS / AHW_ROOF_GBPS)\n\n"),
    }
    let scores = roofline_scores(snap, roof);
    if scores.is_empty() {
        out.push_str("no counted kernel work recorded\n");
        return out;
    }
    out.push_str("| kernel | flops | bytes | intensity | time_ms | GFLOP/s | GB/s | %roof |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for s in &scores {
        let pct = s
            .pct_of_roof
            .map_or("n/a".to_string(), |p| format!("{:.1}%", p * 100.0));
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.3} | {:.3} | {:.2} | {:.2} | {pct} |",
            s.name,
            s.flops,
            s.bytes,
            s.intensity,
            ms(s.time_ns),
            s.gflops,
            s.gbps,
        );
    }
    out
}

fn render_counters_md(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("## Workload counters\n\n");
    if snap.counters.is_empty() {
        out.push_str("no counters recorded\n");
        return out;
    }
    out.push_str("| counter | value |\n|---|---:|\n");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "| `{name}` | {v} |");
    }
    out
}

/// Renders the full profiling report as self-contained Markdown: span tree,
/// workload counters, worker utilization, and roofline scoring, plus a
/// dropped-span warning when the `AHW_SPAN_CAP` buffer overflowed.
pub fn render_report_md(
    spans: &[SpanEvent],
    snap: &MetricsSnapshot,
    roof: Option<&Roofline>,
) -> String {
    let mut out = String::from("# ahw run report\n\n");
    if let Some(&dropped) = snap.counters.get("telemetry.spans.dropped") {
        if dropped > 0 {
            let _ = writeln!(
                out,
                "**warning**: {dropped} span(s) dropped at the AHW_SPAN_CAP buffer limit — \
                 tree counts and times are partial\n"
            );
        }
    }
    out.push_str(&render_span_tree_md(&span_tree(spans), snap));
    out.push('\n');
    out.push_str(&render_counters_md(snap));
    out.push('\n');
    out.push_str(&render_utilization_md(spans, snap));
    out.push('\n');
    out.push_str(&render_roofline_md(snap, roof));
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Converts the report's Markdown subset (headers, pipe tables, fenced code
/// blocks, paragraphs) into a self-contained HTML document.
pub fn md_to_html(md: &str, title: &str) -> String {
    let mut body = String::new();
    let mut in_table = false;
    let mut in_code = false;
    for line in md.lines() {
        if line.starts_with("```") {
            body.push_str(if in_code { "</pre>\n" } else { "<pre>\n" });
            in_code = !in_code;
            continue;
        }
        if in_code {
            let _ = writeln!(body, "{}", html_escape(line));
            continue;
        }
        let is_row = line.starts_with('|') && line.ends_with('|');
        if in_table && !is_row {
            body.push_str("</table>\n");
            in_table = false;
        }
        if is_row {
            let cells: Vec<&str> = line[1..line.len() - 1].split('|').collect();
            if cells.iter().all(|c| {
                let t = c.trim();
                !t.is_empty() && t.chars().all(|ch| ch == '-' || ch == ':')
            }) {
                continue; // separator row
            }
            let tag = if in_table { "td" } else { "th" };
            if !in_table {
                body.push_str("<table>\n");
                in_table = true;
            }
            body.push_str("<tr>");
            for c in cells {
                let text = html_escape(c.trim()).replace('`', "");
                let _ = write!(body, "<{tag}>{text}</{tag}>");
            }
            body.push_str("</tr>\n");
            continue;
        }
        if let Some(h) = line.strip_prefix("## ") {
            let _ = writeln!(body, "<h2>{}</h2>", html_escape(h));
        } else if let Some(h) = line.strip_prefix("# ") {
            let _ = writeln!(body, "<h1>{}</h1>", html_escape(h));
        } else if !line.is_empty() {
            let _ = writeln!(body, "<p>{}</p>", html_escape(line).replace('`', ""));
        }
    }
    if in_table {
        body.push_str("</table>\n");
    }
    if in_code {
        body.push_str("</pre>\n");
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>{}</title>\n\
         <style>body{{font:14px/1.4 monospace;margin:2em;max-width:72em}}\
         table{{border-collapse:collapse;margin:0.5em 0}}\
         th,td{{border:1px solid #999;padding:2px 8px;text-align:right}}\
         th:first-child,td:first-child{{text-align:left}}\
         pre{{background:#f4f4f4;padding:0.5em}}</style></head><body>\n{body}</body></html>\n",
        html_escape(title)
    )
}

/// Renders the full profiling report as a self-contained HTML document
/// (the `/report` endpoint body).
pub fn render_report_html(
    spans: &[SpanEvent],
    snap: &MetricsSnapshot,
    roof: Option<&Roofline>,
) -> String {
    md_to_html(&render_report_md(spans, snap, roof), "ahw run report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HistogramSnapshot, HISTOGRAM_BUCKETS};

    fn ev(name: &'static str, tid: u32, start: u64, dur: u64, depth: u16) -> SpanEvent {
        SpanEvent {
            name,
            label: None,
            tid,
            start_ns: start,
            dur_ns: dur,
            depth,
        }
    }

    #[test]
    fn tree_nests_by_containment_and_aggregates_counts() {
        // main: outer [0,100) with two inner [10,20) and [30,45);
        // worker 1: its own root inner [12,18).
        let spans = vec![
            ev("outer", 0, 0, 100, 1),
            ev("inner", 0, 10, 10, 2),
            ev("inner", 0, 30, 15, 2),
            ev("inner", 1, 12, 6, 1),
        ];
        let tree = span_tree(&spans);
        let outer = &tree.root.children["outer"];
        assert_eq!((outer.count, outer.incl_ns), (1, 100));
        let nested = &outer.children["inner"];
        assert_eq!((nested.count, nested.incl_ns), (2, 25));
        assert_eq!(outer.self_ns(), 75);
        // the worker's span is a separate root-level node
        let root_inner = &tree.root.children["inner"];
        assert_eq!((root_inner.count, root_inner.incl_ns), (1, 6));
        assert!(root_inner.children.is_empty());
    }

    #[test]
    fn tree_children_never_exceed_parents() {
        // Adversarial: zero-duration spans, identical starts, three deep.
        let spans = vec![
            ev("a", 0, 5, 50, 1),
            ev("b", 0, 5, 20, 2),
            ev("c", 0, 5, 0, 3),
            ev("c", 0, 26, 0, 2),
            ev("a", 0, 60, 10, 1),
        ];
        let tree = span_tree(&spans);
        fn walk(node: &SpanNode) {
            assert!(node.children_incl_ns() <= node.incl_ns.max(node.children_incl_ns()));
            assert!(node.incl_ns >= node.children_incl_ns() || node.count == 0);
            for child in node.children.values() {
                walk(child);
            }
        }
        let a = &tree.root.children["a"];
        assert_eq!(a.count, 2);
        assert_eq!(a.children["b"].children["c"].count, 1);
        assert_eq!(a.children["c"].count, 1);
        walk(&tree.root);
    }

    #[test]
    fn orphaned_child_attaches_at_root_not_to_a_stranger() {
        // A depth-2 span whose parent is absent and that does NOT fit
        // inside the earlier depth-1 span must not be adopted by it.
        let spans = vec![ev("early", 0, 0, 10, 1), ev("orphan", 0, 50, 5, 2)];
        let tree = span_tree(&spans);
        assert!(tree.root.children.contains_key("orphan"));
        assert!(tree.root.children["early"].children.is_empty());
    }

    #[test]
    fn serial_fraction_pins_amdahl_inversion() {
        // Perfect 4-way scaling: busy = 4 * wall -> s = 0.
        assert_eq!(serial_fraction(100, 400, 4), 0.0);
        // Fully serial: busy == wall on 4 workers -> s = 1.
        assert_eq!(serial_fraction(100, 100, 4), 1.0);
        // Halfway: S = 2 on 4 workers -> s = (4/2 - 1)/3 = 1/3.
        let s = serial_fraction(100, 200, 4);
        assert!((s - 1.0 / 3.0).abs() < 1e-12, "{s}");
        // Degenerate inputs are fully serial.
        assert_eq!(serial_fraction(100, 0, 4), 1.0);
        assert_eq!(serial_fraction(100, 400, 1), 1.0);
    }

    #[test]
    fn utilization_reads_worker_counters() {
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert("tensor.pool.worker0.busy_ns".to_string(), 80);
        snap.counters
            .insert("tensor.pool.worker2.busy_ns".to_string(), 40);
        snap.counters.insert("tensor.pool.jobs".to_string(), 3);
        let spans = vec![ev("w", 0, 0, 100, 1)];
        let u = utilization(&spans, &snap).expect("two workers recorded");
        assert_eq!(u.workers, vec![(0, 80), (2, 40)]);
        assert_eq!(u.total_busy_ns, 120);
        assert_eq!(u.wall_ns, 100);
        assert!((u.imbalance - 80.0 / 60.0).abs() < 1e-12);
        assert!(utilization(&[], &MetricsSnapshot::default()).is_none());
    }

    #[test]
    fn timeline_covers_participation_intervals() {
        let spans = vec![
            ev(POOL_PARTICIPATE_SPAN, 0, 0, 600, 1),
            ev(POOL_PARTICIPATE_SPAN, 1, 300, 300, 1),
            ev("other", 0, 0, 600, 1),
        ];
        let rows = utilization_timeline(&spans);
        assert_eq!(rows.len(), 2);
        let (tid0, row0) = &rows[0];
        let (tid1, row1) = &rows[1];
        assert_eq!((*tid0, *tid1), (0, 1));
        assert_eq!(row0.chars().count(), TIMELINE_BINS);
        // worker 0 busy the whole window; worker 1 only the second half
        assert!(row0.chars().all(|c| c == '@'));
        assert_eq!(row1.chars().next(), Some(' '));
        assert_eq!(row1.chars().last(), Some('@'));
    }

    #[test]
    fn roofline_scores_and_caps() {
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert("tensor.ops.gemm_flops".to_string(), 2_000_000_000);
        snap.counters
            .insert("tensor.ops.gemm_bytes".to_string(), 100_000_000);
        snap.counters
            .insert("tensor.ops.im2col_elems".to_string(), 1_000_000);
        let mut h = HistogramSnapshot {
            count: 1,
            sum: 1_000_000_000, // 1 s
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        h.buckets[HISTOGRAM_BUCKETS - 1] = 1;
        snap.histograms
            .insert("tensor.ops.matmul.dur_ns".to_string(), h.clone());
        h.sum = 500_000_000; // 0.5 s
        snap.histograms
            .insert("tensor.ops.im2col.dur_ns".to_string(), h);
        let roof = Roofline {
            peak_gflops: 4.0,
            stream_gbps: 1.0,
        };
        let scores = roofline_scores(&snap, Some(&roof));
        assert_eq!(scores.len(), 2);
        let gemm = &scores[0];
        assert_eq!(gemm.name, "gemm");
        assert!((gemm.intensity - 20.0).abs() < 1e-9);
        assert!((gemm.gflops - 2.0).abs() < 1e-9);
        // attainable = min(4, 20 * 1) = 4 GFLOP/s -> 50% of roof
        assert!((gemm.pct_of_roof.unwrap() - 0.5).abs() < 1e-9);
        let im2col = &scores[1];
        assert_eq!(im2col.bytes, 8_000_000);
        assert_eq!(im2col.flops, 0);
        // 8 MB in 0.5 s = 0.016 GB/s against a 1 GB/s roof
        assert!((im2col.pct_of_roof.unwrap() - 0.016).abs() < 1e-9);
        // no roof -> intensity still scored, pct absent
        let unroofed = roofline_scores(&snap, None);
        assert!(unroofed.iter().all(|s| s.pct_of_roof.is_none()));
        assert!((unroofed[0].intensity - 20.0).abs() < 1e-9);
    }

    #[test]
    fn report_contains_all_sections_and_is_deterministic() {
        let spans = vec![
            ev("tensor.ops.matmul", 0, 0, 1000, 1),
            ev(POOL_PARTICIPATE_SPAN, 1, 100, 500, 1),
        ];
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert("tensor.ops.gemm_flops".to_string(), 1000);
        snap.counters
            .insert("tensor.ops.gemm_bytes".to_string(), 500);
        snap.counters
            .insert("tensor.pool.worker1.busy_ns".to_string(), 500);
        let roof = Roofline {
            peak_gflops: 10.0,
            stream_gbps: 5.0,
        };
        let md = render_report_md(&spans, &snap, Some(&roof));
        for section in [
            "# ahw run report",
            "## Span tree",
            "self_ms",
            "## Workload counters",
            "## Worker utilization",
            "serial fraction (Amdahl)",
            "## Roofline",
            "| gemm |",
        ] {
            assert!(md.contains(section), "missing {section:?} in:\n{md}");
        }
        assert_eq!(md, render_report_md(&spans, &snap, Some(&roof)));
        let html = render_report_html(&spans, &snap, Some(&roof));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h2>Span tree</h2>"));
        assert!(html.contains("<table>"));
        assert!(html.ends_with("</body></html>\n"));
    }

    #[test]
    fn dropped_span_warning_appears() {
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert("telemetry.spans.dropped".to_string(), 7);
        let md = render_report_md(&[], &snap, None);
        assert!(md.contains("7 span(s) dropped"));
        let clean = render_report_md(&[], &MetricsSnapshot::default(), None);
        assert!(!clean.contains("dropped"));
    }

    #[test]
    fn roofline_registration_round_trips() {
        set_roofline(Some(Roofline {
            peak_gflops: 12.5,
            stream_gbps: 3.25,
        }));
        let r = roofline().expect("registered");
        assert_eq!(r.peak_gflops, 12.5);
        assert_eq!(r.stream_gbps, 3.25);
        set_roofline(None);
        assert!(roofline().is_none());
    }
}
