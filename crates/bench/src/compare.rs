//! Bench-regression watchdog: compares the committed `BENCH_kernels.json`
//! history against itself so the perf wins recorded across PRs (GEMM
//! microkernels, the sparse-event injector, the PGD arena path) never
//! silently regress.
//!
//! The history file is append-only JSON lines written by `scripts/bench.sh`
//! — one row per (rev, workload, thread count), plus metrics-snapshot rows
//! that this parser skips. Rows are grouped by **key** `(name, threads,
//! telemetry)`; within each key the newest row is compared against a
//! **baseline** drawn from the previous rows.
//!
//! ## Baseline: best of the last window
//!
//! The baseline is not simply the immediately previous row: a previous row
//! recorded while the host was contended would make any honest newer row
//! look like a huge *improvement*, and — worse — a previous row recorded on
//! an idle host followed by one contended recording used to flag clean
//! builds as regressions. Instead, the newest row is compared against the
//! **best** of the up-to-[`BASELINE_WINDOW`] preceding rows: the baseline
//! median is the smallest `median_ns` in that window (its row names
//! `prev_rev`), and the baseline best-sample is the smallest `min_ns` in
//! the window. Only being slower than the best of recent history counts.
//!
//! ## Regression rule
//!
//! A key **regresses** when *both* the median and the fastest sample got
//! slower than the noise threshold allows:
//!
//! ```text
//! latest.median_ns > baseline_median_ns * (1 + threshold)   and
//! latest.min_ns    > baseline_min_ns    * (1 + threshold)
//! ```
//!
//! The dual gate is what separates noise from regressions on a shared
//! machine: scheduler interference inflates the *median* of five samples
//! easily (the committed history contains a +15% median excursion on
//! `matmul/256` whose best sample moved < 2%), but it rarely inflates the
//! *best* sample, which only a real code change can slow down. A median
//! move beyond threshold with the best sample inside it is reported as
//! [`Verdict::Noisy`] instead of failing the gate.

use ahw_telemetry::json;
use std::fmt;

/// One parsed timing row from the bench history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// Git revision tag (`"rev"` field), empty when absent.
    pub rev: String,
    /// Worker count the row ran with.
    pub threads: u64,
    /// `"telemetry"` tag (`off`/`on`) when present — part of the key, so
    /// instrumented and uninstrumented runs never cross-compare.
    pub telemetry: Option<String>,
    /// Benchmark name (`"matmul/256"`, `"sram/inject_8x32x32x32"`, …).
    pub name: String,
    pub median_ns: u128,
    pub min_ns: u128,
    pub max_ns: u128,
}

impl BenchRow {
    /// The comparison key: workload + thread count + telemetry mode.
    pub fn key(&self) -> String {
        match &self.telemetry {
            Some(t) => format!("{} thr={} telemetry={t}", self.name, self.threads),
            None => format!("{} thr={}", self.name, self.threads),
        }
    }
}

/// How many preceding rows per key the baseline is drawn from: the newest
/// row is compared against the best (min-median / min-best-sample) of up
/// to this many history rows before it.
pub const BASELINE_WINDOW: usize = 4;

/// How a key's latest row compares to its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median and best sample both within the threshold.
    Ok,
    /// Median improved beyond the threshold.
    Improved,
    /// Median regressed beyond the threshold but the best sample did not —
    /// treated as sampling noise, reported but not failed.
    Noisy,
    /// Median *and* best sample regressed beyond the threshold.
    Regressed,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Noisy => "noisy",
            Verdict::Regressed => "REGRESSED",
        })
    }
}

/// One key's comparison between its newest row and the best of the
/// preceding [`BASELINE_WINDOW`] rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub key: String,
    /// Revision of the window row with the smallest median (the baseline).
    pub prev_rev: String,
    pub latest_rev: String,
    /// Smallest `median_ns` in the baseline window.
    pub prev_median_ns: u128,
    pub latest_median_ns: u128,
    /// `latest/baseline - 1` for the medians.
    pub median_delta: f64,
    /// `latest/baseline - 1` for the fastest samples (baseline is the
    /// window's smallest `min_ns`, possibly from a different row than the
    /// median baseline).
    pub min_delta: f64,
    pub verdict: Verdict,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<55} {:>12} -> {:>12}  median {:>+7.1}%  best {:>+7.1}%  [{}]",
            self.key,
            self.prev_median_ns,
            self.latest_median_ns,
            self.median_delta * 100.0,
            self.min_delta * 100.0,
            self.verdict
        )
    }
}

/// Parses the bench history: one [`BenchRow`] per well-formed timing line,
/// skipping metrics-snapshot rows (`"name":"telemetry/metrics"`) and
/// anything unparsable — the file is append-only across many revisions and
/// a damaged line must not take the watchdog down with it.
pub fn parse_rows(text: &str) -> Vec<BenchRow> {
    text.lines()
        .filter_map(|line| {
            let row = json::parse(line).ok()?;
            let text = |field: &str| Some(row.get(field)?.as_str()?.to_string());
            let ns = |field: &str| Some(u128::from(row.get(field)?.as_u64()?));
            let name = text("name")?;
            if name == "telemetry/metrics" {
                return None;
            }
            Some(BenchRow {
                rev: text("rev").unwrap_or_default(),
                threads: row.get("threads")?.as_u64()?,
                telemetry: text("telemetry"),
                name,
                median_ns: ns("median_ns")?,
                min_ns: ns("min_ns")?,
                max_ns: ns("max_ns")?,
            })
        })
        .collect()
}

fn delta(latest: u128, prev: u128) -> f64 {
    if prev == 0 {
        0.0
    } else {
        latest as f64 / prev as f64 - 1.0
    }
}

/// Compares the newest row of every key that has at least two rows against
/// the best of the up-to-[`BASELINE_WINDOW`] preceding rows, in
/// first-appearance order of the key. `threshold` is the relative noise
/// allowance (0.10 = 10%).
pub fn compare(rows: &[BenchRow], threshold: f64) -> Vec<Comparison> {
    let mut order: Vec<String> = Vec::new();
    let mut by_key: std::collections::HashMap<String, Vec<&BenchRow>> =
        std::collections::HashMap::new();
    for row in rows {
        let key = row.key();
        let entry = by_key.entry(key.clone()).or_default();
        if entry.is_empty() {
            order.push(key);
        }
        entry.push(row);
    }
    order
        .into_iter()
        .filter_map(|key| {
            let history = &by_key[&key];
            if history.len() < 2 {
                return None;
            }
            let latest = history[history.len() - 1];
            let window =
                &history[history.len().saturating_sub(BASELINE_WINDOW + 1)..history.len() - 1];
            let prev = window
                .iter()
                .min_by_key(|r| r.median_ns)
                .expect("window holds at least one row");
            let best_min_ns = window
                .iter()
                .map(|r| r.min_ns)
                .min()
                .expect("window holds at least one row");
            let median_delta = delta(latest.median_ns, prev.median_ns);
            let min_delta = delta(latest.min_ns, best_min_ns);
            let verdict = if median_delta > threshold && min_delta > threshold {
                Verdict::Regressed
            } else if median_delta > threshold {
                Verdict::Noisy
            } else if median_delta < -threshold {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            Some(Comparison {
                key,
                prev_rev: prev.rev.clone(),
                latest_rev: latest.rev.clone(),
                prev_median_ns: prev.median_ns,
                latest_median_ns: latest.median_ns,
                median_delta,
                min_delta,
                verdict,
            })
        })
        .collect()
}

/// Default noise threshold for the watchdog (10%).
pub const DEFAULT_THRESHOLD: f64 = 0.10;

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rev: &str, name: &str, threads: u64, median: u128, min: u128, max: u128) -> BenchRow {
        BenchRow {
            rev: rev.to_string(),
            threads,
            telemetry: None,
            name: name.to_string(),
            median_ns: median,
            min_ns: min,
            max_ns: max,
        }
    }

    #[test]
    fn parses_real_history_lines() {
        let text = concat!(
            "{\"rev\":\"99c898c\",\"threads\":1,\"name\":\"matmul/256\",\"samples\":5,\"iters\":22,\"median_ns\":647753,\"min_ns\":636064,\"max_ns\":677215}\n",
            "{\"rev\":\"e6e8e82\",\"threads\":4,\"telemetry\":\"on\",\"name\":\"matmul/256\",\"samples\":5,\"iters\":21,\"median_ns\":668908,\"min_ns\":641464,\"max_ns\":697051}\n",
            "{\"rev\":\"e6e8e82\",\"threads\":4,\"telemetry\":\"on\",\"name\":\"telemetry/metrics\",\"snapshot\":{\"counters\":{\"x\":1}}}\n",
            "not json at all\n",
            "{\"rev\":\"new0000\",\"threads\":1,\"name\":\"matmul/256\",\"samples\":5,\"iters\":22,\"median_ns\":650000,\"p75_ns\":651000,\"p95_ns\":652000,\"min_ns\":640000,\"max_ns\":660000}\n",
        );
        let rows = parse_rows(text);
        assert_eq!(rows.len(), 3, "snapshot + garbage lines must be skipped");
        assert_eq!(rows[0].key(), "matmul/256 thr=1");
        assert_eq!(rows[1].key(), "matmul/256 thr=4 telemetry=on");
        assert_eq!(rows[2].median_ns, 650_000);
    }

    #[test]
    fn injected_20_percent_median_regression_is_flagged() {
        let prev = row("aaaaaaa", "matmul/256", 1, 1_000_000, 950_000, 1_100_000);
        let mut bad = prev.clone();
        bad.rev = "bbbbbbb".to_string();
        bad.median_ns = prev.median_ns * 12 / 10;
        bad.min_ns = prev.min_ns * 12 / 10;
        bad.max_ns = prev.max_ns * 12 / 10;
        let cmp = compare(&[prev, bad], DEFAULT_THRESHOLD);
        assert_eq!(cmp.len(), 1);
        assert_eq!(cmp[0].verdict, Verdict::Regressed);
        assert!((cmp[0].median_delta - 0.2).abs() < 1e-9);
    }

    #[test]
    fn median_noise_with_stable_best_sample_is_not_a_regression() {
        // The committed-history shape: median +15% but the best sample
        // within 2% — scheduler noise, not a code regression.
        let prev = row("aaaaaaa", "matmul/256", 1, 647_753, 636_064, 677_215);
        let noisy = row("bbbbbbb", "matmul/256", 1, 745_582, 647_497, 887_573);
        let cmp = compare(&[prev, noisy], DEFAULT_THRESHOLD);
        assert_eq!(cmp[0].verdict, Verdict::Noisy);
    }

    #[test]
    fn improvements_and_stability_are_reported() {
        let a = row("aaaaaaa", "sram/inject", 1, 6_252_287, 5_765_896, 6_644_914);
        let b = row("bbbbbbb", "sram/inject", 1, 1_765_826, 1_741_128, 1_784_475);
        let c = row("ccccccc", "sram/inject", 1, 1_760_000, 1_740_000, 1_790_000);
        let cmp = compare(&[a, b.clone(), c], DEFAULT_THRESHOLD);
        assert_eq!(cmp.len(), 1, "one comparison per key");
        assert_eq!(cmp[0].verdict, Verdict::Ok, "latest two rows compare");
        let cmp2 = compare(
            &[
                row("z", "sram/inject", 1, 6_252_287, 5_765_896, 6_644_914),
                b,
            ],
            DEFAULT_THRESHOLD,
        );
        assert_eq!(cmp2[0].verdict, Verdict::Improved);
    }

    #[test]
    fn keys_keep_thread_counts_and_telemetry_modes_apart() {
        let mut on = row("aaaaaaa", "matmul/256", 4, 1_000, 900, 1_100);
        on.telemetry = Some("on".to_string());
        let plain = row("aaaaaaa", "matmul/256", 4, 1_000, 900, 1_100);
        let other_threads = row("aaaaaaa", "matmul/256", 1, 1_000, 900, 1_100);
        let cmp = compare(&[on, plain, other_threads], DEFAULT_THRESHOLD);
        assert!(cmp.is_empty(), "three distinct keys with one row each");
    }

    #[test]
    fn contended_previous_recording_does_not_flag_a_clean_build() {
        // The 3e4daad-style false positive: an idle-host row, then a row
        // recorded under heavy host contention (everything +40%), then a
        // clean newest row back at the idle-host level. Against the
        // immediately previous row the clean build would read as fine but
        // the *contended* row would have been the baseline for the next
        // run; against the best of the window the clean row is simply Ok.
        let idle = row("aaaaaaa", "matmul/256", 1, 1_000_000, 950_000, 1_050_000);
        let contended = row("bbbbbbb", "matmul/256", 1, 1_400_000, 1_330_000, 1_500_000);
        let clean = row("ccccccc", "matmul/256", 1, 1_020_000, 960_000, 1_080_000);
        let cmp = compare(&[idle, contended, clean], DEFAULT_THRESHOLD);
        assert_eq!(cmp.len(), 1);
        assert_eq!(
            cmp[0].verdict,
            Verdict::Ok,
            "clean build flagged against a contended recording"
        );
        assert_eq!(
            cmp[0].prev_rev, "aaaaaaa",
            "baseline must be the window's min-median row"
        );
        assert!((cmp[0].median_delta - 0.02).abs() < 1e-9);
    }

    #[test]
    fn baseline_window_is_bounded_to_the_last_four_rows() {
        // An ancient ultra-fast row outside the window must not keep
        // flagging every modern row as regressed forever.
        let ancient = row("0000000", "matmul/256", 1, 100_000, 95_000, 105_000);
        let mut rows = vec![ancient];
        for (i, rev) in ["aaaaaaa", "bbbbbbb", "ccccccc", "ddddddd"]
            .iter()
            .enumerate()
        {
            rows.push(row(
                rev,
                "matmul/256",
                1,
                1_000_000 + i as u128,
                950_000 + i as u128,
                1_050_000,
            ));
        }
        let latest = row("eeeeeee", "matmul/256", 1, 1_010_000, 955_000, 1_060_000);
        rows.push(latest);
        let cmp = compare(&rows, DEFAULT_THRESHOLD);
        assert_eq!(cmp.len(), 1);
        assert_eq!(
            cmp[0].verdict,
            Verdict::Ok,
            "a row older than the window leaked into the baseline"
        );
        assert_eq!(cmp[0].prev_median_ns, 1_000_000);
    }

    #[test]
    fn regression_against_the_whole_window_is_still_flagged() {
        // Slower than every row in the window on both gates -> Regressed,
        // exactly as with the old single-predecessor rule.
        let mut rows: Vec<BenchRow> = ["aaaaaaa", "bbbbbbb", "ccccccc"]
            .iter()
            .map(|rev| row(rev, "matmul/256", 1, 1_000_000, 950_000, 1_050_000))
            .collect();
        rows.push(row(
            "ddddddd",
            "matmul/256",
            1,
            1_300_000,
            1_250_000,
            1_400_000,
        ));
        let cmp = compare(&rows, DEFAULT_THRESHOLD);
        assert_eq!(cmp[0].verdict, Verdict::Regressed);
        assert!((cmp[0].median_delta - 0.3).abs() < 1e-9);
    }

    #[test]
    fn single_row_keys_are_skipped() {
        let rows = vec![row("aaaaaaa", "conv2d/forward", 1, 10, 9, 11)];
        assert!(compare(&rows, DEFAULT_THRESHOLD).is_empty());
    }
}
