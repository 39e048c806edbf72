//! The speed judge: `ahw_bench --compare` reads one interleaved A/B session
//! of `scripts/ab.sh` and judges the working tree against the base tree,
//! pair by pair, for benchmark metrics and kernel rows alike. No number
//! from another session is read, so host drift lands on both sides.
//!
//! A session is JSON lines, one per run, each wrapping every JSON line the
//! run printed: `{"rev":…,"side":"base"|"work","pair":1,"output":[…]}`. A
//! benchmark run prints its context and result lines: every metric but
//! `host.*` is judged, and the context's `HOST_EVIDENCE` is printed. A
//! kernel run prints harness rows, whose `median_ns` is judged, and the
//! side's `calibration/roofline` row, whose roof is printed. A line that
//! does not read as a run is an error: a damaged session is never judged.
//!
//! Per metric: each side's median and quartiles (linear interpolation
//! between order statistics, `h = (n − 1)·q + 1`), the pairs the working
//! tree won (strictly lower; ties count for neither side) and a verdict,
//! every metric being lower-is-better — **gain** when won·10 ≥ 9·pairs and
//! base median − work median > base IQR; else **worse** when work − base >
//! bound·base; else **unresolved** when base IQR > bound·base; else
//! **same**. Benchmark metrics take their bound from `BENCHMARK.json`'s
//! `end_to_end` entries, kernel rows `KERNEL_BOUND` (10 %); a metric without a
//! bound or a positive base median gets none. Host evidence is printed as
//! each side's median and never judged. A benchmark run that is not golden
//! `match`, `correct: true` and `failed: 0`, or a kernel run without a
//! timing row, is invalid and fails the session.

use ahw_telemetry::json::{self, Value};
use std::fmt::Write as _;

/// A kernel row is `worse` when its working-tree median is slower than the
/// base median by more than this fraction of it.
const KERNEL_BOUND: f64 = 0.10;

/// Host evidence in a benchmark run's context line.
const HOST_EVIDENCE: [&str; 3] = ["host.fma_gflops", "host.stream_gbps", "host.steal_frac"];

/// One run of an A/B session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Run {
    /// The revision the run's tree was built from.
    pub rev: String,
    /// `true` for the working tree, `false` for the base.
    pub work: bool,
    /// The pair the run belongs to, from 1.
    pub pair: usize,
    /// Whether the output came from the kernel bench.
    pub kernel: bool,
    /// See the module docs.
    pub valid: bool,
    /// The judged values and the host evidence, in output order.
    pub metrics: Vec<(String, f64)>,
    pub evidence: Vec<(String, f64)>,
}

/// Reads a session: one [`Run`] per non-blank line.
///
/// # Errors
///
/// The line number and what is wrong with the line: not JSON, not a run, a
/// malformed output row, or a side and pair that already ran.
pub fn parse_session(text: &str) -> Result<Vec<Run>, String> {
    let mut runs: Vec<Run> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let run = match line.trim() {
            "" => continue,
            _ => parse_run(line).map_err(at)?,
        };
        let (side, pair) = (if run.work { "work" } else { "base" }, run.pair);
        if runs.iter().any(|r| (r.work, r.pair) == (run.work, pair)) {
            return Err(at(format!("a second {side} run of pair {pair}")));
        }
        runs.push(run);
    }
    Ok(runs)
}

fn text(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// `row[key]` as a finite number, written as one or as a string.
fn number(row: &Value, key: &str) -> Result<f64, String> {
    let v = row.get(key);
    let x = v.and_then(Value::as_f64);
    let x = x
        .or_else(|| v?.as_str()?.parse().ok())
        .filter(|x| x.is_finite());
    x.ok_or_else(|| format!("{key} is not a number"))
}

fn parse_run(line: &str) -> Result<Run, String> {
    let not_json = |e: json::Error| format!("not JSON ({} at byte {})", e.reason, e.offset);
    let v = json::parse(line).map_err(not_json)?;
    let work = match text(&v, "side").as_deref() {
        Some(side @ ("base" | "work")) => side == "work",
        _ => return Err("no side \"base\" or \"work\"".into()),
    };
    let pair = v.get("pair").and_then(Value::as_u64);
    let pair = pair.and_then(|p| u32::try_from(p).ok());
    let mut run = Run {
        rev: text(&v, "rev").ok_or("no rev")?,
        work,
        pair: pair.filter(|&p| p > 0).ok_or("no pair number from 1")? as usize,
        ..Run::default()
    };
    let (mut golden_match, mut correct, mut failed_none) = (false, false, false);
    let output = v.get("output").and_then(Value::as_array);
    for row in output.ok_or("no output array")? {
        if let Some(context) = row.get("context") {
            golden_match = text(context, "golden").ok_or("a context without golden")? == "match";
            for name in HOST_EVIDENCE {
                if context.get(name).is_some() {
                    run.evidence.push((name.into(), number(context, name)?));
                }
            }
        } else if let Some(metrics) = row.get("metrics") {
            correct = row.get("correct") == Some(&Value::Bool(true));
            failed_none = row.get("failed").and_then(Value::as_u64) == Some(0);
            for (name, m) in metrics.as_object().ok_or("metrics is not an object")? {
                if !name.starts_with("host.") {
                    let x = number(m, "value").map_err(|e| format!("{name}: {e}"))?;
                    run.metrics.push((name.clone(), x));
                }
            }
        } else {
            let name = text(row, "name").ok_or("an output row without a name")?;
            match name.as_str() {
                "telemetry/metrics" => {}
                "calibration/roofline" => {
                    for name in ["peak_gflops", "stream_gbps"] {
                        run.evidence.push((name.to_string(), number(row, name)?));
                    }
                }
                name => {
                    let ns = row.get("median_ns").and_then(Value::as_u64);
                    let ns = ns.ok_or_else(|| format!("{name} has no median_ns"))?;
                    run.kernel = true;
                    run.metrics.push((name.to_string(), ns as f64));
                }
            }
        }
    }
    run.valid = run.kernel || (golden_match && correct && failed_none);
    Ok(run)
}

/// `(name, bound)` of every `end_to_end` metric of a `BENCHMARK.json`.
///
/// # Errors
///
/// When the document does not parse or an entry lacks a name or a bound.
pub fn benchmark_bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("not JSON ({})", e.reason))?;
    let entries = doc.get("end_to_end").and_then(Value::as_array);
    let entry = |m: &Value| Some((text(m, "name")?, m.get("bound")?.as_f64()?));
    let bounds: Option<Vec<_>> = entries.unwrap_or_default().iter().map(entry).collect();
    bounds
        .filter(|b| !b.is_empty())
        .ok_or_else(|| "no end_to_end bounds".into())
}

/// The verdict on one metric by the rule in the module docs: `base` is the
/// base side's `[q1, median, q3]`, `work` the working tree's median.
fn verdict(won: usize, pairs: usize, base: [f64; 3], work: f64, bound: f64) -> &'static str {
    let iqr = base[2] - base[0];
    if won * 10 >= 9 * pairs && base[1] - work > iqr {
        "gain"
    } else if work - base[1] > bound * base[1] {
        "worse"
    } else if iqr > bound * base[1] {
        "unresolved"
    } else {
        "same"
    }
}

/// `[q1, median, q3]` of `values` (linear interpolation between order
/// statistics at the 1-based rank `h = (n − 1)·q + 1`), `None` when empty.
fn quartiles(mut values: Vec<f64>) -> Option<[f64; 3]> {
    values.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let h = (values.len() - 1) as f64 * q + 1.0;
        let lo = h as usize;
        let step = |v: &f64| (h - lo as f64) * (v - values[lo - 1]);
        values[lo - 1] + values.get(lo).map_or(0.0, step)
    };
    (!values.is_empty()).then(|| [at(0.25), at(0.5), at(0.75)])
}

/// `(name, run, value)` of every value the list `field` holds, in session
/// order, and the names in first-appearance order.
type Values<'a> = (Vec<(&'a str, &'a Run, f64)>, Vec<&'a str>);
fn values(runs: &[Run], field: fn(&Run) -> &Vec<(String, f64)>) -> Values<'_> {
    let all: Vec<_> = runs
        .iter()
        .flat_map(|r| field(r).iter().map(move |(n, x)| (n.as_str(), r, *x)))
        .collect();
    let mut names: Vec<&str> = Vec::new();
    for v in &all {
        if !names.contains(&v.0) {
            names.push(v.0);
        }
    }
    (all, names)
}

/// Each side's `[q1, median, q3]` of `name` among `values`.
fn sides(values: &[(&str, &Run, f64)], name: &str) -> [Option<[f64; 3]>; 2] {
    [false, true].map(|work| {
        let side = values.iter().filter(|v| v.0 == name && v.1.work == work);
        quartiles(side.map(|v| v.2).collect())
    })
}

/// Judges every metric of a session in first-appearance order, kernel rows
/// against `KERNEL_BOUND` and benchmark metrics against their entry in
/// `bounds`. Returns the report — per metric each side's quartiles and the
/// pairs won, the verdicts, each side's median host evidence, and a closing
/// line when a run was invalid — and the verdicts given.
pub fn judge(runs: &[Run], bounds: &[(String, f64)]) -> (String, Vec<&'static str>) {
    let pairs = runs.iter().map(|r| r.pair).max().unwrap_or(0);
    let rev = |work: bool| runs.iter().find(|r| r.work == work).map_or("?", |r| &r.rev);
    let cell = |q: Option<[f64; 3]>, i: usize, none: &str| {
        format!(" {:>12}", q.map_or(none.to_string(), |q| g6(q[i])))
    };
    let (metrics, names) = values(runs, |r| &r.metrics);
    let w = names.iter().map(|n| n.len()).fold(12, usize::max);
    let mut out = format!(
        "\nab: base {} vs working tree {}, {pairs} pairs\n",
        rev(false),
        rev(true)
    );
    let heads = [
        "base_p50", "base_q1", "base_q3", "work_p50", "work_q1", "work_q3",
    ];
    let heads: String = heads.iter().map(|h| format!(" {h:>12}")).collect();
    let _ = writeln!(out, "{:<w$}{heads} {:>8}", "metric", "work_won");
    let why = "(median change, base IQR and bound as % of the base median)";
    let mut lines = format!("\n{:<w$} {:<10} {why}\n", "metric", "verdict");
    let mut verdicts = Vec::new();
    for name in names {
        let of = || metrics.iter().filter(move |v| v.0 == name);
        let beats =
            |w: &&(&str, &Run, f64)| of().any(|b| !b.1.work && b.1.pair == w.1.pair && w.2 < b.2);
        let won = of().filter(|w| w.1.work).filter(beats).count();
        let kernel = of().any(|v| v.1.kernel).then_some(KERNEL_BOUND);
        let bound = kernel.or_else(|| bounds.iter().find(|b| b.0 == name).map(|b| b.1));
        let [b, wk] = sides(&metrics, name);
        let cells: String = [b, wk]
            .into_iter()
            .flat_map(|q| [1, 0, 2].map(|i| cell(q, i, "nan")))
            .collect();
        let _ = writeln!(out, "{name:<w$}{cells} {won:>5}/{pairs}");
        let _ = match (b, wk, bound) {
            (Some(b), Some(wk), Some(bound)) if b[1] > 0.0 => {
                let v = verdict(won, pairs, b, wk[1], bound);
                verdicts.push(v);
                let pct = |x: f64| 100.0 * x / b[1];
                let (change, iqr, bound) = (pct(wk[1] - b[1]), pct(b[2] - b[0]), 100.0 * bound);
                writeln!(lines, "{name:<w$} {v:<10} ({change:+.1}%, IQR {iqr:.1}%, bound {bound:.0}%, won {won}/{pairs})")
            }
            _ => writeln!(lines, "{name:<w$} {:<10} (no bound or base median)", "-"),
        };
    }
    let _ = write!(
        out,
        "{lines}\n{:<16} {:>12} {:>12}   (medians; not judged)\n",
        "host evidence", "base_p50", "work_p50"
    );
    let (evidence, names) = values(runs, |r| &r.evidence);
    for name in names {
        let [b, wk] = sides(&evidence, name);
        let _ = writeln!(out, "{name:<16}{}{}", cell(b, 1, "?"), cell(wk, 1, "?"));
    }
    let bad = runs.iter().filter(|r| !r.valid).count();
    if bad > 0 {
        let _ = writeln!(
            out,
            "ab: {bad} run(s) not golden match / correct / failed 0"
        );
    }
    (out, verdicts)
}

/// C's `%.6g`: six significant digits, trailing zeros dropped, the exponent
/// form below 1e-4 and from 1e6.
fn g6(x: f64) -> String {
    let sci = format!("{x:.5e}");
    let (mantissa, exp) = sci.split_once('e').unwrap_or((&sci, "0"));
    let exp: i32 = exp.parse().unwrap_or(0);
    let trim = |s: String| match s.contains('.') {
        true => s.trim_end_matches('0').trim_end_matches('.').to_string(),
        false => s,
    };
    if x == 0.0 || !x.is_finite() {
        format!("{x}")
    } else if (-4..6).contains(&exp) {
        trim(format!("{:.*}", (5 - exp) as usize, x))
    } else {
        let sign = if exp < 0 { '-' } else { '+' };
        format!("{}e{sign}{:02}", trim(mantissa.to_string()), exp.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A benchmark run's session line: golden status, metrics in seconds
    /// and the context's three host-evidence strings.
    fn bench_line(side: &str, pair: usize, golden: &str, metrics: &[(&str, f64)]) -> String {
        let rev = if side == "base" { "aaaaaaa" } else { "bbbbbbb" };
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"s\"}}"))
            .collect();
        let fma = if side == "base" {
            100 + pair
        } else {
            104 - pair
        };
        format!(
            "{{\"rev\":\"{rev}\",\"side\":\"{side}\",\"pair\":{pair},\"output\":[\
             {{\"context\": {{\"workload\": \"xbar_map\", \"golden\": \"{golden}\", \
             \"host.fma_gflops\": \"{fma}.0000\", \"host.stream_gbps\": \"20.5000\", \
             \"host.steal_frac\": \"0.0100\"}}}},\
             {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}, \
             \"host.cpu_util\": {{\"value\": 0.9, \"unit\": \"ratio\"}}}}}}]}}",
            metrics.join(", ")
        )
    }

    /// A session from per-metric `(name, base values, work values)` by
    /// pair; odd pairs run the base first. `golden` names each run's status.
    fn session<const N: usize>(
        table: &[(&str, [f64; N], [f64; N])],
        golden: impl Fn(&str, usize) -> &'static str,
    ) -> Vec<Run> {
        let mut lines = Vec::new();
        for pair in 1..=N {
            let order = if pair % 2 == 1 {
                ["base", "work"]
            } else {
                ["work", "base"]
            };
            for side in order {
                let metrics: Vec<(&str, f64)> = table
                    .iter()
                    .map(|(n, b, w)| {
                        (
                            *n,
                            if side == "base" {
                                b[pair - 1]
                            } else {
                                w[pair - 1]
                            },
                        )
                    })
                    .collect();
                lines.push(bench_line(side, pair, golden(side, pair), &metrics));
            }
        }
        parse_session(&lines.join("\n")).expect("a well-formed session")
    }

    fn bounds() -> Vec<(String, f64)> {
        benchmark_bounds(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json")
    }

    /// Four pairs, hand-computed: quartiles at ranks 1.75, 2.5 and 3.25.
    const EVEN: [(&str, [f64; 4], [f64; 4]); 5] = [
        ("setup_s", [10.0, 11.0, 12.0, 13.0], [8.0, 8.5, 9.0, 9.5]),
        ("run_s", [10.0; 4], [13.0; 4]),
        (
            "op_ms_p50",
            [10.0, 14.0, 6.0, 12.0],
            [10.0, 14.0, 6.0, 12.0],
        ),
        ("peak_rss_mb", [50.0; 4], [50.0, 49.0, 50.0, 51.0]),
        ("warm_s", [1.0, 2.0, 3.0, 4.0], [1.0; 4]),
    ];

    /// Three pairs, hand-computed: quartiles at ranks 1.5, 2 and 2.5.
    const ODD: [(&str, [f64; 3], [f64; 3]); 2] = [
        ("setup_s", [2.0, 2.25, 2.5], [1.0, 1.25, 2.75]),
        ("run_s", [4.0, 4.5, 5.0], [3.0, 3.25, 3.5]),
    ];

    #[test]
    fn every_verdict_on_an_even_pair_count() {
        let runs = session(&EVEN, |_, _| "match");
        assert!(runs.iter().all(|r| r.valid && !r.kernel));
        let (report, verdicts) = judge(&runs, &bounds());
        assert_eq!(verdicts, ["gain", "worse", "unresolved", "same"]);
        for line in [
            "ab: base aaaaaaa vs working tree bbbbbbb, 4 pairs",
            "setup_s              11.5        10.75        12.25         8.75        8.375        9.125     4/4",
            "run_s                  10           10           10           13           13           13     0/4",
            // all four pairs tie: no pair won
            "op_ms_p50              11            9         12.5           11            9         12.5     0/4",
            // two ties, one pair won, one lost
            "peak_rss_mb            50           50           50           50        49.75        50.25     1/4",
            "warm_s                2.5         1.75         3.25            1            1            1     3/4",
            "setup_s      gain       (-23.9%, IQR 13.0%, bound 25%, won 4/4)",
            "run_s        worse      (+30.0%, IQR 0.0%, bound 25%, won 0/4)",
            "op_ms_p50    unresolved (+0.0%, IQR 31.8%, bound 25%, won 0/4)",
            // the bound comes from BENCHMARK.json; warm_s has none
            "peak_rss_mb  same       (+0.0%, IQR 0.0%, bound 10%, won 1/4)",
            "warm_s       -          (no bound or base median)",
            "host.fma_gflops         102.5        101.5",
            "host.steal_frac          0.01         0.01",
        ] {
            assert!(report.lines().any(|l| l == line), "{line:?} not in\n{report}");
        }
        assert!(
            !report.contains("host.cpu_util"),
            "host metrics are not judged"
        );
        assert!(!report.contains("not golden match"));
    }

    #[test]
    fn odd_pair_count_needs_nine_wins_in_ten_and_flags_an_invalid_run() {
        let runs = session(&ODD, |side, pair| {
            if (side, pair) == ("base", 2) {
                "mismatch"
            } else {
                "match"
            }
        });
        assert_eq!(runs.iter().filter(|r| !r.valid).count(), 1);
        let (report, verdicts) = judge(&runs, &bounds());
        // 2 of 3 pairs won and a gap of four IQRs is still not a gain
        assert_eq!(verdicts, ["same", "gain"]);
        for line in [
            "setup_s              2.25        2.125        2.375         1.25        1.125            2     2/3",
            "setup_s      same       (-44.4%, IQR 11.1%, bound 25%, won 2/3)",
            "run_s        gain       (-27.8%, IQR 11.1%, bound 25%, won 3/3)",
        ] {
            assert!(report.lines().any(|l| l == line), "{line:?} not in\n{report}");
        }
        assert!(report.ends_with("ab: 1 run(s) not golden match / correct / failed 0\n"));
    }

    #[test]
    fn kernel_rows_are_judged_against_ten_percent_and_the_roof_is_evidence() {
        let line = |side: &str, pair: usize, ns: u64, peak: f64| {
            format!(
                "{{\"rev\":\"r\",\"side\":\"{side}\",\"pair\":{pair},\"output\":[\
                 {{\"name\":\"matmul/32\",\"samples\":5,\"iters\":9,\"median_ns\":{ns},\"min_ns\":1,\"max_ns\":1}},\
                 {{\"name\":\"calibration/roofline\",\"threads\":2,\"peak_gflops\":{peak},\"stream_gbps\":20.0}}]}}"
            )
        };
        let text = [
            line("base", 1, 1000, 150.0),
            line("work", 1, 1200, 140.0),
            line("work", 2, 1300, 144.0),
            line("base", 2, 1100, 152.0),
        ]
        .join("\n");
        let runs = parse_session(&text).unwrap();
        assert!(runs.iter().all(|r| r.kernel && r.valid));
        let (report, verdicts) = judge(&runs, &[]);
        assert_eq!(verdicts, ["worse"], "one timing; the roof is not one");
        assert!(
            report.contains("matmul/32    worse      (+19.0%, IQR 4.8%, bound 10%, won 0/2)"),
            "{report}"
        );
        assert!(
            report.contains("peak_gflops               151          142\n"),
            "{report}"
        );
    }

    #[test]
    fn damaged_or_ambiguous_sessions_are_errors() {
        let good = bench_line("base", 1, "match", &[("run_s", 1.5)]);
        assert_eq!(parse_session(&format!("\n{good}\n\n")).unwrap().len(), 1);
        let cut = &good[..good.len() - 1];
        assert!(parse_session(cut)
            .unwrap_err()
            .starts_with("line 1: not JSON"));
        let twice = format!("{good}\n{good}");
        assert_eq!(
            parse_session(&twice).unwrap_err(),
            "line 2: a second base run of pair 1"
        );
        for (from, to) in [
            ("\"side\":\"base\"", "\"side\":\"both\""),
            ("\"pair\":1", "\"pair\":0"),
            ("\"value\": 1.5", "\"value\": null"),
            ("\"golden\": \"match\"", "\"golden\": 1"),
        ] {
            assert!(parse_session(&good.replace(from, to)).is_err(), "{to}");
        }
        let no_median = r#"{"rev":"r","side":"work","pair":1,"output":[{"name":"matmul/32"}]}"#;
        assert!(parse_session(no_median).is_err());
        let empty = r#"{"rev":"r","side":"work","pair":1,"output":[]}"#;
        assert!(
            !parse_session(empty).unwrap()[0].valid,
            "a run that printed nothing"
        );
    }

    #[test]
    fn g6_matches_c_printf() {
        for (x, want) in [
            (0.0, "0"),
            (11.5, "11.5"),
            (8.375, "8.375"),
            (100_000.0, "100000"),
            (999_999.7, "1e+06"),
            (1_234_567.0, "1.23457e+06"),
            (24_851_234.0, "2.48512e+07"),
            (0.0001, "0.0001"),
            (0.000_012_3, "1.23e-05"),
            (-1234.5, "-1234.5"),
            (2.0 / 3.0, "0.666667"),
        ] {
            assert_eq!(g6(x), want, "{x}");
        }
    }
}
