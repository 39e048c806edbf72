//! Bench tooling CLI.
//!
//! ```text
//! ahw_bench --compare [--file BENCH_kernels.json] [--threshold 0.10] [--report]
//! ahw_bench --scrape <host:port> <path>
//! ahw_bench --calibrate
//! ```
//!
//! `--compare` runs the bench-regression watchdog over the committed
//! history (see [`ahw_bench::compare`]): for every (workload, threads,
//! telemetry) key it compares the newest row against the best of its
//! baseline window and exits nonzero if any key regressed — unless
//! `--report` is given, which always exits zero (the mode
//! `scripts/bench.sh` uses right after appending fresh rows).
//! `scripts/verify.sh` runs the strict mode as an opt-in gate.
//!
//! `--scrape` GETs a path from the live telemetry endpoint with
//! [`ahw_bench::http_get`]: prints the response body to stdout and exits
//! zero only on a 200, so shell scripts can probe `/healthz` and
//! `/metrics` without curl.
//!
//! `--calibrate` measures the machine roof (peak compute GFLOP/s, stream
//! GB/s — see [`ahw_bench::calibration`]) and prints the
//! `"calibration/roofline"` JSON history line to stdout;
//! `scripts/bench.sh` appends it to `BENCH_kernels.json` so roofline
//! reports can score kernels against this machine.

use ahw_bench::compare::{compare, parse_rows, Verdict, DEFAULT_THRESHOLD};

fn usage() -> ! {
    eprintln!(
        "usage: ahw_bench --compare [--file BENCH_kernels.json] [--threshold 0.10] [--report]\n       ahw_bench --scrape <host:port> <path>\n       ahw_bench --calibrate"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if has("--scrape") {
        let addr = value("--scrape").unwrap_or_else(|| usage());
        let path = args
            .iter()
            .position(|a| a == "--scrape")
            .and_then(|i| args.get(i + 2))
            .cloned()
            .unwrap_or_else(|| "/healthz".to_string());
        std::process::exit(scrape(&addr, &path));
    }
    if has("--calibrate") {
        let cal = ahw_bench::calibration::calibrate();
        eprintln!(
            "calibration: peak {:.2} GFLOP/s compute, {:.2} GB/s stream (threads={})",
            cal.peak_gflops, cal.stream_gbps, cal.threads
        );
        println!("{}", cal.to_json());
        return;
    }
    if !has("--compare") {
        usage();
    }
    let file = value("--file").unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let threshold: f64 = value("--threshold")
        .map(|t| t.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(DEFAULT_THRESHOLD);
    let report_only = has("--report");

    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ahw_bench: cannot read {file}: {e}");
            std::process::exit(2);
        }
    };
    let rows = parse_rows(&text);
    let comparisons = compare(&rows, threshold);
    if comparisons.is_empty() {
        println!(
            "bench-compare: no key in {file} has two rows to compare ({} rows parsed)",
            rows.len()
        );
        return;
    }
    let mut regressed = 0usize;
    for c in &comparisons {
        println!("{c}");
        if c.verdict == Verdict::Regressed {
            regressed += 1;
        }
    }
    println!(
        "bench-compare: {} keys compared, {} regressed (threshold {:.0}%, {} rows from {file})",
        comparisons.len(),
        regressed,
        threshold * 100.0,
        rows.len()
    );
    if regressed > 0 && !report_only {
        std::process::exit(1);
    }
}

/// GETs `http://addr{path}` with [`ahw_bench::http_get`]; prints the body
/// to stdout and the status line to stderr. Exit code 0 iff the status is
/// 200.
fn scrape(addr: &str, path: &str) -> i32 {
    match ahw_bench::http_get(addr, path) {
        Ok((status_line, body)) => {
            eprintln!("{status_line}");
            print!("{body}");
            i32::from(status_line.split_whitespace().nth(1) != Some("200"))
        }
        Err(e) => {
            eprintln!("ahw_bench: {e}");
            1
        }
    }
}
