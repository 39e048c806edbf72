//! Bench tooling CLI.
//!
//! ```text
//! ahw_bench --compare --file SESSION [--report]
//! ahw_bench --scrape <host:port> <path>
//! ahw_bench --calibrate
//! ```
//!
//! `--compare` is the speed judge ([`ahw_bench::compare`]): it reads one
//! interleaved A/B session that `scripts/ab.sh` wrote and prints, per
//! benchmark metric or kernel row, each side's median and quartiles, the
//! pairs the working tree won and the verdict, then each side's median host
//! evidence. Bounds for benchmark metrics come from `BENCHMARK.json` in the
//! current directory. It exits 1 when a run was invalid and, unless
//! `--report` is given, when a verdict is `worse`; 2 when the session or
//! the bounds cannot be read.
//!
//! `--scrape` GETs a path from the live telemetry endpoint with
//! [`ahw_bench::http_get`]: prints the response body to stdout and exits
//! zero only on a 200, so shell scripts can probe `/healthz` and
//! `/metrics` without curl.
//!
//! `--calibrate` measures the machine roof (peak compute GFLOP/s, stream
//! GB/s — see [`ahw_bench::calibration`]) and prints the
//! `"calibration/roofline"` JSON row to stdout; `scripts/ab.sh` runs it
//! after every kernel run, so each side of a session carries its roof.

use ahw_bench::compare;

fn usage() -> ! {
    eprintln!(
        "usage: ahw_bench --compare --file SESSION [--report]\n       ahw_bench --scrape <host:port> <path>\n       ahw_bench --calibrate"
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
    let file = value("--file").unwrap_or_else(|| usage());
    let runs = compare::parse_session(&read_or_exit(&file)).unwrap_or_else(|e| {
        eprintln!("ahw_bench: {file}: {e}");
        std::process::exit(2);
    });
    let bounds = if runs.iter().all(|r| r.kernel) {
        Vec::new()
    } else {
        compare::benchmark_bounds(&read_or_exit("BENCHMARK.json")).unwrap_or_else(|e| {
            eprintln!("ahw_bench: BENCHMARK.json: {e}");
            std::process::exit(2);
        })
    };
    let (report, verdicts) = compare::judge(&runs, &bounds);
    print!("{report}");
    let worse = verdicts.contains(&"worse");
    if runs.iter().any(|r| !r.valid) || (worse && !has("--report")) {
        std::process::exit(1);
    }
}

fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("ahw_bench: cannot read {path}: {e}");
        std::process::exit(2);
    })
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
