//! Run-report generator.
//!
//! ```text
//! ahw_report --scrape <host:port> [--out report.md]
//! ahw_report [--trace trace.json] [--snapshot snapshot.json]
//!            [--bench BENCH_kernels.json] [--out report.md]
//! ```
//!
//! `--scrape` fetches the live report from a running process's metrics
//! server (`AHW_METRICS_ADDR`) at `/report.md` — the only way to see a
//! profile of a process that is still mid-run.
//!
//! The offline mode re-renders the report from a previous run's exports:
//! the `AHW_TRACE` trace-event file (span tree, worker timeline) and/or a
//! saved `/snapshot.json` (counters, histograms, roofline scoring). The
//! roofline roof comes from `AHW_ROOF_GFLOPS`/`AHW_ROOF_GBPS` or the
//! newest FMA-chain `calibration/roofline` row in the `--bench` history
//! at the recorded run's pool width (the pool threads its snapshot shows
//! busy, 1 when none); with neither, the report says the roof is not
//! calibrated.
//!
//! Without `--out` the Markdown goes to stdout; with it, the file is
//! written along with a rendered `.html` sibling.

use ahw_bench::{calibration, report};

fn usage() -> ! {
    eprintln!(
        "usage: ahw_report --scrape <host:port> [--out report.md]\n       ahw_report [--trace trace.json] [--snapshot snapshot.json] [--bench BENCH_kernels.json] [--out report.md]"
    );
    std::process::exit(2);
}

fn main() {
    let args = ahw_bench::Args::from_env();
    let value = |flag: &str| args.get::<String>(flag);
    let out = value("out");

    let md = if let Some(addr) = value("scrape") {
        match ahw_bench::http_get(&addr, "/report.md") {
            Ok((status, body)) if status.split_whitespace().nth(1) == Some("200") => body,
            Ok((status, _)) => {
                eprintln!("ahw_report: scrape: {addr}/report.md answered {status:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("ahw_report: scrape: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let trace = value("trace");
        let snapshot = value("snapshot");
        let bench = value("bench");
        if trace.is_none() && snapshot.is_none() && bench.is_none() {
            usage();
        }
        let spans = match &trace {
            Some(path) => report::parse_trace_json(&read_or_die(path)),
            None => Vec::new(),
        };
        let snap = match &snapshot {
            Some(path) => report::parse_snapshot_json(&read_or_die(path)),
            None => ahw_telemetry::MetricsSnapshot::default(),
        };
        let history = bench.map(|path| read_or_die(&path));
        let threads = calibration::snapshot_threads(&snap);
        let roof = calibration::resolve_roofline(history.as_deref(), threads);
        ahw_telemetry::render_report_md(&spans, &snap, roof.as_ref())
    };

    match out {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            match report::write_report_files(&path, &md) {
                Ok(html) => eprintln!(
                    "ahw_report: wrote {} and {}",
                    path.display(),
                    html.display()
                ),
                Err(e) => {
                    eprintln!("ahw_report: write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        None => print!("{md}"),
    }
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("ahw_report: cannot read {path}: {e}");
        std::process::exit(2);
    })
}
