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
//! newest `calibration/roofline` row in the `--bench` history; when a
//! history is given the report also appends the bench trend.
//!
//! Without `--out` the Markdown goes to stdout; with it, the file is
//! written along with a rendered `.html` sibling.

use ahw_bench::{calibration, report};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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
        match http_get_body(&addr, "/report.md") {
            Ok(body) => body,
            Err(e) => {
                eprintln!("ahw_report: scrape {addr}: {e}");
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
        let roof = calibration::resolve_roofline(history.as_deref());
        report::render_run_report_md(&spans, &snap, roof.as_ref(), history.as_deref())
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

/// GETs `http://addr{path}`, returning the body; errors on any non-200.
fn http_get_body(addr: &str, path: &str) -> Result<String, String> {
    let sock = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| format!("bad address {addr}"))?;
    let mut stream = TcpStream::connect_timeout(&sock, Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = match response.find("\r\n\r\n") {
        Some(i) => (&response[..i], &response[i + 4..]),
        None => (response.as_str(), ""),
    };
    let status_line = head.lines().next().unwrap_or("");
    if status_line.split_whitespace().nth(1) == Some("200") {
        Ok(body.to_string())
    } else {
        Err(format!("{path} answered {status_line:?}"))
    }
}
