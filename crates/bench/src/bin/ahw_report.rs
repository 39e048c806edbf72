//! Run-report generator.
//!
//! ```text
//! ahw_report --trace trace.json [--bench BENCH_kernels.json] [--out report.md]
//! ```
//!
//! Re-renders the run report from the one file a run wrote to `AHW_TRACE`:
//! its trace events give the span tree and worker timeline, and its
//! `"metrics"` key the counters and histograms (p95 column, roofline
//! scoring, dropped-span warning). The roofline roof comes from
//! `AHW_ROOF_GFLOPS`/`AHW_ROOF_GBPS` or the newest FMA-chain
//! `calibration/roofline` row in the `--bench` history at the recorded
//! run's pool width (the pool threads its snapshot shows busy, 1 when
//! none); with neither, the report says the roof is not calibrated. Scored
//! against the roof the run used, the Markdown is the report the run wrote
//! at exit, byte for byte.
//!
//! Without `--out` the Markdown goes to stdout; with it, the file is
//! written along with a rendered `.html` sibling. A trace or history that
//! cannot be read, or a trace that is not a whole trace document, exits 2.

use ahw_bench::{calibration, report};

fn usage() -> ! {
    eprintln!(
        "usage: ahw_report --trace trace.json [--bench BENCH_kernels.json] [--out report.md]"
    );
    std::process::exit(2);
}

fn main() {
    let args = ahw_bench::Args::from_env();
    let value = |flag: &str| args.get::<String>(flag);
    let trace = value("trace").unwrap_or_else(|| usage());
    let (spans, snap) = report::parse_trace(&read_or_die(&trace)).unwrap_or_else(|e| {
        eprintln!("ahw_report: {trace}: {e}");
        std::process::exit(2);
    });
    let history = value("bench").map(|path| read_or_die(&path));
    let threads = calibration::snapshot_threads(&snap);
    let roof = calibration::resolve_roofline(history.as_deref(), threads);
    let md = ahw_telemetry::render_report_md(&spans, &snap, roof.as_ref());

    match value("out") {
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
