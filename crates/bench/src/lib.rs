//! # ahw-bench
//!
//! Regenerators for every table and figure in the paper's evaluation,
//! plus std-only benchmarks for the hardware kernels (see [`harness`]) and
//! the judge of interleaved A/B sessions of them (see [`compare`]).
//!
//! Each experiment lives in [`experiments`] as a parameterized function
//! returning structured rows; the `exp_*` binaries print them paper-style
//! and the `figures` bench exercises miniature versions. Scale
//! knobs (`--quick`, `--width`, …) are shared through [`Scale`] / [`Args`].
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_fig2` | Fig. 2 — μ(r, Vdd) sweep |
//! | `exp_table1` | Table I — VGG19 hybrid-memory configurations |
//! | `exp_table2` | Table II — ResNet18 hybrid-memory configurations |
//! | `exp_fig5` | Fig. 5 — AL vs ε with bit-error noise |
//! | `exp_fig6` | Fig. 6 — AL vs ε on crossbars (VGG8 / CIFAR-10) |
//! | `exp_table3` | Table III — HH-PGD ALs vs crossbar size |
//! | `exp_fig7` | Fig. 7 — AL vs ε on crossbars (VGG16 / CIFAR-100) |
//! | `exp_fig8a` | Fig. 8(a) — R_MIN study |
//! | `exp_fig8bc` | Fig. 8(b,c) — defense comparison |

pub mod calibration;
pub mod compare;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod table;

use ahw_core::zoo::{ArchId, ZooConfig};
use ahw_datasets::DatasetConfig;
use ahw_nn::train::TrainConfig;
use std::path::PathBuf;

/// Experiment sizing: the same experiments run at paper scale, quick scale
/// (CI-friendly), or tiny scale (benches / unit tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Channel-width multiplier for the networks (see `ahw_nn::archs`).
    pub width: f32,
    /// Training-set size.
    pub train_size: usize,
    /// Test-set size used for attack evaluation.
    pub test_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// PGD iteration count.
    pub pgd_steps: usize,
    /// Evaluation batch size.
    pub batch: usize,
}

impl Scale {
    /// The default experiment scale: the `exp_*` suite of
    /// `run_experiments.sh`, training included, took about 5.5 minutes wall
    /// from an empty model cache on a 2-vCPU host at `AHW_THREADS=2`. Pass
    /// `--full` for the larger networks if you have a many-core machine.
    pub fn standard() -> Self {
        Scale {
            width: 0.0625,
            train_size: 1200,
            test_size: 150,
            epochs: 5,
            pgd_steps: 5,
            batch: 50,
        }
    }

    /// Paper-leaning scale (`--full`): 1/8-width networks, larger splits,
    /// 7-step PGD. Minutes per figure with several cores.
    pub fn full() -> Self {
        Scale {
            width: 0.125,
            train_size: 2000,
            test_size: 250,
            epochs: 8,
            pgd_steps: 7,
            batch: 50,
        }
    }

    /// Reduced scale for smoke runs (`--quick`).
    pub fn quick() -> Self {
        Scale {
            width: 0.0625,
            train_size: 400,
            test_size: 80,
            epochs: 3,
            pgd_steps: 3,
            batch: 40,
        }
    }

    /// Miniature scale for benches and tests.
    pub fn tiny() -> Self {
        Scale {
            width: 0.0625,
            train_size: 64,
            test_size: 32,
            epochs: 1,
            pgd_steps: 2,
            batch: 16,
        }
    }

    /// The zoo configuration for an architecture/dataset at this scale.
    /// Many-class (CIFAR-100-like) runs get triple the training data and
    /// double the epochs — 100-way heads need more samples per class than
    /// the 10-way runs to leave chance level.
    pub fn zoo(&self, arch: ArchId, num_classes: usize) -> ZooConfig {
        let many = num_classes >= 100;
        let dataset = if many {
            DatasetConfig::cifar100_like()
        } else {
            DatasetConfig::cifar10_like()
        }
        .with_sizes(
            if many {
                self.train_size * 3
            } else {
                self.train_size
            },
            self.test_size.max(64),
        );
        let mut dataset = dataset;
        dataset.num_classes = num_classes;
        ZooConfig {
            arch,
            width: self.width,
            dataset,
            train: TrainConfig {
                epochs: if many { self.epochs * 2 } else { self.epochs },
                batch_size: 32,
                verbose: true,
                ..TrainConfig::default()
            },
            seed: 0xA0_0A ^ num_classes as u64,
        }
    }
}

/// Minimal `--key value` / `--flag` argument parser for the experiment
/// binaries (no CLI crate in the offline set).
#[derive(Debug, Clone, Default)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Parses a provided list (tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Whether `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == &format!("--{name}"))
    }

    /// The value following `--name`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// The scale selected by `--quick` / `--tiny` (default standard), with
    /// `--width`, `--test-size`, `--epochs`, `--pgd-steps` overrides.
    pub fn scale(&self) -> Scale {
        let mut s = if self.flag("tiny") {
            Scale::tiny()
        } else if self.flag("quick") {
            Scale::quick()
        } else if self.flag("full") {
            Scale::full()
        } else {
            Scale::standard()
        };
        if let Some(w) = self.get::<f32>("width") {
            s.width = w;
        }
        if let Some(n) = self.get::<usize>("test-size") {
            s.test_size = n;
        }
        if let Some(e) = self.get::<usize>("epochs") {
            s.epochs = e;
        }
        if let Some(p) = self.get::<usize>("pgd-steps") {
            s.pgd_steps = p;
        }
        s
    }
}

/// RAII guard owning an experiment's telemetry lifecycle: on creation it
/// starts the live metrics server when `AHW_METRICS_ADDR` is set (the
/// handle is held so the server keeps serving for the whole of `main`); on
/// drop it writes the run report (`AHW_REPORT`, or
/// `results/report_<bin>.md` whenever telemetry is enabled — see
/// [`report::report_path_from_env`]), scored against the roof
/// [`calibration::resolve_roofline`] finds at this process's pool width,
/// and then flushes the exporters — the `AHW_TRACE` trace-event file and
/// the `AHW_METRICS` stderr summary (all no-ops when telemetry is
/// disabled). The report renders from
/// [`ahw_telemetry::peek_spans`] *before* [`ahw_telemetry::finish`]
/// drains the span buffers. Experiment binaries hold one for the whole of
/// `main` so traces survive early returns.
#[must_use = "the flush happens when the guard drops"]
#[derive(Debug)]
pub struct TelemetryFlush {
    _server: Option<ahw_telemetry::MetricsServer>,
}

impl Drop for TelemetryFlush {
    fn drop(&mut self) {
        if let Some(path) = report::report_path_from_env() {
            let history = std::fs::read_to_string("BENCH_kernels.json").ok();
            let spans = ahw_telemetry::peek_spans();
            let snap = ahw_telemetry::snapshot();
            let threads = ahw_tensor::pool::num_threads();
            let roof = calibration::resolve_roofline(history.as_deref(), threads);
            let md = ahw_telemetry::render_report_md(&spans, &snap, roof.as_ref());
            match report::write_report_files(&path, &md) {
                Ok(_) => eprintln!("[report] wrote {} (+ .html)", path.display()),
                Err(e) => eprintln!("[report] failed to write {}: {e}", path.display()),
            }
        }
        ahw_telemetry::finish();
    }
}

/// Creates a [`TelemetryFlush`] guard (starting the `AHW_METRICS_ADDR`
/// server if configured); bind it at the top of `main`. Setting
/// `AHW_REPORT` to a path force-enables telemetry recording — a report
/// was asked for, so there must be something to report — and an
/// `AHW_ROOF_GFLOPS`/`AHW_ROOF_GBPS` override is registered here so the
/// live `/report` endpoint can score kernels without a calibration run.
pub fn telemetry_flush() -> TelemetryFlush {
    if std::env::var("AHW_REPORT").is_ok_and(|v| !v.is_empty() && v != "0") {
        ahw_telemetry::set_enabled(true);
    }
    if ahw_telemetry::roofline().is_none() {
        if let Some(roof) = calibration::roofline_from_env() {
            ahw_telemetry::set_roofline(Some(roof));
        }
    }
    TelemetryFlush {
        _server: ahw_telemetry::serve::start_from_env(),
    }
}

/// GETs `http://{addr}{path}` over a plain std `TcpStream`, returning the
/// response's status line and body whatever the status. This is the scrape
/// client of `ahw_bench --scrape` and `ahw_report --scrape`, so scripts can
/// probe the live telemetry endpoint without curl.
///
/// # Errors
///
/// A message naming the failed step: an unresolvable address, or a failed
/// connect (5 s timeout), write or read (10 s timeout).
pub fn http_get(addr: &str, path: &str) -> Result<(String, String), String> {
    use std::io::{Read, Write};
    use std::time::Duration;
    let sock = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| format!("bad address {addr}"))?;
    let mut stream = std::net::TcpStream::connect_timeout(&sock, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("write {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    Ok((
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    ))
}

/// The model-checkpoint cache directory: `$AHW_CACHE` or
/// `target/ahw-models`.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("AHW_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/ahw-models"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_get_returns_the_status_line_and_body() {
        let server = ahw_telemetry::serve::start("127.0.0.1:0").expect("bind 127.0.0.1:0");
        let addr = server.addr().to_string();
        let ok = http_get(&addr, "/healthz").unwrap();
        assert_eq!(ok, ("HTTP/1.1 200 OK".to_string(), "ok\n".to_string()));
        let (missing, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(missing, "HTTP/1.1 404 Not Found");
        assert!(http_get("no port", "/healthz").is_err());
    }

    #[test]
    fn args_parse_flags_and_values() {
        let a = Args::from_vec(vec![
            "--quick".into(),
            "--width".into(),
            "0.25".into(),
            "--test-size".into(),
            "64".into(),
        ]);
        assert!(a.flag("quick"));
        assert!(!a.flag("tiny"));
        let s = a.scale();
        assert_eq!(s.width, 0.25);
        assert_eq!(s.test_size, 64);
        assert_eq!(s.epochs, Scale::quick().epochs);
    }

    #[test]
    fn scale_zoo_sets_classes() {
        let z = Scale::tiny().zoo(ArchId::Vgg16, 100);
        assert_eq!(z.dataset.num_classes, 100);
        assert_eq!(z.arch, ArchId::Vgg16);
    }

    #[test]
    fn missing_value_is_none() {
        let a = Args::from_vec(vec!["--width".into()]);
        assert_eq!(a.get::<f32>("width"), None);
    }
}
