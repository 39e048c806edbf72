//! Malformed input never panics and never reads as data.
//!
//! Every reader of outside JSON — the search journal, the A/B session the
//! speed judge reads, the bench history's roof calibration rows and the
//! offline run report's trace and snapshot parsers — goes through
//! `ahw_telemetry::json`. Fed truncated, bit-flipped, numerically hostile,
//! absurdly nested or duplicate-keyed documents, the parser must return
//! `Err` and each reader must skip the input, return `None` or, for a
//! session, return `Err`: a damaged session is never judged. The live
//! metrics server must answer any complete request head, valid UTF-8 or
//! not, with a real status. The checkpoint reader must return `Err`, never
//! panic or abort, on a truncated, bit-flipped or hostile-header bundle.
//!
//! Cases come from the in-repo `ahw_tensor::check` harness.

use ahw_bench::calibration::{parse_latest_calibration, Calibration};
use ahw_bench::compare::parse_session;
use ahw_bench::report::{parse_snapshot_json, parse_trace_json};
use ahw_core::journal::SearchJournal;
use ahw_telemetry::{json, MetricsSnapshot};
use ahw_tensor::check::{self, ensure};
use ahw_tensor::{io, ops, rng, Tensor, TensorError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

const FINGERPRINT: &str = "v1 arch=vgg8 malformed-input";

/// Calibration rows are read at this thread count, the one the numeric
/// templates substitute.
const THREADS: usize = 7;

/// One kernel run of an A/B session as `scripts/ab.sh` prints it: a harness
/// row and the side's calibration row.
const SESSION_LINE: &str = r#"{"rev":"ab04c49","side":"base","pair":1,"output":[{"name":"matmul/256","samples":5,"iters":22,"median_ns":650000,"p75_ns":651000,"p95_ns":652000,"min_ns":640000,"max_ns":660000},{"name":"calibration/roofline","threads":7,"peak_gflops":150.125,"stream_gbps":20.5}]}"#;

/// Real exports: a trace and a metrics snapshot of a small instrumented
/// GEMM, a journal record, an A/B session line and a calibration row.
fn documents() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        ahw_telemetry::set_enabled(true);
        ahw_telemetry::reset();
        {
            let _s = ahw_telemetry::span_labeled("test.malformed.outer", || {
                "eps=\"0.1\"\\n\t".to_string()
            });
            let a = rng::uniform(&[8, 8], -1.0, 1.0, &mut rng::seeded(1));
            let _ = ops::matmul(&a, &a).unwrap();
        }
        let trace = ahw_telemetry::trace_json(&ahw_telemetry::drain_spans());
        let snapshot = ahw_telemetry::snapshot_json();
        ahw_telemetry::set_enabled(false);
        let path = temp_path("jsonl");
        let _ = std::fs::remove_file(&path);
        SearchJournal::open(&path, FINGERPRINT)
            .unwrap()
            .record(
                "sweep site=3 six_t=5",
                ahw_attacks::AttackOutcome {
                    clean_accuracy: 0.1 + 0.2,
                    adversarial_accuracy: 1.0 / 3.0,
                },
            )
            .unwrap();
        let record = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .nth(1)
            .unwrap()
            .to_string();
        let _ = std::fs::remove_file(&path);
        let calibration = Calibration {
            peak_gflops: 12.5,
            stream_gbps: 6.25,
            threads: THREADS,
        }
        .to_json();
        vec![
            trace,
            snapshot,
            record,
            SESSION_LINE.to_string(),
            calibration,
        ]
    })
}

/// A fresh temporary path with extension `ext` per call, so parallel tests
/// never share a file.
fn temp_path(ext: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "ahw_malformed_{}_{}.{ext}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Candidates a journal resumes when `text` follows a matching header.
fn journal_resumes(text: &str) -> usize {
    let path = temp_path("jsonl");
    let header = format!("{{\"fingerprint\":{}}}\n", json::quote(FINGERPRINT));
    std::fs::write(&path, header + text).unwrap();
    let resumed = SearchJournal::open(&path, FINGERPRINT)
        .unwrap()
        .resumed_candidates();
    let _ = std::fs::remove_file(&path);
    resumed
}

/// The readers that extracted anything from `text`.
fn extracted(text: &str) -> Vec<&'static str> {
    let mut got = Vec::new();
    if !parse_trace_json(text).is_empty() {
        got.push("trace");
    }
    if parse_snapshot_json(text) != MetricsSnapshot::default() {
        got.push("snapshot");
    }
    if parse_session(text).is_ok_and(|runs| !runs.is_empty()) {
        got.push("session");
    }
    if parse_latest_calibration(text, THREADS).is_some() {
        got.push("calibration");
    }
    if journal_resumes(text) > 0 {
        got.push("journal");
    }
    got
}

#[test]
fn whole_documents_are_read() {
    let docs = documents();
    let expect = [
        vec!["trace"],
        vec!["snapshot"],
        vec!["journal"],
        vec!["session", "calibration"],
        vec!["calibration"],
    ];
    for (doc, want) in docs.iter().zip(expect) {
        assert!(json::parse(doc).is_ok(), "{doc}");
        assert_eq!(extracted(doc), want, "{doc}");
    }
}

#[test]
fn every_truncation_is_rejected() {
    for doc in documents() {
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            let prefix = &doc[..cut];
            assert!(json::parse(prefix).is_err(), "prefix parsed: {prefix:?}");
            assert_eq!(extracted(prefix), Vec::<&str>::new(), "{prefix:?}");
            assert!(cut == 0 || parse_session(prefix).is_err(), "{prefix:?}");
        }
    }
}

#[test]
fn flipped_bytes_never_panic_or_read_as_data_when_rejected() {
    let docs = documents();
    check::cases(256).run("flipped_bytes", |g| {
        let doc = docs[g.usize_in("doc", 0, docs.len())].as_bytes();
        let mut bytes = doc.to_vec();
        let at = g.usize_in("at", 0, bytes.len());
        bytes[at] = g.u8_in("byte", 0, 255);
        let text = String::from_utf8_lossy(&bytes);
        let got = extracted(&text);
        ensure(
            json::parse(&text).is_ok() || (got.is_empty() && parse_session(&text).is_err()),
            format!("rejected document read by {got:?}: {text:?}"),
        )
    });
}

/// One document per reader with a numeric field left open as `{N}`; the
/// field needs an exact integer (or a finite float, for the roof).
const NUMERIC_TEMPLATES: [&str; 6] = [
    r#"{"traceEvents":[{"ph":"X","name":"a.b","cat":"a","pid":1,"tid":{N},"ts":1.000,"dur":2.500,"args":{"depth":1}}],"displayTimeUnit":"ms"}"#,
    r#"{"counters":{"a.b":{N}},"gauges":{},"histograms":{}}"#,
    r#"{"key":"k","clean_bits":{N},"adv_bits":0,"clean":0,"adv":0}"#,
    r#"{"rev":"r","side":"work","pair":1,"output":[{"name":"matmul/32","median_ns":{N},"min_ns":1,"max_ns":1}]}"#,
    r#"{"name":"calibration/roofline","threads":{N},"peak_gflops":1.5,"stream_gbps":1.5}"#,
    r#"{"name":"calibration/roofline","threads":7,"peak_gflops":{N},"stream_gbps":1.5}"#,
];

#[test]
fn hostile_numbers_parse_but_never_read_as_data() {
    let forty_digits = "1234567890123456789012345678901234567890";
    for lit in ["1e999", "-1e999", "-0", forty_digits] {
        let v = json::parse(lit).expect("valid JSON number");
        assert_eq!(v, json::Value::Number(lit.to_string()), "literal kept");
        assert_eq!(v.as_u64(), None, "{lit}");
    }
    assert_eq!(json::parse("1e999").unwrap().as_f64(), None);
    for (i, template) in NUMERIC_TEMPLATES.iter().enumerate() {
        assert!(
            !extracted(&template.replace("{N}", "7")).is_empty(),
            "template {i} must be readable"
        );
        let hostile: &[&str] = if i == 5 {
            &["1e999", "-1e999", "-0", "0"]
        } else {
            &["1e999", "-0", forty_digits, "1.5", "-7"]
        };
        for lit in hostile {
            let doc = template.replace("{N}", lit);
            assert_eq!(extracted(&doc), Vec::<&str>::new(), "{doc}");
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let arrays = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let objects = format!("{}1{}", "{\"a\":".repeat(10_000), "}".repeat(10_000));
    for deep in [arrays, objects] {
        for doc in [deep.clone(), format!("{{\"traceEvents\":{deep}}}")] {
            assert!(json::parse(&doc).is_err());
            assert_eq!(extracted(&doc), Vec::<&str>::new());
        }
    }
}

#[test]
fn duplicate_keys_reject_the_whole_document() {
    let docs = [
        r#"{"traceEvents":[{"ph":"X","ph":"X","name":"a.b","cat":"a","pid":1,"tid":0,"ts":1.000,"dur":2.500}]}"#,
        r#"{"counters":{"a.b":1},"gauges":{},"histograms":{"h":{"count":0,"sum":0,"buckets":[]},"h":{"count":0,"sum":0,"buckets":[]}}}"#,
        r#"{"key":"k","clean_bits":1,"adv_bits":0,"key":"j"}"#,
        r#"{"rev":"r","side":"base","side":"work","pair":1,"output":[{"name":"matmul/32","median_ns":1}]}"#,
        r#"{"name":"calibration/roofline","threads":7,"peak_gflops":1.5,"stream_gbps":1.5,"peak_gflops":2.5}"#,
    ];
    for doc in docs {
        assert!(json::parse(doc).is_err(), "{doc}");
        assert_eq!(extracted(doc), Vec::<&str>::new(), "{doc}");
    }
}

#[test]
fn random_request_heads_get_a_real_status() {
    let server = ahw_telemetry::serve::start("127.0.0.1:0").expect("bind 127.0.0.1:0");
    let addr = server.addr();
    check::cases(64).run("random_request_heads", |g| {
        let methods: [&[u8]; 5] = [b"GET", b"HEAD", b"POST", b"", b"G\xffT"];
        let paths: [&[u8]; 5] = [b"/healthz", b"/metrics", b"/nope", b"/\xc3\x28", b""];
        let mut head = methods[g.usize_in("method", 0, methods.len())].to_vec();
        head.push(b' ');
        head.extend_from_slice(paths[g.usize_in("path", 0, paths.len())]);
        head.extend_from_slice(b" HTTP/1.1");
        // random header lines: any bytes but CR/LF, so the only blank
        // line is the terminating one
        for _ in 0..g.usize_in("headers", 0, 4) {
            head.extend_from_slice(b"\r\nX-Fuzz: ");
            for _ in 0..g.usize_in("header_len", 0, 200) {
                let b = g.u8_in("byte", 0, 255);
                head.push(if b == b'\r' || b == b'\n' { b'~' } else { b });
            }
        }
        head.extend_from_slice(b"\r\n\r\n");
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        stream.write_all(&head).map_err(|e| e.to_string())?;
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).map_err(|e| e.to_string())?;
        let status = reply.get(9..12).unwrap_or_default();
        ensure(
            reply.starts_with(b"HTTP/1.1 ") && [&b"200"[..], b"404", b"405"].contains(&status),
            format!(
                "reply to {:?}: {:?}",
                String::from_utf8_lossy(&head),
                String::from_utf8_lossy(&reply[..reply.len().min(64)])
            ),
        )
    });
}

/// Loads `bytes` as a checkpoint file: its entry count, or the error.
fn load_bundle_bytes(bytes: &[u8]) -> Result<usize, TensorError> {
    let path = temp_path("ahwb");
    std::fs::write(&path, bytes).unwrap();
    let loaded = io::load_bundle(&path).map(|entries| entries.len());
    let _ = std::fs::remove_file(&path);
    loaded
}

/// The bytes of a saved three-entry checkpoint bundle: a matrix, a vector
/// and a scalar.
fn bundle_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut r = rng::seeded(3);
        let entries = vec![
            (
                "conv.weight".to_string(),
                rng::uniform(&[2, 3], -1.0, 1.0, &mut r),
            ),
            (
                "conv.bias".to_string(),
                rng::uniform(&[2], -1.0, 1.0, &mut r),
            ),
            ("step".to_string(), Tensor::full(&[], 7.0)),
        ];
        let path = temp_path("ahwb");
        io::save_bundle(&path, &entries).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_bundle_bytes(&bytes), Ok(entries.len()));
        bytes
    })
}

#[test]
fn every_bundle_truncation_is_an_error() {
    let bytes = bundle_bytes();
    for cut in 0..bytes.len() {
        assert!(
            load_bundle_bytes(&bytes[..cut]).is_err(),
            "{cut}-byte prefix of a {}-byte bundle loaded",
            bytes.len()
        );
    }
}

#[test]
fn flipped_bundle_bytes_never_panic_or_abort() {
    let bytes = bundle_bytes();
    check::cases(256).run("flipped_bundle_bytes", |g| {
        let mut flipped = bytes.to_vec();
        let at = g.usize_in("at", 0, flipped.len());
        flipped[at] = g.u8_in("byte", 0, 255);
        // Ok or Err are both fine (a flipped data byte is still a tensor);
        // a panic fails the case and an abort kills the binary
        let _ = load_bundle_bytes(&flipped);
        Ok(())
    });
}

#[test]
fn hostile_bundle_headers_are_io_errors() {
    // a bundle header announcing u32::MAX entries, and nothing after it
    let mut huge_count = b"AHWB".to_vec();
    huge_count.extend_from_slice(&1u32.to_le_bytes());
    huge_count.extend_from_slice(&u32::MAX.to_le_bytes());
    // one entry whose tensor header (rank 1, 2³² − 1 elements) passes the
    // volume check, followed by only two elements of data
    let mut huge_tensor = b"AHWB".to_vec();
    for word in [1u32, 1, 1] {
        huge_tensor.extend_from_slice(&word.to_le_bytes());
    }
    huge_tensor.push(b'w');
    let tensor_at = huge_tensor.len();
    huge_tensor.extend_from_slice(&1u32.to_le_bytes());
    huge_tensor.extend_from_slice(&u64::from(u32::MAX).to_le_bytes());
    huge_tensor.extend_from_slice(&[0u8; 8]);
    for (what, bytes) in [
        ("entry count", &huge_count),
        ("tensor volume", &huge_tensor),
    ] {
        assert!(
            matches!(load_bundle_bytes(bytes), Err(TensorError::Io(_))),
            "hostile {what}"
        );
    }
    let mut tensor = &huge_tensor[tensor_at..];
    assert_eq!(tensor.len(), 20);
    assert!(matches!(
        io::read_tensor(&mut tensor),
        Err(TensorError::Io(_))
    ));
}
