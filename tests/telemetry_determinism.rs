//! Telemetry is a pure observer: enabling spans + metrics (what
//! `AHW_TRACE`/`AHW_METRICS` turn on) must not change a single bit of the
//! attack-sweep results at any worker count, and the workload counters it
//! reports (gradient queries, SRAM bit-flips) must themselves be invariant
//! in the thread count for a fixed seed.
//!
//! Lives in its own integration-test binary because it flips process-global
//! state (the telemetry enable flag, metric values, and the pool thread
//! override); the local lock serializes the tests inside this process.

use adversarial_hw::prelude::*;
use ahw_attacks::{sweep_epsilons, Attack, AttackOutcome};
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_sram::{HybridMemoryConfig, HybridWordConfig};
use ahw_tensor::{pool, rng, Tensor};
use std::sync::Mutex;

const SEED: u64 = 0x7E1E;

/// Serializes tests that pin process-global telemetry / thread state.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn model(seed: u64) -> Sequential {
    let mut r = rng::seeded(seed);
    let mut m = Sequential::new();
    m.push(ahw_nn::layers::Conv2d::new(1, 4, 3, 1, 1, &mut r).unwrap());
    m.push(ahw_nn::layers::ReLU::new());
    m.push(ahw_nn::layers::Flatten::new());
    m.push(ahw_nn::layers::Linear::new(4 * 8 * 8, 3, &mut r).unwrap());
    m
}

fn noisy_images(seed: u64) -> Tensor {
    let clean = rng::uniform(&[24, 1, 8, 8], 0.0, 1.0, &mut rng::seeded(seed));
    let cfg = HybridMemoryConfig::new(HybridWordConfig::new(4, 4).unwrap(), 0.60).unwrap();
    let injector = BitErrorInjector::new(cfg, &BitErrorModel::srinivasan22nm(), seed ^ 0x52A);
    injector.corrupt(&clean)
}

/// The full pipeline at a given worker count: train a small conv net on
/// SRAM-corrupted inputs, then sweep a PGD attack over ε.
fn pipeline(threads: usize) -> Vec<(f32, AttackOutcome)> {
    pool::set_thread_override(Some(threads));
    let mut m = model(SEED);
    let images = noisy_images(SEED);
    let labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 1,
        lr: 0.05,
        batch_size: 8,
        ..TrainConfig::default()
    });
    trainer
        .fit(&mut m, &images, &labels, &mut rng::seeded(SEED ^ 0xF16))
        .unwrap();
    let out = sweep_epsilons(
        &m,
        &m,
        &images,
        &labels,
        Attack::pgd(0.08),
        &[0.04, 0.08],
        6,
    )
    .unwrap();
    pool::set_thread_override(None);
    out
}

fn assert_bits_equal(a: &[(f32, AttackOutcome)], b: &[(f32, AttackOutcome)], what: &str) {
    assert_eq!(a.len(), b.len());
    for ((e1, o1), (e2, o2)) in a.iter().zip(b) {
        assert_eq!(e1.to_bits(), e2.to_bits());
        assert_eq!(
            o1.clean_accuracy.to_bits(),
            o2.clean_accuracy.to_bits(),
            "clean accuracy bits differ: {what} (eps {e1})"
        );
        assert_eq!(
            o1.adversarial_accuracy.to_bits(),
            o2.adversarial_accuracy.to_bits(),
            "robust accuracy bits differ: {what} (eps {e1})"
        );
    }
}

/// The satellite requirement: telemetry on (spans + metrics recording, as
/// under `AHW_TRACE` + `AHW_METRICS`) vs off changes nothing, at 1 and 4
/// workers — and the determinism holds across the full {1, 2, 4, 7} set.
#[test]
fn telemetry_on_off_does_not_change_robust_accuracy_bits() {
    let _g = lock();
    ahw_telemetry::set_enabled(false);
    let reference = pipeline(1);
    for &threads in &[1usize, 2, 4, 7] {
        ahw_telemetry::set_enabled(false);
        let off = pipeline(threads);
        ahw_telemetry::set_enabled(true);
        ahw_telemetry::reset();
        let on = pipeline(threads);
        ahw_telemetry::set_enabled(false);
        assert_bits_equal(
            &off,
            &on,
            &format!("telemetry on vs off at {threads} threads"),
        );
        assert_bits_equal(&reference, &on, &format!("{threads} threads vs 1 thread"));
    }
    let _ = ahw_telemetry::drain_spans();
}

/// Workload counters — gradient queries spent by the attacks and bit-flips
/// injected by the SRAM model — are functions of (seed, workload), never of
/// the worker count.
#[test]
fn workload_counters_are_invariant_in_thread_count() {
    let _g = lock();
    let mut per_thread: Vec<(usize, u64, u64, u64, u64)> = Vec::new();
    for &threads in &[1usize, 2, 4, 7] {
        ahw_telemetry::set_enabled(true);
        ahw_telemetry::reset();
        let _ = pipeline(threads);
        let snap = ahw_telemetry::snapshot();
        ahw_telemetry::set_enabled(false);
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        per_thread.push((
            threads,
            get("attacks.methods.gradient_queries"),
            get("sram.injector.bit_flips"),
            get("sram.injector.words_stored"),
            get("tensor.ops.gemm_flops"),
        ));
    }
    let (_, q0, f0, w0, g0) = per_thread[0];
    assert!(q0 > 0, "no gradient queries recorded");
    assert!(f0 > 0, "no bit flips recorded");
    assert!(g0 > 0, "no GEMM work recorded");
    for &(threads, q, f, w, g) in &per_thread[1..] {
        assert_eq!(q, q0, "gradient queries differ at {threads} threads");
        assert_eq!(f, f0, "bit flips differ at {threads} threads");
        assert_eq!(w, w0, "words stored differ at {threads} threads");
        assert_eq!(g, g0, "GEMM flops differ at {threads} threads");
    }
    let _ = ahw_telemetry::drain_spans();
}

/// The acceptance-criterion trace: one pipeline run produces a trace-event
/// file that chrome://tracing / Perfetto can load (well-formed JSON shape)
/// with spans from at least four crates — tensor, nn, attacks, and a
/// hardware substrate (sram).
#[test]
fn trace_export_covers_four_crates() {
    let _g = lock();
    ahw_telemetry::set_enabled(true);
    ahw_telemetry::reset();
    let _ = pipeline(2);
    let spans = ahw_telemetry::drain_spans();
    ahw_telemetry::set_enabled(false);
    let crates: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter_map(|s| s.name.split('.').next())
        .collect();
    for required in ["tensor", "nn", "attacks", "sram"] {
        assert!(
            crates.contains(required),
            "no spans from crate {required:?}; saw {crates:?}"
        );
    }
    let json = ahw_telemetry::trace_json(&spans, &ahw_telemetry::snapshot());
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("],\"displayTimeUnit\":\"ms\",\"metrics\":{\"counters\":{"));
    assert!(
        ahw_telemetry::json::parse(&json).is_ok(),
        "trace is not JSON"
    );
    let path = std::env::temp_dir().join("ahw_telemetry_test_trace.json");
    std::fs::write(&path, &json).unwrap();
    let read_back = std::fs::read_to_string(&path).unwrap();
    assert_eq!(read_back, json);
    let _ = std::fs::remove_file(&path);
}

/// Two identical runs produce identical span *sequences* (names, threads,
/// nesting) — the deterministic-flush guarantee. Wall-clock timings differ;
/// the structure must not.
#[test]
fn span_structure_is_reproducible_serially() {
    let _g = lock();
    let collect = || {
        ahw_telemetry::set_enabled(true);
        ahw_telemetry::reset();
        let _ = pipeline(1);
        let spans = ahw_telemetry::drain_spans();
        ahw_telemetry::set_enabled(false);
        spans
            .iter()
            .map(|s| (s.name, s.tid, s.depth, s.label.clone()))
            .collect::<Vec<_>>()
    };
    let a = collect();
    let b = collect();
    assert!(!a.is_empty());
    assert_eq!(a, b, "span structure differs between identical serial runs");
}
