//! Exporter-output stability: for a fixed workload, the JSON metrics
//! snapshot rendered from the thread-count-invariant metrics must be
//! *byte-identical* across `AHW_THREADS ∈ {1, 2, 4, 7}`. Timing-valued
//! metrics (`*_ns` durations, pool busy counters, workspace residency)
//! legitimately vary run to run and are filtered out; everything that
//! describes the *work done* (flips, flops, draws, words) must not move by
//! a byte.
//!
//! Lives in its own integration-test binary because it flips process-global
//! state (telemetry enable flag, metric values, pool thread override).

use adversarial_hw::prelude::*;
use ahw_telemetry::export::metrics_snapshot_json;
use ahw_telemetry::MetricsSnapshot;
use ahw_tensor::{ops, pool, rng};
use std::sync::Mutex;

/// Serializes tests that pin process-global telemetry / thread state.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The fixed workload: a GEMM (spans + FLOP/byte counters) and a hybrid
/// 8T-6T bit-error injection (sparse-event counters), both routed through
/// the worker pool at whatever thread count is pinned.
fn workload() {
    let a = rng::uniform(&[48, 48], -1.0, 1.0, &mut rng::seeded(11));
    let b = rng::uniform(&[48, 48], -1.0, 1.0, &mut rng::seeded(12));
    let _ = ops::matmul(&a, &b).unwrap();
    let x = rng::uniform(&[8, 16, 16], 0.0, 1.0, &mut rng::seeded(13));
    let cfg = HybridMemoryConfig::new(HybridWordConfig::new(4, 4).unwrap(), 0.60).unwrap();
    let injector = BitErrorInjector::new(cfg, &BitErrorModel::srinivasan22nm(), 0x5EED);
    let _ = injector.corrupt(&x);
}

/// Keeps only the metrics whose values are functions of (seed, workload) —
/// never of the thread count or the wall clock.
fn invariant_subset(snap: &MetricsSnapshot) -> MetricsSnapshot {
    let keep = |name: &str| {
        (name.starts_with("sram.") || name.starts_with("tensor.ops."))
            && !name.ends_with("_ns")
            && !name.ends_with(".dur_ns")
    };
    MetricsSnapshot {
        counters: snap
            .counters
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        gauges: std::collections::BTreeMap::new(),
        histograms: snap
            .histograms
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
    }
}

#[test]
fn exporter_outputs_are_byte_identical_across_thread_counts() {
    let _g = lock();
    let mut rendered: Vec<(usize, String)> = Vec::new();
    for &threads in &[1usize, 2, 4, 7] {
        pool::set_thread_override(Some(threads));
        ahw_telemetry::set_enabled(true);
        ahw_telemetry::reset();
        workload();
        let snap = invariant_subset(&ahw_telemetry::snapshot());
        ahw_telemetry::set_enabled(false);
        pool::set_thread_override(None);
        rendered.push((threads, metrics_snapshot_json(&snap)));
    }
    let _ = ahw_telemetry::drain_spans();
    let (_, json0) = &rendered[0];
    assert!(
        json0.contains("\"sram.injector.bit_flips\"")
            && json0.contains("\"tensor.ops.gemm_flops\""),
        "workload left no invariant metrics to compare:\n{json0}"
    );
    assert!(json0.starts_with("{\"counters\":{"));
    for (threads, json) in &rendered[1..] {
        assert_eq!(
            json, json0,
            "JSON snapshot differs between 1 and {threads} threads"
        );
    }
}
