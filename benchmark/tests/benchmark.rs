//! Every workload at miniature size: the printed metrics match
//! `BENCHMARK.json`, digests repeat across thread counts and runs, and the
//! exact work counters repeat across traced runs.

use ahw_benchmark::measure::{timed_section, Section};
use ahw_benchmark::workloads::{setup, Seed, Size, Workload};
use ahw_benchmark::{layers, run, Config};
use ahw_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Telemetry and the pool's thread override are process-wide, and the
/// harness runs tests on parallel threads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const SEED: Seed = Seed(3);

/// The `name`s listed under `key` in the repository's `BENCHMARK.json`.
fn listed_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let list = &json[start..];
    let list = &list[..list.find(']').expect("list closes")];
    list.split("\"name\":")
        .skip(1)
        .map(|item| {
            let item = item.trim_start().strip_prefix('"').expect("quoted name");
            item[..item.find('"').expect("name closes")].to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let _g = serial();
    let end_to_end = listed_names("end_to_end");
    let per_layer = listed_names("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    // each metric list is assembled by one code path for every workload;
    // alternating the run kinds covers both twice at half the cost
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        let trace = i % 2 == 1;
        let listed = if trace { &per_layer } else { &end_to_end };
        let report = run(&Config {
            workload,
            seed: SEED.0,
            seconds: 0.0,
            trace,
            size: Size::mini(),
            threads: 2,
        });
        assert!(report.correct, "{}: {:?}", workload.name(), report.errors);
        let names: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(&names, listed, "{} trace={trace}", workload.name());
        for m in &report.metrics {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
    }
}

/// One fresh setup plus `passes` passes at `threads` threads.
fn fresh_run(workload: Workload, threads: usize, passes: usize) -> Section {
    ahw_tensor::pool::set_thread_override(Some(threads));
    let size = Size::mini();
    let prepared = setup(workload, &size, SEED).expect("setup");
    let section = timed_section(workload, &prepared, &size, SEED, 0.0, passes, passes);
    ahw_tensor::pool::set_thread_override(None);
    assert_eq!(
        section.failed,
        0,
        "{}: {:?}",
        workload.name(),
        section.errors
    );
    section
}

#[test]
fn digest_repeats_across_threads_and_runs() {
    let _g = serial();
    telemetry::set_enabled(false);
    for workload in Workload::ALL {
        // two passes each: the second must reproduce the first's digest
        let one = fresh_run(workload, 1, 2).digest;
        let two = fresh_run(workload, 2, 2).digest;
        let again = fresh_run(workload, 2, 1).digest;
        assert_eq!(one, two, "{}: 1 vs 2 threads", workload.name());
        assert_eq!(two, again, "{}: two runs", workload.name());
    }
}

const EXACT: [&str; 5] = [
    "tensor.gemm_flops",
    "sram.bit_flips",
    "crossbar.solver.solves",
    "attacks.gradient_queries",
    "core.search.candidates_done",
];

/// The exact work counters of one traced pass after a fresh setup.
fn traced_counts(workload: Workload) -> Vec<f64> {
    telemetry::set_enabled(false);
    let size = Size::mini();
    let prepared = setup(workload, &size, SEED).expect("setup");
    telemetry::reset();
    telemetry::set_enabled(true);
    let section = timed_section(workload, &prepared, &size, SEED, 0.0, 1, 1);
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    telemetry::reset();
    assert_eq!(
        section.failed,
        0,
        "{}: {:?}",
        workload.name(),
        section.errors
    );
    let inputs = layers::LayerInputs {
        threads: 2,
        images_trained: 0.0,
        mapped_cells: section.mapped_cells as f64,
        traced_wall_s: section.wall.as_secs_f64(),
        traced_run_s: section.pass_s[0],
        untraced_run_s: section.pass_s[0],
        fma_gflops: 1.0,
    };
    let metrics = layers::layer_metrics(&snap, &snap, &inputs);
    EXACT
        .iter()
        .map(|name| {
            metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("{name} reported"))
                .value
        })
        .collect()
}

#[test]
fn work_counters_repeat_across_traced_runs() {
    let _g = serial();
    ahw_tensor::pool::set_thread_override(Some(2));
    for workload in Workload::ALL {
        let first = traced_counts(workload);
        let second = traced_counts(workload);
        assert_eq!(first, second, "{}: {EXACT:?}", workload.name());
        // each workload does the work it exists for
        let [flops, flips, solves, _, candidates] = first[..] else {
            unreachable!()
        };
        match workload {
            Workload::Fig4Search => assert!(candidates > 0.0 && flips > 0.0),
            Workload::SramPgd => assert!(flips > 0.0 && flops > 0.0),
            Workload::XbarPgd => assert!(solves > 0.0 && flips == 0.0),
            Workload::XbarMap => assert!(solves > 0.0 && flops == 0.0),
        }
    }
    ahw_tensor::pool::set_thread_override(None);
}
