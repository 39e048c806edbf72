//! Determinism of the Fig. 4 selection search: the pool-parallel candidate
//! sweep must return a bit-identical `NoisePlan` and accuracies at any
//! worker count, and a journal-resumed (kill-and-restart) run must
//! reproduce the uninterrupted result exactly. Together these are what let
//! a Table I/II run be sharded, interrupted, and still land on the same
//! published row.

use ahw_core::selection::{select_noise_sites, SelectionConfig, SelectionOutcome};
use ahw_nn::archs::{self, ModelSpec};
use ahw_tensor::{pool, rng, Tensor};
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes tests that pin the process-global worker-count override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    pool::set_thread_override(Some(threads));
    let out = f();
    pool::set_thread_override(None);
    out
}

/// A tiny spec + synthetic batch so the full search runs in test time.
fn setup() -> (ModelSpec, Tensor, Vec<usize>) {
    let spec = archs::vgg8(4, 0.0625, &mut rng::seeded(11)).unwrap();
    let x = rng::uniform(&[24, 3, 32, 32], 0.0, 1.0, &mut rng::seeded(12));
    let labels = (0..24).map(|i| i % 4).collect();
    (spec, x, labels)
}

fn config(journal: Option<PathBuf>) -> SelectionConfig {
    SelectionConfig {
        batch: 12,
        search_subset: 16,
        journal,
        ..SelectionConfig::default()
    }
}

/// Bit-level equality of two search outcomes (f32 `==` would also accept
/// -0.0 vs 0.0 and mask real divergence).
fn assert_bit_identical(a: &SelectionOutcome, b: &SelectionOutcome, context: &str) {
    assert_eq!(a.plan, b.plan, "{context}: plans differ");
    assert_eq!(
        a.baseline.adversarial_accuracy.to_bits(),
        b.baseline.adversarial_accuracy.to_bits(),
        "{context}: baseline adv bits differ"
    );
    assert_eq!(
        a.combined.clean_accuracy.to_bits(),
        b.combined.clean_accuracy.to_bits(),
        "{context}: combined clean bits differ"
    );
    assert_eq!(
        a.combined.adversarial_accuracy.to_bits(),
        b.combined.adversarial_accuracy.to_bits(),
        "{context}: combined adv bits differ"
    );
    assert_eq!(a.per_site.len(), b.per_site.len());
    for (sa, sb) in a.per_site.iter().zip(&b.per_site) {
        assert_eq!(
            sa.config, sb.config,
            "{context}: site {} config",
            sa.site_index
        );
        assert_eq!(
            sa.adversarial_accuracy.to_bits(),
            sb.adversarial_accuracy.to_bits(),
            "{context}: site {} accuracy bits",
            sa.site_index
        );
        assert_eq!(sa.shortlisted, sb.shortlisted);
    }
}

#[test]
fn search_is_bit_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let (spec, x, y) = setup();
    let cfg = config(None);
    let reference = with_threads(1, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
    for threads in [2usize, 4, 7] {
        let out = with_threads(threads, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
        assert_bit_identical(&reference, &out, &format!("{threads} threads"));
    }
}

#[test]
fn killed_search_resumes_to_the_uninterrupted_result() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let (spec, x, y) = setup();
    let path = std::env::temp_dir().join(format!("ahw_search_resume_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = config(Some(path.clone()));

    // the uninterrupted run, journaling as it goes
    let uninterrupted = with_threads(2, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
    let full_journal = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full_journal.lines().collect();
    assert!(
        lines.len() > 10,
        "journal too small to truncate meaningfully: {} lines",
        lines.len()
    );

    // simulate a kill partway through: keep the header and the first half
    // of the completed candidates, chopping the final line mid-record
    let keep = lines.len() / 2;
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&path, truncated).unwrap();

    // the resumed run replays the surviving candidates and re-evaluates the
    // rest — and must land on the exact same outcome
    let resumed = with_threads(2, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
    assert_bit_identical(&uninterrupted, &resumed, "journal resume");

    // a journal replay is also thread-count independent: a fresh worker
    // count over the *complete* journal still reproduces the result
    let replayed = with_threads(4, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
    assert_bit_identical(&uninterrupted, &replayed, "full-journal replay");

    let _ = std::fs::remove_file(&path);
}

/// The search crafts each adversarial set once from the clean model: one
/// `select_noise_sites` call spends as many gradient passes as the probe
/// set (16 images: batches of 12 and 4) and the full set (24 images: two
/// batches of 12) have batches, 4 here, however many candidates it scores
/// and at any worker count.
#[test]
fn search_crafts_each_set_once() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let (spec, x, y) = setup();
    let cfg = config(None);
    for threads in [1usize, 2, 4, 7] {
        ahw_telemetry::set_enabled(true);
        ahw_telemetry::reset();
        with_threads(threads, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
        let snap = ahw_telemetry::snapshot();
        ahw_telemetry::set_enabled(false);
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            count("attacks.methods.gradient_queries"),
            4,
            "gradient passes at {threads} threads"
        );
        // every candidate was still scored: 8 six-T counts per site
        assert!(count("core.search.candidates_done") >= 8 * spec.sites.len() as u64);
    }
    let _ = ahw_telemetry::drain_spans();
}
