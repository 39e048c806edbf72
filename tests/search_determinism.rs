//! Determinism of the Fig. 4 selection search: the pool-parallel candidate
//! sweep must return a bit-identical `NoisePlan` and accuracies at any
//! worker count, equal to scoring every candidate's whole hooked model, and
//! a journal-resumed (kill-and-restart) run must reproduce the
//! uninterrupted result exactly, while a journal of another search is never
//! replayed. Together these are what let a Table I/II run be sharded,
//! interrupted, and still land on the same published row.

use ahw_attacks::{evaluate_attack, Attack, AttackOutcome};
use ahw_core::hardware::{apply_noise_plan, NoisePlan, PlannedSite};
use ahw_core::selection::{select_noise_sites, SelectionConfig, SelectionOutcome, SiteResult};
use ahw_datasets::{DatasetConfig, SyntheticCifar};
use ahw_nn::archs::{self, ModelSpec};
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_sram::{HybridMemoryConfig, HybridWordConfig, WORD_BITS};
use ahw_telemetry::MetricsSnapshot;
use ahw_tensor::{pool, rng, Tensor};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that pin the process-global worker-count override or
/// read the global telemetry counters.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`OVERRIDE_LOCK`]; a test that failed while holding it does not
/// fail the others.
fn serial() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    pool::set_thread_override(Some(threads));
    let out = f();
    pool::set_thread_override(None);
    out
}

/// A tiny VGG8, trained (see [`trained`]) so its candidates score apart,
/// searched over all its sites with 24 images, so the full search runs in
/// test time.
fn setup() -> (ModelSpec, Tensor, Vec<usize>) {
    let spec = archs::vgg8(4, 0.0625, &mut rng::seeded(11)).unwrap();
    let sites: Vec<usize> = (0..spec.sites.len()).collect();
    trained(spec, &sites)
}

/// The search at Vdd 0.6 under FGSM at ε = 0.03, where the trained
/// fixture's sites move its adversarial accuracy.
fn config(journal: Option<PathBuf>) -> SelectionConfig {
    SelectionConfig {
        vdd: 0.6,
        attack: Attack::fgsm(0.03),
        batch: 12,
        search_subset: 16,
        journal,
        ..SelectionConfig::default()
    }
}

/// Fails if the outcome is one constant: every site scoring the baseline
/// would make a comparison of two searches vacuous.
fn assert_not_degenerate(outcome: &SelectionOutcome) {
    let baseline = outcome.baseline.adversarial_accuracy;
    let scores: Vec<f32> = outcome
        .per_site
        .iter()
        .map(|s| s.adversarial_accuracy)
        .collect();
    assert!(
        scores.iter().any(|&a| a != scores[0]) || scores.iter().any(|&a| a != baseline),
        "every site scored the baseline {baseline}: {scores:?}"
    );
}

/// Runs `f` with telemetry recording and returns its result with the
/// metrics it recorded.
fn traced<T>(f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    ahw_telemetry::set_enabled(true);
    ahw_telemetry::reset();
    let out = f();
    let snap = ahw_telemetry::snapshot();
    ahw_telemetry::set_enabled(false);
    let _ = ahw_telemetry::drain_spans();
    (out, snap)
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// A journal path of this test process; any stale file is removed.
fn journal_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ahw_search_{name}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Bit-level equality of two search outcomes (f32 `==` would also accept
/// -0.0 vs 0.0 and mask real divergence).
fn assert_bit_identical(a: &SelectionOutcome, b: &SelectionOutcome, context: &str) {
    assert_eq!(a.plan, b.plan, "{context}: plans differ");
    assert_eq!(
        a.baseline.clean_accuracy.to_bits(),
        b.baseline.clean_accuracy.to_bits(),
        "{context}: baseline clean bits differ"
    );
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
        assert_eq!(sa.site_index, sb.site_index, "{context}: site order");
        assert_eq!(
            sa.label, sb.label,
            "{context}: site {} label",
            sa.site_index
        );
        assert_eq!(sa.shortlisted, sb.shortlisted);
    }
}

#[test]
fn search_is_bit_identical_across_thread_counts() {
    let _guard = serial();
    let (spec, x, y) = setup();
    let cfg = config(None);
    let reference = with_threads(1, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
    assert_not_degenerate(&reference);
    for threads in [2usize, 4, 7] {
        let out = with_threads(threads, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
        assert_bit_identical(&reference, &out, &format!("{threads} threads"));
    }
}

#[test]
fn killed_search_resumes_to_the_uninterrupted_result() {
    let _guard = serial();
    let (spec, x, y) = setup();
    let path = journal_path("resume");
    let cfg = config(Some(path.clone()));

    // the uninterrupted run, journaling as it goes
    let uninterrupted = with_threads(2, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
    assert_not_degenerate(&uninterrupted);
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
/// `select_noise_sites` call spends one gradient pass per batch it crafts,
/// however many candidates it scores and at any worker count. With 24
/// images in batches of 12, a 16-image probe (batches of 12 and 4) is
/// crafted beside the full set: 4 passes. A 12-image probe is the full
/// set's first whole batch, crafted from the same images and stream, so its
/// bits are reused: 2 passes.
#[test]
fn search_crafts_each_set_once() {
    let _guard = serial();
    let (spec, x, y) = setup();
    for (subset, passes) in [(16usize, 4u64), (12, 2)] {
        let cfg = SelectionConfig {
            search_subset: subset,
            ..config(None)
        };
        for threads in [1usize, 2, 4, 7] {
            let (out, snap) =
                traced(|| with_threads(threads, || select_noise_sites(&spec, &x, &y, &cfg)));
            out.unwrap();
            assert_eq!(
                counter(&snap, "attacks.methods.gradient_queries"),
                passes,
                "gradient passes at subset {subset}, {threads} threads"
            );
            // every candidate was still scored: 8 six-T counts per site
            assert!(counter(&snap, "core.search.candidates_done") >= 8 * spec.sites.len() as u64);
        }
    }
}

/// Test-side restatement of the Fig. 4 search that scores every candidate
/// by attacking its whole hooked model with `evaluate_attack` (gradients
/// from the clean model), crafting anew each time. Its combination phase is
/// the exhaustive one, so `cfg` must shortlist no more than
/// `max_exhaustive_sites` sites, and `cfg.search_subset` must be non-zero.
fn reference_search(
    spec: &ModelSpec,
    x: &Tensor,
    y: &[usize],
    cfg: &SelectionConfig,
) -> SelectionOutcome {
    let probe_n = cfg.search_subset.min(y.len());
    let item = x.len() / y.len();
    let mut dims = x.dims().to_vec();
    dims[0] = probe_n;
    let probe_x = Tensor::from_vec(x.as_slice()[..probe_n * item].to_vec(), &dims).unwrap();
    let probe_y = &y[..probe_n];
    let hooked = |sites: &[PlannedSite]| {
        let plan = NoisePlan {
            vdd: cfg.vdd,
            sites: sites.to_vec(),
        };
        apply_noise_plan(spec, &plan, cfg.seed).unwrap()
    };
    let attack = |sites: &[PlannedSite], images: &Tensor, labels: &[usize]| -> AttackOutcome {
        let eval = hooked(sites);
        evaluate_attack(&spec.model, &eval, images, labels, cfg.attack, cfg.batch).unwrap()
    };
    let baseline = attack(&[], x, y);
    let probe_baseline = attack(&[], &probe_x, probe_y);
    let per_site: Vec<SiteResult> = (0..spec.sites.len())
        .map(|site_index| {
            let mut best: Option<(HybridMemoryConfig, f32)> = None;
            for six_t in 1..=WORD_BITS {
                let word = HybridWordConfig::new(WORD_BITS - six_t, six_t).unwrap();
                let config = HybridMemoryConfig::new(word, cfg.vdd).unwrap();
                let site = PlannedSite { site_index, config };
                let acc = attack(&[site], &probe_x, probe_y).adversarial_accuracy;
                if best.is_none_or(|(_, b)| acc > b) {
                    best = Some((config, acc));
                }
            }
            let (config, acc) = best.unwrap();
            SiteResult {
                site_index,
                label: spec.sites[site_index].label.clone(),
                config,
                adversarial_accuracy: acc,
                shortlisted: acc > probe_baseline.adversarial_accuracy + cfg.improvement_threshold,
            }
        })
        .collect();
    let shortlisted: Vec<PlannedSite> = per_site
        .iter()
        .filter(|s| s.shortlisted)
        .map(|s| PlannedSite {
            site_index: s.site_index,
            config: s.config,
        })
        .collect();
    assert!(shortlisted.len() <= cfg.max_exhaustive_sites);
    let mut best: Option<(Vec<PlannedSite>, f32)> = None;
    for mask in 1u32..(1 << shortlisted.len()) {
        let combo: Vec<PlannedSite> = shortlisted
            .iter()
            .enumerate()
            .filter(|(k, _)| mask & (1 << k) != 0)
            .map(|(_, s)| *s)
            .collect();
        let acc = attack(&combo, &probe_x, probe_y).adversarial_accuracy;
        if best.as_ref().is_none_or(|(_, b)| acc > *b) {
            best = Some((combo, acc));
        }
    }
    let (sites, combined) = match best {
        Some((combo, _)) => {
            let combined = attack(&combo, x, y);
            (combo, combined)
        }
        None => (Vec::new(), baseline),
    };
    SelectionOutcome {
        baseline,
        per_site,
        plan: NoisePlan {
            vdd: cfg.vdd,
            sites,
        },
        combined,
    }
}

/// `spec` trained briefly on a small synthetic set, then searched over the
/// sites `keep` only, in that order, with 24 of the set's test images. An
/// untrained model predicts one class for every image, which no bit error
/// changes; a trained one gives the hooks something to move.
fn trained(mut spec: ModelSpec, keep: &[usize]) -> (ModelSpec, Tensor, Vec<usize>) {
    let data = SyntheticCifar::generate(&DatasetConfig {
        num_classes: 4,
        train_size: 96,
        test_size: 24,
        image_size: 32,
        noise_std: 0.12,
        max_shift: 2,
        distractor_strength: 0.4,
        seed: 14,
    });
    let mut trainer = Trainer::new(TrainConfig {
        lr: 0.01,
        epochs: 4,
        batch_size: 16,
        ..TrainConfig::default()
    });
    trainer
        .fit(
            &mut spec.model,
            data.train().images(),
            data.train().labels(),
            &mut rng::seeded(15),
        )
        .unwrap();
    spec.sites = keep.iter().map(|&i| spec.sites[i].clone()).collect();
    (
        spec,
        data.test().images().clone(),
        data.test().labels().to_vec(),
    )
}

/// The search runs each probe candidate from its first hooked layer, on the
/// clean model's activations there; that must score exactly what attacking
/// the whole hooked model scores. VGG8 covers conv-output and pool sites on
/// adjacent layers; ResNet18 covers sites inside residual blocks
/// (`BlockConv1`, `Output` and `BlockShortcut` of one block share a layer).
/// The 16-image probe spans two batches of 12, and the negative threshold
/// shortlists every site, so every combination is scored too.
#[test]
fn search_scores_like_attacking_each_whole_hooked_model() {
    let _guard = serial();
    let vgg8 = archs::vgg8(4, 0.0625, &mut rng::seeded(11)).unwrap();
    let resnet18 = archs::resnet18(4, 0.0625, &mut rng::seeded(13)).unwrap();
    for (name, (spec, x, y)) in [
        ("vgg8", trained(vgg8, &[1, 2, 4, 8])),
        ("resnet18", trained(resnet18, &[0, 1, 6, 8])),
    ] {
        let cfg = SelectionConfig {
            improvement_threshold: -1.0,
            max_exhaustive_sites: spec.sites.len(),
            ..config(None)
        };
        let reference = reference_search(&spec, &x, &y, &cfg);
        assert!(
            !reference.plan.sites.is_empty(),
            "{name}: no combination chosen"
        );
        for threads in [1usize, 4] {
            let out = with_threads(threads, || select_noise_sites(&spec, &x, &y, &cfg).unwrap());
            assert_bit_identical(&reference, &out, &format!("{name} at {threads} threads"));
        }
    }
}

/// A journal holds outcomes of one model on one image set. A search of a
/// model with other weights over the same images, or of the same model over
/// images that differ only after their first 256 values, replays none of
/// its records and lands where a journal-free search lands.
#[test]
fn a_journal_of_another_model_or_image_set_is_not_replayed() {
    let _guard = serial();
    let (spec, x, y) = setup();
    let other_model = archs::vgg8(4, 0.0625, &mut rng::seeded(99)).unwrap();
    let mut tail = x.clone();
    for v in &mut tail.as_mut_slice()[256..] {
        *v = 1.0 - *v;
    }
    for (name, other_spec, other_x) in [
        ("another model", &other_model, &x),
        ("other images", &spec, &tail),
    ] {
        let path = journal_path("stale");
        with_threads(2, || {
            select_noise_sites(&spec, &x, &y, &config(Some(path.clone()))).unwrap()
        });
        let (journaled, snap) = traced(|| {
            with_threads(2, || {
                select_noise_sites(other_spec, other_x, &y, &config(Some(path.clone()))).unwrap()
            })
        });
        assert_eq!(
            counter(&snap, "core.search.resumed"),
            0,
            "{name}: records replayed"
        );
        let fresh = with_threads(2, || {
            select_noise_sites(other_spec, other_x, &y, &config(None)).unwrap()
        });
        assert_bit_identical(&fresh, &journaled, name);
        let _ = std::fs::remove_file(&path);
    }
}

/// No journal record depends on the shortlist threshold, so a 0-threshold
/// search over a 5 % search's journal replays every sweep record (it
/// records none anew) and lands where a journal-free 0-threshold search
/// lands.
#[test]
fn a_relaxed_threshold_replays_the_sweep() {
    let _guard = serial();
    let (spec, x, y) = setup();
    let path = journal_path("relaxed");
    let strict = config(Some(path.clone()));
    let relaxed = SelectionConfig {
        improvement_threshold: 0.0,
        ..strict.clone()
    };
    with_threads(2, || select_noise_sites(&spec, &x, &y, &strict).unwrap());
    let (journaled, snap) =
        traced(|| with_threads(2, || select_noise_sites(&spec, &x, &y, &relaxed).unwrap()));
    let sweep = 8 * spec.sites.len();
    assert!(
        counter(&snap, "core.search.resumed") >= 2 + sweep as u64,
        "baselines and sweep not replayed: {:?}",
        snap.counters
    );
    let journal = std::fs::read_to_string(&path).unwrap();
    let swept = journal
        .lines()
        .filter(|l| l.contains("\"key\":\"sweep "))
        .count();
    assert_eq!(swept, sweep, "a sweep candidate was scored again");
    let fresh = with_threads(2, || {
        select_noise_sites(
            &spec,
            &x,
            &y,
            &SelectionConfig {
                journal: None,
                ..relaxed.clone()
            },
        )
        .unwrap()
    });
    assert_bit_identical(&fresh, &journaled, "relaxed threshold over a journal");
    let _ = std::fs::remove_file(&path);
}
