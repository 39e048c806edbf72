use crate::methods::{craft_ws, Attack};
use crate::AttackOutcome;
use ahw_nn::util::ErrCell;
use ahw_nn::{NnError, PlanCache, Sequential};
use ahw_telemetry as telemetry;
use ahw_tensor::{pool, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Idle plan caches parked between evaluations. Each shard checks one out
/// for its whole range of batches, so the arena's buffers survive across
/// attack steps, batches, *and* successive evaluations (the ε sweep hits
/// the steady state from its second point onwards).
///
/// Parking is bounded: at most [`MAX_PARKED_PLANS`] caches are retained,
/// and a cache whose arena grew past [`MAX_PARKED_PLAN_BYTES`] is dropped
/// instead of parked — an unbounded pool used to retain arenas sized for
/// the *largest* model an experiment bin ever evaluated, pinning peak
/// memory for the rest of a multi-model (zoo-sweep) run.
static PLAN_POOL: Mutex<Vec<PlanCache>> = Mutex::new(Vec::new());

/// Upper bound on parked plan caches; checkouts beyond this run with fresh
/// arenas and are dropped on park. Large enough for every worker of a
/// maximal pool to park between evaluations, small enough to bound idle
/// memory.
const MAX_PARKED_PLANS: usize = 32;

/// Largest arena worth keeping warm (bytes resident in the workspace free
/// lists). Oversized arenas — one VGG19-at-full-width evaluation can park
/// hundreds of MiB — are dropped and rebuilt on demand instead.
const MAX_PARKED_PLAN_BYTES: usize = 64 << 20;

/// Currently parked plan caches (`attacks.plan_pool.parked`).
static PLAN_POOL_PARKED: telemetry::LazyGauge =
    telemetry::LazyGauge::new("attacks.plan_pool.parked");

fn checkout_plan() -> PlanCache {
    let mut pool = PLAN_POOL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let plan = pool.pop().unwrap_or_default();
    PLAN_POOL_PARKED.set(pool.len() as f64);
    plan
}

/// Whether a returning plan cache should be parked for reuse (room in the
/// pool, arena not oversized) or dropped.
fn should_park(parked: usize, resident_bytes: usize) -> bool {
    parked < MAX_PARKED_PLANS && resident_bytes <= MAX_PARKED_PLAN_BYTES
}

fn park_plan(mut plan: PlanCache) {
    let resident = plan.workspace().resident_bytes();
    let mut pool = PLAN_POOL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if should_park(pool.len(), resident) {
        pool.push(plan);
    }
    PLAN_POOL_PARKED.set(pool.len() as f64);
}

/// Number of plan caches currently parked in the global pool.
pub fn parked_plan_count() -> usize {
    PLAN_POOL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len()
}

/// Drops every parked plan cache (and its arena memory). Experiment
/// drivers call this between variants — switching models invalidates the
/// parked arenas' buffer sizes, so holding them only retains the previous
/// model's peak memory.
pub fn clear_plan_pool() {
    PLAN_POOL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    PLAN_POOL_PARKED.set(0.0);
}

/// Examples attacked and evaluated (clean + adversarial pass pairs).
static EXAMPLES: telemetry::LazyCounter = telemetry::LazyCounter::new("attacks.evaluate.examples");
/// ε points completed across all sweeps — per-epsilon sweep progress.
static EPSILONS_DONE: telemetry::LazyCounter =
    telemetry::LazyCounter::new("attacks.sweep.epsilons_done");

/// The paper's three attack/evaluation pairings (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackMode {
    /// Gradients from the software model, evaluated on the software model.
    AttackSw,
    /// Software-inputs-on-hardware: gradients from the software model,
    /// evaluated on the hardware model.
    Sh,
    /// Hardware-inputs-on-hardware: gradients from (and evaluation on) the
    /// hardware model — the attacker sees the non-idealities.
    Hh,
}

impl AttackMode {
    /// Paper label (`"Attack-SW"`, `"SH"`, `"HH"`).
    pub fn label(&self) -> &'static str {
        match self {
            AttackMode::AttackSw => "Attack-SW",
            AttackMode::Sh => "SH",
            AttackMode::Hh => "HH",
        }
    }
}

/// Attacks `eval_model` with perturbations crafted from `grad_model`'s loss,
/// over `(images, labels)` in batches of `batch`.
///
/// Batches run on the shared [`ahw_tensor::pool`] worker pool. Per-batch
/// attack RNG (PGD random starts) is derived from the batch index via the
/// workspace stream-derivation scheme, and per-batch correct-prediction
/// counts are integers, so the result is bit-identical for every thread
/// count and independent of thread scheduling.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for empty/mismatched data or zero batch;
/// propagates the model error of the first failing batch.
pub fn evaluate_attack(
    grad_model: &Sequential,
    eval_model: &Sequential,
    images: &Tensor,
    labels: &[usize],
    attack: Attack,
    batch: usize,
) -> Result<AttackOutcome, NnError> {
    let n = images.dims()[0];
    if labels.len() != n {
        return Err(NnError::BadConfig(format!(
            "{} labels for {n} images",
            labels.len()
        )));
    }
    if batch == 0 || n == 0 {
        return Err(NnError::BadConfig("empty dataset or zero batch".into()));
    }
    let _span = telemetry::span_labeled("attacks.evaluate", || {
        format!("{} n={n} batch={batch}", attack.name())
    });
    EXAMPLES.add(n as u64);
    let item = images.len() / n;
    let chunks: Vec<(usize, usize)> = (0..n)
        .step_by(batch)
        .map(|lo| (lo, (lo + batch).min(n)))
        .collect();
    let xv = images.as_slice();
    let dims = images.dims();

    // Every batch is independent: its RNG stream comes from the batch index
    // and its counts are integers, so any schedule yields the same totals.
    let shard_range = |range: std::ops::Range<usize>| -> Result<(usize, usize), NnError> {
        let _span = telemetry::span_labeled("attacks.evaluate.shard", || {
            format!("batches {}..{}", range.start, range.end)
        });
        // each range differentiates and evaluates through its own clones,
        // with one checked-out plan arena reused across all its batches
        let mut grad = grad_model.clone();
        let mut eval = eval_model.clone();
        let mut plan = checkout_plan();
        let result = (|| {
            let (mut clean_ok, mut adv_ok) = (0usize, 0usize);
            for ci in range {
                let (lo, hi) = chunks[ci];
                let mut bd = dims.to_vec();
                bd[0] = hi - lo;
                let mut xbuf = plan.workspace().take((hi - lo) * item);
                xbuf.copy_from_slice(&xv[lo * item..hi * item]);
                let xb = Tensor::from_vec(xbuf, &bd)?;
                let yb = &labels[lo..hi];
                let mut rng = ahw_tensor::rng::stream(ATTACK_STREAM_SEED, ci as u64);
                let adv = craft_ws(&mut grad, &xb, yb, attack, &mut rng, &mut plan)?;
                let clean_preds = eval.predict_planned(&xb, &mut plan)?;
                let adv_preds = eval.predict_planned(&adv, &mut plan)?;
                clean_ok += clean_preds.iter().zip(yb).filter(|(p, l)| p == l).count();
                adv_ok += adv_preds.iter().zip(yb).filter(|(p, l)| p == l).count();
                let ws = plan.workspace();
                ws.recycle_tensor(adv);
                ws.recycle_tensor(xb);
            }
            Ok((clean_ok, adv_ok))
        })();
        park_plan(plan);
        result
    };

    let clean = AtomicUsize::new(0);
    let adv = AtomicUsize::new(0);
    // ranges are disjoint and each stops at its own first failing batch, so
    // the failing range with the lowest start holds the lowest failing batch
    let err = ErrCell::<NnError>::new();
    pool::parallel_for_ranges(chunks.len(), 1, |r| {
        err.run(r.start, || {
            let (c, a) = shard_range(r)?;
            clean.fetch_add(c, Ordering::Relaxed);
            adv.fetch_add(a, Ordering::Relaxed);
            Ok(())
        });
    });
    err.into_result()?;
    Ok(AttackOutcome {
        clean_accuracy: clean.into_inner() as f32 / n as f32,
        adversarial_accuracy: adv.into_inner() as f32 / n as f32,
    })
}

/// Base seed of the per-batch attack-crafting RNG streams. The stream for
/// batch `i` is `rng::stream(ATTACK_STREAM_SEED, i)` regardless of how the
/// batches are sharded over workers.
const ATTACK_STREAM_SEED: u64 = 0xA77AC4;

/// Runs one of the paper's modes given the software baseline and the
/// hardware (noise-injected or crossbar-mapped) model.
///
/// # Errors
///
/// As [`evaluate_attack`].
pub fn evaluate_mode(
    software: &Sequential,
    hardware: &Sequential,
    mode: AttackMode,
    images: &Tensor,
    labels: &[usize],
    attack: Attack,
    batch: usize,
) -> Result<AttackOutcome, NnError> {
    let (grad_model, eval_model) = match mode {
        AttackMode::AttackSw => (software, software),
        AttackMode::Sh => (software, hardware),
        AttackMode::Hh => (hardware, hardware),
    };
    evaluate_attack(grad_model, eval_model, images, labels, attack, batch)
}

/// Sweeps an attack over several ε values (the x-axis of the paper's
/// Figs. 5–7), preserving every other attack parameter.
///
/// # Errors
///
/// As [`evaluate_attack`].
pub fn sweep_epsilons(
    grad_model: &Sequential,
    eval_model: &Sequential,
    images: &Tensor,
    labels: &[usize],
    attack: Attack,
    epsilons: &[f32],
    batch: usize,
) -> Result<Vec<(f32, AttackOutcome)>, NnError> {
    epsilons
        .iter()
        .map(|&eps| {
            let _span = telemetry::span_labeled("attacks.sweep.epsilon", || format!("eps={eps}"));
            let a = match attack {
                Attack::Fgsm { .. } => Attack::Fgsm { epsilon: eps },
                Attack::Pgd {
                    alpha,
                    steps,
                    random_start,
                    epsilon,
                } => Attack::Pgd {
                    epsilon: eps,
                    alpha: alpha * eps / epsilon.max(1e-9),
                    steps,
                    random_start,
                },
                Attack::Random { .. } => Attack::Random { epsilon: eps },
            };
            let outcome = evaluate_attack(grad_model, eval_model, images, labels, a, batch)?;
            EPSILONS_DONE.incr();
            Ok((eps, outcome))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::layers::{Linear, ReLU};
    use ahw_nn::train::{TrainConfig, Trainer};
    use ahw_tensor::rng::{normal, seeded, uniform};

    /// A trained two-blob classifier (so attacks have a real boundary to
    /// push points across) plus test data.
    fn trained_setup() -> (Sequential, Tensor, Vec<usize>) {
        let mut r = seeded(1);
        let gen = |n: usize, seed: u64| {
            let mut rr = seeded(seed);
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for i in 0..n {
                let label = i % 2;
                let center = if label == 0 { 0.3 } else { 0.7 };
                let p = normal(&[4], center, 0.08, &mut rr);
                data.extend(p.as_slice().iter().map(|v| v.clamp(0.0, 1.0)));
                labels.push(label);
            }
            (Tensor::from_vec(data, &[n, 4]).unwrap(), labels)
        };
        let (tx, ty) = gen(120, 2);
        let mut model = Sequential::new();
        model.push(Linear::new(4, 16, &mut r).unwrap());
        model.push(ReLU::new());
        model.push(Linear::new(16, 2, &mut r).unwrap());
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 12,
            lr: 0.1,
            batch_size: 16,
            ..TrainConfig::default()
        });
        trainer.fit(&mut model, &tx, &ty, &mut seeded(3)).unwrap();
        let (ex, ey) = gen(60, 4);
        (model, ex, ey)
    }

    #[test]
    fn attack_degrades_trained_model() {
        let (model, x, y) = trained_setup();
        let out = evaluate_attack(&model, &model, &x, &y, Attack::fgsm(0.25), 16).unwrap();
        assert!(out.clean_accuracy > 0.9);
        assert!(
            out.adversarial_accuracy < out.clean_accuracy - 0.1,
            "attack had no effect: {out}"
        );
    }

    #[test]
    fn stronger_epsilon_does_more_damage() {
        let (model, x, y) = trained_setup();
        let sweep =
            sweep_epsilons(&model, &model, &x, &y, Attack::fgsm(0.1), &[0.05, 0.3], 16).unwrap();
        assert!(sweep[1].1.adversarial_accuracy <= sweep[0].1.adversarial_accuracy);
    }

    #[test]
    fn pgd_is_at_least_as_strong_as_fgsm() {
        let (model, x, y) = trained_setup();
        let f = evaluate_attack(&model, &model, &x, &y, Attack::fgsm(0.15), 16).unwrap();
        let p = evaluate_attack(&model, &model, &x, &y, Attack::pgd(0.15), 16).unwrap();
        assert!(p.adversarial_accuracy <= f.adversarial_accuracy + 0.05);
    }

    #[test]
    fn evaluation_is_deterministic_across_runs() {
        let (model, x, y) = trained_setup();
        let a = evaluate_attack(&model, &model, &x, &y, Attack::pgd(0.1), 8).unwrap();
        let b = evaluate_attack(&model, &model, &x, &y, Attack::pgd(0.1), 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn modes_select_the_right_models() {
        let (software, x, y) = trained_setup();
        // "hardware": the same net with persistently perturbed weights
        let mut hardware = software.clone();
        hardware.visit_params(&mut |p| {
            p.value.map_in_place(|v| v * 0.9);
        });
        let sw = evaluate_mode(
            &software,
            &hardware,
            AttackMode::AttackSw,
            &x,
            &y,
            Attack::fgsm(0.1),
            16,
        )
        .unwrap();
        let sh = evaluate_mode(
            &software,
            &hardware,
            AttackMode::Sh,
            &x,
            &y,
            Attack::fgsm(0.1),
            16,
        )
        .unwrap();
        let hh = evaluate_mode(
            &software,
            &hardware,
            AttackMode::Hh,
            &x,
            &y,
            Attack::fgsm(0.1),
            16,
        )
        .unwrap();
        // SW clean accuracy comes from the software model; SH/HH from hardware
        assert_eq!(sh.clean_accuracy, hh.clean_accuracy);
        // the three modes are genuinely different pairings
        assert_eq!(AttackMode::AttackSw.label(), "Attack-SW");
        assert_eq!(AttackMode::Sh.label(), "SH");
        assert_eq!(AttackMode::Hh.label(), "HH");
        // degenerate sanity: all accuracies valid probabilities
        for o in [sw, sh, hh] {
            assert!((0.0..=1.0).contains(&o.clean_accuracy));
            assert!((0.0..=1.0).contains(&o.adversarial_accuracy));
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        let (model, x, _) = trained_setup();
        assert!(evaluate_attack(&model, &model, &x, &[0, 1], Attack::fgsm(0.1), 8).is_err());
        let y: Vec<usize> = (0..x.dims()[0]).map(|i| i % 2).collect();
        assert!(evaluate_attack(&model, &model, &x, &y, Attack::fgsm(0.1), 0).is_err());
    }

    #[test]
    fn park_policy_caps_count_and_arena_size() {
        assert!(should_park(0, 0));
        assert!(should_park(MAX_PARKED_PLANS - 1, MAX_PARKED_PLAN_BYTES));
        assert!(!should_park(MAX_PARKED_PLANS, 0), "count cap ignored");
        assert!(
            !should_park(0, MAX_PARKED_PLAN_BYTES + 1),
            "oversized arena parked"
        );
    }

    // Other tests in this binary evaluate attacks concurrently (parking and
    // checking out plans), so the global-pool assertions here are the
    // race-tolerant invariants: the cap is never exceeded and clearing
    // removes everything this thread parked.
    #[test]
    fn plan_pool_never_exceeds_cap_and_clears() {
        for _ in 0..(MAX_PARKED_PLANS + 10) {
            park_plan(PlanCache::new());
        }
        assert!(parked_plan_count() <= MAX_PARKED_PLANS);
        // an oversized arena is dropped on park, not retained
        let mut huge = PlanCache::new();
        let buf = huge.workspace().take(MAX_PARKED_PLAN_BYTES / 4 + 1);
        huge.workspace().recycle(buf);
        let before = parked_plan_count();
        park_plan(huge);
        assert!(
            parked_plan_count() <= before.max(MAX_PARKED_PLANS),
            "oversized arena was parked"
        );
        clear_plan_pool();
        assert!(parked_plan_count() <= MAX_PARKED_PLANS);
    }

    #[test]
    fn untrained_uniform_inputs_smoke() {
        let mut r = seeded(9);
        let mut m = Sequential::new();
        m.push(Linear::new(5, 3, &mut r).unwrap());
        let x = uniform(&[7, 5], 0.0, 1.0, &mut r);
        let y = vec![0, 1, 2, 0, 1, 2, 0];
        let out = evaluate_attack(&m, &m, &x, &y, Attack::pgd(0.2), 3).unwrap();
        assert!(out.adversarial_accuracy <= out.clean_accuracy + 1e-6);
    }
}
