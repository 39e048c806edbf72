use ahw_nn::{NnError, PlanCache, Sequential};
use ahw_telemetry as telemetry;
use ahw_tensor::rng::Rng;
use ahw_tensor::Tensor;

/// Input-gradient evaluations spent crafting attacks (1 per FGSM batch,
/// `steps` per PGD batch) — invariant in the thread count for a given
/// workload, which the determinism suite checks.
static GRADIENT_QUERIES: telemetry::LazyCounter =
    telemetry::LazyCounter::new("attacks.methods.gradient_queries");

/// An adversarial attack specification.
///
/// Both attacks constrain the perturbation to an `L∞` ball of radius
/// `epsilon` around the clean input and clip to the `[0, 1]` pixel domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attack {
    /// Single-step Fast Gradient Sign Method (Goodfellow et al.):
    /// `x_adv = x + ε · sign(∇ₓ L)`.
    Fgsm {
        /// Perturbation strength ε.
        epsilon: f32,
    },
    /// Multi-step Projected Gradient Descent (Madry et al.): `steps`
    /// iterations of FGSM with step size `alpha`, each projected back into
    /// the ε-ball, optionally from a random start.
    Pgd {
        /// Ball radius ε.
        epsilon: f32,
        /// Per-step size α.
        alpha: f32,
        /// Iteration count.
        steps: usize,
        /// Start from a uniform random point inside the ball.
        random_start: bool,
    },
    /// Control condition: uniform random noise of the same `L∞` magnitude,
    /// no gradients. Any real attack must beat this floor — reporting it
    /// alongside FGSM/PGD separates *adversarial* damage from plain noise
    /// sensitivity.
    Random {
        /// Noise magnitude ε.
        epsilon: f32,
    },
}

impl Attack {
    /// FGSM at strength ε.
    pub fn fgsm(epsilon: f32) -> Self {
        Attack::Fgsm { epsilon }
    }

    /// The paper-style PGD: 7 steps at `α = ε/4` with a random start.
    pub fn pgd(epsilon: f32) -> Self {
        Attack::Pgd {
            epsilon,
            alpha: epsilon / 4.0,
            steps: 7,
            random_start: true,
        }
    }

    /// The random-noise control at magnitude ε.
    pub fn random(epsilon: f32) -> Self {
        Attack::Random { epsilon }
    }

    /// The attack's ε.
    pub fn epsilon(&self) -> f32 {
        match self {
            Attack::Fgsm { epsilon } | Attack::Pgd { epsilon, .. } | Attack::Random { epsilon } => {
                *epsilon
            }
        }
    }

    /// Short name for experiment tables (`"FGSM"` / `"PGD"` / `"Random"`).
    pub fn name(&self) -> &'static str {
        match self {
            Attack::Fgsm { .. } => "FGSM",
            Attack::Pgd { .. } => "PGD",
            Attack::Random { .. } => "Random",
        }
    }
}

/// Crafts FGSM adversarial examples against `model`'s loss.
///
/// The gradient is taken in eval mode (frozen batch-norm statistics), the
/// perturbed input is clipped to `[0, 1]`.
///
/// # Errors
///
/// Propagates model errors.
pub fn fgsm(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    epsilon: f32,
) -> Result<Tensor, NnError> {
    fgsm_ws(model, x, labels, epsilon, &mut PlanCache::new())
}

/// [`fgsm`] running through a caller-owned plan cache: the gradient pass
/// and the adversarial batch draw all scratch from `cache`'s arena, so
/// repeated calls at one batch geometry allocate nothing. The returned
/// tensor's storage comes from the arena — recycle it back when done to
/// keep the loop allocation-free.
///
/// # Errors
///
/// Propagates model errors.
pub fn fgsm_ws(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    epsilon: f32,
    cache: &mut PlanCache,
) -> Result<Tensor, NnError> {
    GRADIENT_QUERIES.incr();
    let (_, grad) = model.input_gradient_planned(x, labels, cache)?;
    let ws = cache.workspace();
    let mut adv = ws.take(x.len());
    adv.copy_from_slice(x.as_slice());
    for (a, g) in adv.iter_mut().zip(grad.as_slice()) {
        if *g != 0.0 {
            *a = (*a + epsilon * g.signum()).clamp(0.0, 1.0);
        }
    }
    ws.recycle_tensor(grad);
    Ok(Tensor::from_vec(adv, x.dims())?)
}

/// Crafts PGD adversarial examples against `model`'s loss.
///
/// `rng` drives the random start (unused when `random_start` is false).
///
/// # Errors
///
/// Propagates model errors.
#[allow(clippy::too_many_arguments)] // mirrors the canonical PGD signature
pub fn pgd<R: Rng>(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    epsilon: f32,
    alpha: f32,
    steps: usize,
    random_start: bool,
    rng_: &mut R,
) -> Result<Tensor, NnError> {
    pgd_ws(
        model,
        x,
        labels,
        epsilon,
        alpha,
        steps,
        random_start,
        rng_,
        &mut PlanCache::new(),
    )
}

/// [`pgd`] running through a caller-owned plan cache. Every gradient pass
/// of every step reuses the arena's buffers, so a steady-state PGD loop
/// (the dominant attack-evaluation cost) performs zero heap allocations.
/// The returned tensor's storage comes from the arena.
///
/// # Errors
///
/// Propagates model errors.
#[allow(clippy::too_many_arguments)] // mirrors the canonical PGD signature
pub fn pgd_ws<R: Rng>(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    epsilon: f32,
    alpha: f32,
    steps: usize,
    random_start: bool,
    rng_: &mut R,
    cache: &mut PlanCache,
) -> Result<Tensor, NnError> {
    let mut adv = {
        let buf = cache.workspace().take(x.len());
        let mut a = Tensor::from_vec(buf, x.dims())?;
        let av = a.as_mut_slice();
        if random_start {
            // same draw order and arithmetic as the uniform-noise tensor
            // the allocating path adds, so the bits match exactly
            for (o, &v) in av.iter_mut().zip(x.as_slice()) {
                *o = (v + rng_.gen_range(-epsilon..epsilon)).clamp(0.0, 1.0);
            }
        } else {
            av.copy_from_slice(x.as_slice());
        }
        a
    };
    for _ in 0..steps {
        GRADIENT_QUERIES.incr();
        let (_, grad) = model.input_gradient_planned(&adv, labels, cache)?;
        let av = adv.as_mut_slice();
        let gv = grad.as_slice();
        let xv = x.as_slice();
        for i in 0..av.len() {
            let stepped = av[i] + alpha * gv[i].signum();
            // project into the ε-ball around x, then into the pixel domain
            av[i] = stepped
                .clamp(xv[i] - epsilon, xv[i] + epsilon)
                .clamp(0.0, 1.0);
        }
        cache.workspace().recycle_tensor(grad);
    }
    Ok(adv)
}

/// Perturbs `x` with uniform noise in `[-epsilon, epsilon]`, clipped to the
/// pixel domain — the gradient-free control condition.
pub fn random_noise<R: Rng>(x: &Tensor, epsilon: f32, rng_: &mut R) -> Tensor {
    random_noise_ws(x, epsilon, rng_, &mut PlanCache::new())
}

/// [`random_noise`] drawing the output buffer from a plan cache's arena.
pub fn random_noise_ws<R: Rng>(
    x: &Tensor,
    epsilon: f32,
    rng_: &mut R,
    cache: &mut PlanCache,
) -> Tensor {
    let mut out = cache.workspace().take(x.len());
    for (o, &v) in out.iter_mut().zip(x.as_slice()) {
        *o = (v + rng_.gen_range(-epsilon..epsilon)).clamp(0.0, 1.0);
    }
    Tensor::from_vec(out, x.dims()).expect("volume matches by construction")
}

/// Runs `attack` against `model` on one batch and returns the adversarial
/// inputs. The dispatcher used by the mode-level evaluators.
///
/// # Errors
///
/// Propagates model errors.
pub fn craft<R: Rng>(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    attack: Attack,
    rng_: &mut R,
) -> Result<Tensor, NnError> {
    craft_ws(model, x, labels, attack, rng_, &mut PlanCache::new())
}

/// [`craft`] through a caller-owned plan cache; the shard loops of
/// [`crate::evaluate_attack`] and [`crate::craft_attack`] hold one cache
/// per shard so all attack steps, batches, and sweep points reuse the same
/// arena.
///
/// # Errors
///
/// Propagates model errors.
pub fn craft_ws<R: Rng>(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    attack: Attack,
    rng_: &mut R,
    cache: &mut PlanCache,
) -> Result<Tensor, NnError> {
    match attack {
        Attack::Fgsm { epsilon } => fgsm_ws(model, x, labels, epsilon, cache),
        Attack::Pgd {
            epsilon,
            alpha,
            steps,
            random_start,
        } => pgd_ws(
            model,
            x,
            labels,
            epsilon,
            alpha,
            steps,
            random_start,
            rng_,
            cache,
        ),
        Attack::Random { epsilon } => Ok(random_noise_ws(x, epsilon, rng_, cache)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::layers::{Linear, ReLU};
    use ahw_tensor::rng::seeded;

    fn model(seed: u64) -> Sequential {
        let mut r = seeded(seed);
        let mut m = Sequential::new();
        m.push(Linear::new(6, 12, &mut r).unwrap());
        m.push(ReLU::new());
        m.push(Linear::new(12, 3, &mut r).unwrap());
        m
    }

    fn batch(seed: u64) -> (Tensor, Vec<usize>) {
        let x = ahw_tensor::rng::uniform(&[10, 6], 0.2, 0.8, &mut seeded(seed));
        let labels = (0..10).map(|i| i % 3).collect();
        (x, labels)
    }

    #[test]
    fn fgsm_stays_in_linf_ball_and_domain() {
        let mut m = model(1);
        let (x, y) = batch(2);
        let adv = fgsm(&mut m, &x, &y, 0.1).unwrap();
        for (a, b) in adv.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() <= 0.1 + 1e-6);
            assert!((0.0..=1.0).contains(a));
        }
    }

    #[test]
    fn fgsm_moves_loss_uphill() {
        let mut m = model(3);
        let (x, y) = batch(4);
        let (clean_loss, _) = m.input_gradient(&x, &y).unwrap();
        let adv = fgsm(&mut m, &x, &y, 0.05).unwrap();
        let (adv_loss, _) = m.input_gradient(&adv, &y).unwrap();
        assert!(
            adv_loss > clean_loss,
            "adv loss {adv_loss} not above clean {clean_loss}"
        );
    }

    #[test]
    fn zero_epsilon_fgsm_is_identity() {
        let mut m = model(5);
        let (x, y) = batch(6);
        let adv = fgsm(&mut m, &x, &y, 0.0).unwrap();
        assert_eq!(adv, x);
    }

    #[test]
    fn pgd_stays_in_ball_and_beats_fgsm() {
        let mut m = model(7);
        let (x, y) = batch(8);
        let eps = 0.1;
        let adv_f = fgsm(&mut m, &x, &y, eps).unwrap();
        let adv_p = pgd(&mut m, &x, &y, eps, eps / 4.0, 10, true, &mut seeded(9)).unwrap();
        for (a, b) in adv_p.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() <= eps + 1e-5);
            assert!((0.0..=1.0).contains(a));
        }
        let (loss_f, _) = m.input_gradient(&adv_f, &y).unwrap();
        let (loss_p, _) = m.input_gradient(&adv_p, &y).unwrap();
        assert!(
            loss_p >= loss_f * 0.95,
            "pgd loss {loss_p} well below fgsm loss {loss_f}"
        );
    }

    #[test]
    fn pgd_without_random_start_is_deterministic() {
        let mut m = model(10);
        let (x, y) = batch(11);
        let a = pgd(&mut m, &x, &y, 0.08, 0.02, 5, false, &mut seeded(1)).unwrap();
        let b = pgd(&mut m, &x, &y, 0.08, 0.02, 5, false, &mut seeded(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_noise_is_weaker_than_fgsm() {
        // on a trained-ish model, gradient-aligned perturbations must raise
        // the loss more than random ones of the same magnitude
        let mut m = model(20);
        let (x, y) = batch(21);
        let eps = 0.15;
        let adv = fgsm(&mut m, &x, &y, eps).unwrap();
        let rnd = random_noise(&x, eps, &mut seeded(22));
        let (loss_adv, _) = m.input_gradient(&adv, &y).unwrap();
        let (loss_rnd, _) = m.input_gradient(&rnd, &y).unwrap();
        assert!(loss_adv > loss_rnd, "{loss_adv} vs {loss_rnd}");
        for (a, b) in rnd.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() <= eps + 1e-6);
            assert!((0.0..=1.0).contains(a));
        }
    }

    #[test]
    fn random_attack_dispatches() {
        let mut m = model(23);
        let (x, y) = batch(24);
        let out = craft(&mut m, &x, &y, Attack::random(0.1), &mut seeded(25)).unwrap();
        assert_ne!(out, x);
        assert_eq!(Attack::random(0.1).name(), "Random");
        assert_eq!(Attack::random(0.1).epsilon(), 0.1);
    }

    #[test]
    fn ws_random_start_matches_allocating_formulation() {
        // pgd with zero steps is exactly the random start; it must match
        // the uniform-noise-tensor + add + clamp formulation bit-for-bit
        let mut m = model(30);
        let (x, y) = batch(31);
        let eps = 0.12;
        let noise = ahw_tensor::rng::uniform(x.dims(), -eps, eps, &mut seeded(42));
        let mut expect = x.add(&noise).unwrap();
        expect.clamp_in_place(0.0, 1.0);
        let got = pgd(&mut m, &x, &y, eps, 0.03, 0, true, &mut seeded(42)).unwrap();
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reused_plan_cache_is_deterministic_and_balanced() {
        let mut m = model(32);
        let (x, y) = batch(33);
        let attack = Attack::pgd(0.1);
        let fresh = craft(&mut m, &x, &y, attack, &mut seeded(7)).unwrap();
        let mut cache = PlanCache::new();
        for round in 0..3 {
            let adv = craft_ws(&mut m, &x, &y, attack, &mut seeded(7), &mut cache).unwrap();
            for (a, b) in adv.as_slice().iter().zip(fresh.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round} diverged");
            }
            cache.workspace().recycle_tensor(adv);
        }
        assert_eq!(cache.workspace().outstanding(), 0);
        // one geometry ever seen: the arena was warm from round 2 on
        assert_eq!(cache.compiled_geometries(), 1);
    }

    #[test]
    fn attack_constructors() {
        assert_eq!(Attack::fgsm(0.1).epsilon(), 0.1);
        assert_eq!(Attack::fgsm(0.1).name(), "FGSM");
        let p = Attack::pgd(0.2);
        assert_eq!(p.name(), "PGD");
        match p {
            Attack::Pgd { alpha, steps, .. } => {
                assert!((alpha - 0.05).abs() < 1e-6);
                assert_eq!(steps, 7);
            }
            _ => unreachable!(),
        }
    }
}
