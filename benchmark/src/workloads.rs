//! The four workloads: how each one sets up, and what one pass of its timed
//! section calls.
//!
//! Every workload is a closed-loop batch job: one process calls the public
//! API back to back, each call starting when the previous one returns. A
//! pass is a fixed list of calls, so a pass's wall time is the inverse of
//! throughput at the stated size.

use crate::measure::{Digest, Recorder};
use ahw_attacks::{evaluate_mode, Attack, AttackMode, AttackOutcome};
use ahw_core::hardware::{apply_noise_plan, crossbar_variant, NoisePlan, PlannedSite};
use ahw_core::selection::{select_noise_sites, SelectionConfig};
use ahw_core::zoo::ArchId;
use ahw_crossbar::{CrossbarConfig, DeviceParams};
use ahw_datasets::{DatasetConfig, SyntheticCifar};
use ahw_nn::archs::ModelSpec;
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_nn::{NnError, Sequential};
use ahw_sram::{HybridMemoryConfig, HybridWordConfig};
use ahw_telemetry as telemetry;
use ahw_tensor::{rng, Tensor};

/// Supply voltage of every SRAM plan (the paper's Table I operating point).
const VDD: f32 = 0.68;
/// FGSM strength of the SRAM workloads: a point of the Fig. 5 grid, and
/// the Fig. 4 probe.
const FGSM_EPS: f32 = 0.1;
/// PGD strength of `sram_pgd`: the middle of the Figs. 6–7 grid.
const PGD_EPS: f32 = 8.0 / 255.0;
/// Strengths of `xbar_pgd`, from the Figs. 6–7 grid `{2..32}/255`. Attack
/// cost does not depend on ε; two points keep mapping a small share of the
/// pass, as it is in the full sweep.
const XBAR_EPS: [f32; 2] = [4.0 / 255.0, 16.0 / 255.0];
/// Shortlist threshold of the search. Below any possible gain, so every
/// swept site is shortlisted and the combine phase evaluates all
/// `2^sites - 1` combinations: the same work for every seed.
const SEARCH_THRESHOLD: f32 = -1.0;
/// Base of the SRAM plans' noise streams (the `exp_fig5` seed, 10 classes).
const PLAN_NOISE_SEED: u64 = 0xF165 ^ 10;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4 layer search on a trained VGG19: many short FGSM evaluations
    /// fanned out over the pool, SRAM hook on.
    Fig4Search,
    /// SW/SH/HH FGSM and PGD-5 on VGG19 under two SRAM noise plans: the
    /// backward-heavy path with bit-error injection on every hooked forward.
    SramPgd,
    /// SW/SH/HH FGSM and PGD-5 on crossbar-mapped VGG8: the same attack path
    /// with no SRAM hook.
    XbarPgd,
    /// Crossbar mapping of an untrained VGG16 over sizes × `R_MIN`: tile
    /// programming and mesh relaxation only.
    XbarMap,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Search,
        Workload::SramPgd,
        Workload::XbarPgd,
        Workload::XbarMap,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Search => "fig4_search",
            Workload::SramPgd => "sram_pgd",
            Workload::XbarPgd => "xbar_pgd",
            Workload::XbarMap => "xbar_map",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a workload does: the benchmark's scale, or a miniature
/// one for tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Size {
    /// Channel-width multiplier of the trained networks.
    pub width: f32,
    /// Training images.
    pub train_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Images attacked by each `evaluate_mode` call, and the search's full
    /// set.
    pub attack_images: usize,
    /// Evaluation batch size.
    pub batch: usize,
    /// PGD iterations.
    pub pgd_steps: usize,
    /// VGG19 sites the Fig. 4 search sweeps (8 six-T counts each).
    pub search_sites: Vec<usize>,
    /// Probe images per search candidate.
    pub search_subset: usize,
    /// Channel-width multiplier of the mapped VGG16.
    pub map_width: f32,
    /// Crossbar sizes of the `xbar_map` sweep.
    pub map_sizes: Vec<usize>,
}

impl Size {
    /// The benchmark's size (see the README for why it is smaller than the
    /// `exp_*` default scale).
    pub fn standard() -> Size {
        // Every image count is a multiple of the batch: with a ragged last
        // batch, which parked plan arena served it decided the peak memory
        // and the pass time, and both varied from run to run.
        Size {
            width: 0.0625,
            train_size: 800,
            epochs: 2,
            attack_images: 150,
            batch: 50,
            pgd_steps: 5,
            search_sites: vec![1, 5, 10],
            search_subset: 50,
            map_width: 0.125,
            map_sizes: vec![16, 32, 64],
        }
    }

    /// A miniature size for tests: every code path, a fraction of the work.
    pub fn mini() -> Size {
        Size {
            width: 0.0625,
            train_size: 40,
            epochs: 1,
            attack_images: 8,
            batch: 4,
            pgd_steps: 2,
            search_sites: vec![1, 5],
            search_subset: 4,
            map_width: 0.0625,
            map_sizes: vec![16],
        }
    }
}

/// The command-line seed. It is XORed into four seeds: the dataset, the
/// model initialisation (which training also shuffles from), the crossbar
/// process variation and the SRAM noise streams. Seed 0 therefore
/// reproduces the `exp_*` binaries' seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed(pub u64);

impl Seed {
    fn data(self) -> u64 {
        DatasetConfig::cifar10_like().seed ^ self.0
    }

    fn init(self, classes: usize) -> u64 {
        0xA0_0A ^ classes as u64 ^ self.0
    }

    fn xbar(self) -> u64 {
        CrossbarConfig::paper_default(16).seed ^ self.0
    }

    fn noise(self, base: u64) -> u64 {
        base ^ self.0
    }
}

/// A trained 10-class network and the images its attacks use.
pub struct Trained {
    spec: ModelSpec,
    /// `(attack_images, 3, 32, 32)`.
    images: Tensor,
    labels: Vec<usize>,
}

/// What setup hands the timed section.
pub enum Prepared {
    /// For `fig4_search`, `sram_pgd` and `xbar_pgd`.
    Trained(Trained),
    /// The untrained network `xbar_map` maps.
    Untrained(Sequential),
}

/// Builds a workload's inputs: the synthetic dataset, the network, and (for
/// the attack workloads) a trained model. Calls `generate`, `build` and
/// `fit` directly: no checkpoint cache, so every setup does the same work.
///
/// # Errors
///
/// Propagates model-building and training errors.
pub fn setup(workload: Workload, size: &Size, seed: Seed) -> Result<Prepared, NnError> {
    let arch = match workload {
        Workload::Fig4Search | Workload::SramPgd => ArchId::Vgg19,
        Workload::XbarPgd => ArchId::Vgg8,
        Workload::XbarMap => {
            let _span = telemetry::span("bench.core.build");
            let spec = ArchId::Vgg16.build(100, size.map_width, seed.init(100))?;
            return Ok(Prepared::Untrained(spec.model));
        }
    };
    let data = {
        let _span = telemetry::span("bench.datasets.generate");
        let config = DatasetConfig::cifar10_like()
            .with_sizes(size.train_size, size.attack_images)
            .with_seed(seed.data());
        SyntheticCifar::generate(&config)
    };
    let mut spec = {
        let _span = telemetry::span("bench.core.build");
        arch.build(10, size.width, seed.init(10))?
    };
    {
        let _span = telemetry::span("bench.nn.fit");
        let mut trainer = Trainer::new(TrainConfig {
            epochs: size.epochs,
            batch_size: 32,
            ..TrainConfig::default()
        });
        trainer.fit(
            &mut spec.model,
            data.train().images(),
            data.train().labels(),
            &mut rng::seeded(seed.init(10) ^ 0x7EA1),
        )?;
    }
    let (images, labels) = data.test().batch(0, size.attack_images);
    Ok(Prepared::Trained(Trained {
        spec,
        images,
        labels,
    }))
}

/// Training images processed by one setup (0 when it does not train).
pub(crate) fn images_trained(workload: Workload, size: &Size) -> usize {
    match workload {
        Workload::XbarMap => 0,
        _ => size.train_size * size.epochs,
    }
}

/// The workload's PGD-5 at strength `epsilon`, `α = ε/4` with a random
/// start, as in the Figs. 6–7 sweeps.
fn pgd(epsilon: f32, size: &Size) -> Attack {
    Attack::Pgd {
        epsilon,
        alpha: epsilon / 4.0,
        steps: size.pgd_steps,
        random_start: true,
    }
}

/// The same `eight_t/six_t` word at every listed site, at [`VDD`].
fn sram_plan(sites: &[usize], eight_t: u8, six_t: u8) -> NoisePlan {
    let word = HybridWordConfig::new(eight_t, six_t).expect("eight_t + six_t = 8");
    let config = HybridMemoryConfig::new(word, VDD).expect("VDD is in the modelled range");
    NoisePlan {
        vdd: VDD,
        sites: sites
            .iter()
            .map(|&site_index| PlannedSite { site_index, config })
            .collect(),
    }
}

fn fold_outcome(digest: &mut Digest, outcome: &AttackOutcome) {
    digest.f32(outcome.clean_accuracy);
    digest.f32(outcome.adversarial_accuracy);
}

impl Trained {
    /// One `evaluate_mode` call: timed, checked and folded into the
    /// digest. PGD calls are the pass's primary ops; FGSM calls, about a
    /// third as long, count toward the pass time only, so the op median
    /// falls inside one cluster of latencies.
    fn attack(
        &self,
        rec: &mut Recorder,
        hardware: &Sequential,
        mode: AttackMode,
        attack: Attack,
        batch: usize,
    ) {
        let call = || {
            let _span = telemetry::span("bench.attacks.evaluate_mode");
            let (software, images, labels) = (&self.spec.model, &self.images, &self.labels);
            evaluate_mode(software, hardware, mode, images, labels, attack, batch)
        };
        let outcome = if matches!(attack, Attack::Pgd { .. }) {
            rec.op(call)
        } else {
            rec.call(call)
        };
        if let Some(outcome) = outcome {
            let valid = (0.0..=1.0).contains(&outcome.clean_accuracy)
                && (0.0..=1.0).contains(&outcome.adversarial_accuracy);
            rec.check(valid, "attack accuracy outside [0, 1]");
            fold_outcome(&mut rec.digest, &outcome);
        }
    }
}

/// One `crossbar_variant` call: timed, checked and folded into the digest
/// (every effective weight plus the mapping report). Returns the hardware
/// model, or `None` if mapping failed.
fn map(
    rec: &mut Recorder,
    software: &Sequential,
    config: &CrossbarConfig,
    primary: bool,
) -> Option<Sequential> {
    let call = || {
        let _span = telemetry::span("bench.core.crossbar_variant");
        crossbar_variant(software, config)
    };
    let (mut hardware, report) = if primary {
        rec.op(call)?
    } else {
        rec.call(call)?
    };
    let d = &mut rec.digest;
    d.u64(report.matrices as u64);
    d.u64(report.tiles as u64);
    d.u64(report.cells as u64);
    let mut cells = 0;
    hardware.visit_state(&mut |name, tensor| {
        if name.ends_with(".weight") && tensor.rank() == 2 {
            cells += tensor.len();
            d.f32s(tensor.as_slice());
        }
    });
    rec.check(report.cells == cells, "mapping report cell count");
    rec.mapped_cells += cells as u64;
    Some(hardware)
}

/// Runs one pass of a workload's timed section into `rec`.
///
/// # Panics
///
/// If `prepared` did not come from `setup` for `workload`.
pub(crate) fn pass(
    workload: Workload,
    prepared: &Prepared,
    size: &Size,
    seed: Seed,
    rec: &mut Recorder,
) {
    match (workload, prepared) {
        (Workload::Fig4Search, Prepared::Trained(t)) => search_pass(t, size, seed, rec),
        (Workload::SramPgd, Prepared::Trained(t)) => sram_pass(t, size, seed, rec),
        (Workload::XbarPgd, Prepared::Trained(t)) => xbar_pass(t, size, seed, rec),
        (Workload::XbarMap, Prepared::Untrained(model)) => map_pass(model, size, seed, rec),
        _ => panic!("{} needs the inputs its setup builds", workload.name()),
    }
}

/// `xbar_map`: the untrained net at every crossbar size and both `R_MIN`
/// values of Fig. 8(a).
fn map_pass(model: &Sequential, size: &Size, seed: Seed, rec: &mut Recorder) {
    for &edge in &size.map_sizes {
        for r_min in [20e3f32, 10e3] {
            let config = CrossbarConfig {
                device: DeviceParams::with_r_min(r_min),
                seed: seed.xbar(),
                ..CrossbarConfig::paper_default(edge)
            };
            map(rec, model, &config, true);
        }
    }
}

/// `fig4_search`: one `select_noise_sites` call over `size.search_sites`.
fn search_pass(t: &Trained, size: &Size, seed: Seed, rec: &mut Recorder) {
    let searched = ModelSpec {
        model: t.spec.model.clone(),
        sites: size
            .search_sites
            .iter()
            .map(|&i| t.spec.sites[i].clone())
            .collect(),
        name: t.spec.name.clone(),
        num_classes: t.spec.num_classes,
    };
    let config = SelectionConfig {
        vdd: VDD,
        attack: Attack::fgsm(FGSM_EPS),
        improvement_threshold: SEARCH_THRESHOLD,
        batch: size.batch,
        search_subset: size.search_subset,
        seed: seed.noise(SelectionConfig::default().seed),
        journal: None,
        ..SelectionConfig::default()
    };
    let outcome = rec.op(|| {
        let _span = telemetry::span("bench.core.select_noise_sites");
        select_noise_sites(&searched, &t.images, &t.labels, &config)
    });
    let Some(outcome) = outcome else { return };
    rec.check(
        outcome.per_site.len() == searched.sites.len(),
        "one search result per site",
    );
    rec.check(
        outcome.plan.sites.iter().all(|p| {
            outcome
                .per_site
                .get(p.site_index)
                .is_some_and(|s| s.shortlisted)
        }),
        "plan holds only shortlisted sites",
    );
    let d = &mut rec.digest;
    fold_outcome(d, &outcome.baseline);
    fold_outcome(d, &outcome.combined);
    for site in &outcome.per_site {
        d.u64(site.site_index as u64);
        d.u64(u64::from(site.config.word().six_t()));
        d.f32(site.adversarial_accuracy);
        d.u64(u64::from(site.shortlisted));
    }
    d.f32(outcome.plan.vdd);
    for planned in &outcome.plan.sites {
        d.u64(planned.site_index as u64);
        d.u64(u64::from(planned.config.word().six_t()));
    }
}

/// `sram_pgd`: SW, then SH and HH under a Table I-style hybrid plan and
/// under the all-6T plan (the maximum flip density), each with FGSM and
/// PGD-5.
fn sram_pass(t: &Trained, size: &Size, seed: Seed, rec: &mut Recorder) {
    let attacks = [Attack::fgsm(FGSM_EPS), pgd(PGD_EPS, size)];
    for attack in attacks {
        t.attack(rec, &t.spec.model, AttackMode::AttackSw, attack, size.batch);
    }
    let all_sites: Vec<usize> = (0..t.spec.sites.len()).collect();
    for plan in [sram_plan(&[1, 5, 10], 2, 6), sram_plan(&all_sites, 0, 8)] {
        let hardware = rec.call(|| {
            let _span = telemetry::span("bench.core.apply_noise_plan");
            apply_noise_plan(&t.spec, &plan, seed.noise(PLAN_NOISE_SEED))
        });
        let Some(hardware) = hardware else { continue };
        for mode in [AttackMode::Sh, AttackMode::Hh] {
            for attack in attacks {
                t.attack(rec, &hardware, mode, attack, size.batch);
            }
        }
    }
}

/// `xbar_pgd`: SW, then Fig. 6's SH and HH on 16×16 and 32×32 crossbars
/// and Table III's HH PGD on 64×64, each with FGSM and PGD-5 over
/// [`XBAR_EPS`].
fn xbar_pass(t: &Trained, size: &Size, seed: Seed, rec: &mut Recorder) {
    let software = &t.spec.model;
    let attacks: Vec<Attack> = XBAR_EPS
        .iter()
        .flat_map(|&eps| [Attack::fgsm(eps), pgd(eps, size)])
        .collect();
    for &attack in &attacks {
        t.attack(rec, software, AttackMode::AttackSw, attack, size.batch);
    }
    let crossbar = |edge: usize| CrossbarConfig {
        seed: seed.xbar(),
        ..CrossbarConfig::paper_default(edge)
    };
    for edge in [16, 32] {
        let Some(hardware) = map(rec, software, &crossbar(edge), false) else {
            continue;
        };
        for mode in [AttackMode::Sh, AttackMode::Hh] {
            for &attack in &attacks {
                t.attack(rec, &hardware, mode, attack, size.batch);
            }
        }
    }
    if let Some(hardware) = map(rec, software, &crossbar(64), false) {
        for &eps in &XBAR_EPS {
            t.attack(rec, &hardware, AttackMode::Hh, pgd(eps, size), size.batch);
        }
    }
}
