//! Parameterized experiment implementations, one per paper artifact.
//!
//! Binaries print the returned rows. Every output is a function of its
//! arguments alone: the model cache is keyed on everything that trains a
//! model, and Tables I/II and Fig. 5 take their noise plan from one search
//! (`fig4_search`) whose journal replays only the same model and images.

mod ablations;
mod crossbar_sweeps;
mod defense_compare;
mod fig2;
mod fig5;
mod tables12;

pub use ablations::{run_ablations, AblationRow};
pub use crossbar_sweeps::{crossbar_mode_sweep, r_min_study, table3_size_study, CrossbarSweepRow};
pub use defense_compare::{defense_comparison, DefenseRow};
pub use fig2::{fig2_mu_sweep, Fig2Row};
pub use fig5::{fig5_al_sweep_target, Fig5Series};
pub use tables12::{hybrid_config_table, HybridTable};

use crate::{cache_dir, Scale};
use ahw_attacks::Attack;
use ahw_core::selection::{select_noise_sites, SelectionConfig, SelectionOutcome};
use ahw_core::zoo::{train_or_load, ArchId, TrainedModel};
use ahw_nn::archs::ModelSpec;
use ahw_nn::NnError;
use ahw_tensor::Tensor;
use std::path::PathBuf;

/// Loads (training on a cache miss) the model for `arch`/`num_classes` at
/// the given scale, and slices out the attack-evaluation split.
///
/// # Errors
///
/// Propagates zoo errors.
pub fn load_trained(
    arch: ArchId,
    num_classes: usize,
    scale: &Scale,
) -> Result<(TrainedModel, Tensor, Vec<usize>), NnError> {
    // switching experiment variants invalidates the parked attack-plan
    // arenas (they are sized for the previous model); drop them so a
    // multi-model bin doesn't retain its peak memory forever
    ahw_attacks::clear_plan_pool();
    let zoo_cfg = scale.zoo(arch, num_classes);
    let trained = train_or_load(&cache_dir(), &zoo_cfg)?;
    eprintln!(
        "model {} ({} classes): test accuracy {:.2}% ({})",
        arch.name(),
        num_classes,
        trained.test_accuracy * 100.0,
        if trained.from_cache {
            "cached"
        } else {
            "freshly trained"
        },
    );
    let n = scale.test_size.min(trained.data.test().len());
    let (images, labels) = trained.data.test().batch(0, n);
    Ok((trained, images, labels))
}

/// What the Fig. 4 search of one model selected, and with which settings.
struct Fig4Search {
    /// The search's outcome at the shortlist threshold in effect.
    outcome: SelectionOutcome,
    /// The probe FGSM ε ([`adaptive_probe_eps`]).
    probe_eps: f32,
    /// The shortlist threshold in effect.
    threshold: f32,
}

/// Runs the Fig. 4 search on one trained model: the one search behind
/// Tables I/II and the plans Fig. 5 evaluates. The probe ε is adaptive, and
/// the shortlist threshold starts at the paper's 5 % and relaxes (5 % →
/// 2 % → 0 %) while no site clears it — with the scaled-down networks and
/// synthetic data, absolute improvements can fall below the paper's margin
/// while preserving the ordering.
///
/// Completed candidates go to the write-ahead journal
/// `results/search/<arch>_<classes>c_w<width>_plan.jsonl` (relative to the
/// working directory): a killed run resumes from it, the relaxed passes
/// replay the first pass's sweep, and an `exp_fig5` run after the table
/// runs replays their search. The journal's fingerprint covers the model
/// state and every image, so another model's or scale's journal is
/// discarded rather than replayed.
///
/// # Errors
///
/// Propagates selection/attack errors.
fn fig4_search(
    spec: &ModelSpec,
    images: &Tensor,
    labels: &[usize],
    scale: &Scale,
) -> Result<Fig4Search, NnError> {
    // probe ε: the paper fixes one FGSM strength; with a weaker (100-class,
    // width-scaled) model a too-strong probe floors every configuration at
    // 0 % and nothing can be ranked — pick adaptively.
    let probe_eps = adaptive_probe_eps(&spec.model, images, labels, scale.batch)?;
    eprintln!("  probe epsilon selected: {probe_eps}");
    let journal = PathBuf::from(format!(
        "results/search/{}_{}c_w{:.4}_plan.jsonl",
        spec.name, spec.num_classes, scale.width
    ));
    let search = |threshold: f32| -> Result<Fig4Search, NnError> {
        let config = SelectionConfig {
            vdd: 0.68,
            attack: Attack::fgsm(probe_eps),
            improvement_threshold: threshold,
            batch: scale.batch,
            journal: Some(journal.clone()),
            ..SelectionConfig::default()
        };
        Ok(Fig4Search {
            outcome: select_noise_sites(spec, images, labels, &config)?,
            probe_eps,
            threshold,
        })
    };
    for threshold in [0.05, 0.02] {
        let found = search(threshold)?;
        if !found.outcome.plan.sites.is_empty() {
            return Ok(found);
        }
    }
    search(0.0)
}

/// Picks the strongest probe ε ∈ {0.1, 0.05, 0.02} that leaves the model's
/// baseline adversarial accuracy measurably above zero on a 64-image probe —
/// a saturated probe (0 % at every configuration) cannot rank noise sites.
///
/// # Errors
///
/// Propagates attack errors.
fn adaptive_probe_eps(
    model: &ahw_nn::Sequential,
    images: &Tensor,
    labels: &[usize],
    batch: usize,
) -> Result<f32, NnError> {
    let mut chosen = 0.02f32;
    let n = 64.min(images.dims()[0]);
    let item = images.len() / images.dims()[0].max(1);
    let mut d = images.dims().to_vec();
    d[0] = n;
    let probe_images =
        Tensor::from_vec(images.as_slice()[..n * item].to_vec(), &d).map_err(NnError::Tensor)?;
    let probe_labels = &labels[..n];
    for eps in [0.1f32, 0.05, 0.02] {
        chosen = eps;
        let base = ahw_attacks::evaluate_attack(
            model,
            model,
            &probe_images,
            probe_labels,
            ahw_attacks::Attack::fgsm(eps),
            batch,
        )?;
        if base.adversarial_accuracy >= 0.03 {
            break;
        }
    }
    Ok(chosen)
}

/// The FGSM ε grid of Fig. 5 (pixel-unit strengths 0.05 … 0.3).
pub const FIG5_EPSILONS: [f32; 6] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30];

/// The ε grid of Figs. 6–7 / Table III: {2, 4, 8, 16, 32}/255.
pub fn eps_255() -> Vec<f32> {
    [2.0, 4.0, 8.0, 16.0, 32.0]
        .iter()
        .map(|e| e / 255.0)
        .collect()
}

/// Formats a `k/255` ε for table headers.
pub fn eps_label(eps: f32) -> String {
    format!("{}/255", (eps * 255.0).round() as u32)
}
