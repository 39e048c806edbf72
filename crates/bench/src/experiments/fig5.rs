//! Fig. 5 — Adversarial Loss vs FGSM ε, baseline vs bit-error-noise models,
//! for VGG19 and ResNet18 on both datasets.

use super::{fig4_search, load_trained, FIG5_EPSILONS};
use crate::Scale;
use ahw_attacks::{sweep_epsilons, Attack};
use ahw_core::hardware::{apply_noise_plan, apply_weight_noise_plan};
use ahw_core::zoo::ArchId;
use ahw_nn::NnError;

/// One curve pair of Fig. 5: AL(ε) for the baseline and the noise-injected
/// model of one architecture/dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Series {
    /// `"vgg19"` / `"resnet18"`.
    pub arch: String,
    /// Dataset tag.
    pub dataset: String,
    /// The ε grid.
    pub epsilons: Vec<f32>,
    /// Baseline AL per ε (percentage points).
    pub baseline_al: Vec<f32>,
    /// Noise-injected AL per ε.
    pub noisy_al: Vec<f32>,
    /// How many sites the plan noise-injects.
    pub plan_sites: usize,
    /// Which memory the noise targets (`"activations"` / `"weights"`).
    pub noise_target: String,
}

/// Regenerates one Fig. 5 curve pair on the plan the Tables I/II search
/// selects for the model (`fig4_search`; after a table run of the same
/// model, its journal replays that search). When `weight_noise` is true the
/// plan corrupts parameter memories instead of activation memories — the
/// paper's activations-vs-weights ablation (§III-A reports it as the weaker
/// defense).
///
/// # Errors
///
/// Propagates zoo/selection/attack errors.
pub fn fig5_al_sweep_target(
    arch: ArchId,
    num_classes: usize,
    scale: &Scale,
    weight_noise: bool,
) -> Result<Fig5Series, NnError> {
    let (trained, images, labels) = load_trained(arch, num_classes, scale)?;
    let spec = &trained.spec;
    let plan = fig4_search(spec, &images, &labels, scale)?.outcome.plan;
    let hardware = if weight_noise {
        apply_weight_noise_plan(spec, &plan, 0xF165 ^ num_classes as u64)?
    } else {
        apply_noise_plan(spec, &plan, 0xF165 ^ num_classes as u64)?
    };

    // baseline: white-box FGSM on the software model
    let baseline = sweep_epsilons(
        &spec.model,
        &spec.model,
        &images,
        &labels,
        Attack::fgsm(0.1),
        &FIG5_EPSILONS,
        scale.batch,
    )?;
    // noisy: gradients from the clean model (paper protocol), evaluated on
    // the bit-error-injected model
    let noisy = sweep_epsilons(
        &spec.model,
        &hardware,
        &images,
        &labels,
        Attack::fgsm(0.1),
        &FIG5_EPSILONS,
        scale.batch,
    )?;
    Ok(Fig5Series {
        arch: arch.name().to_string(),
        dataset: format!("CIFAR{num_classes}"),
        epsilons: FIG5_EPSILONS.to_vec(),
        baseline_al: baseline.iter().map(|(_, o)| o.adversarial_loss()).collect(),
        noisy_al: noisy.iter().map(|(_, o)| o.adversarial_loss()).collect(),
        plan_sites: plan.sites.len(),
        noise_target: if weight_noise {
            "weights"
        } else {
            "activations"
        }
        .to_string(),
    })
}
