//! Tables I & II — layer-wise hybrid-memory configurations found by the
//! Fig. 4 methodology, with clean accuracy and its deviation from baseline.

use super::{fig4_search, load_trained, Fig4Search};
use crate::Scale;
use ahw_core::hardware::apply_noise_plan;
use ahw_core::zoo::ArchId;
use ahw_nn::NnError;

/// One dataset row of Table I / II.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridTable {
    /// Dataset tag (`"CIFAR10"`-like / `"CIFAR100"`-like).
    pub dataset: String,
    /// Per-site cell (`"H"` or an `8T/6T` ratio), in site order.
    pub row: Vec<String>,
    /// Site labels for the header.
    pub site_labels: Vec<String>,
    /// Supply voltage of the plan.
    pub vdd: f32,
    /// Clean accuracy of the noise-injected model, percent.
    pub clean_accuracy: f32,
    /// Deviation from the baseline clean accuracy, percentage points.
    pub deviation: f32,
    /// Baseline adversarial accuracy at the probe ε, percent.
    pub baseline_adv: f32,
    /// Combined-plan adversarial accuracy at the probe ε, percent.
    pub plan_adv: f32,
    /// Probe FGSM ε the search used (adaptive, see `fig4_search`).
    pub probe_eps: f32,
    /// The shortlist threshold that ended up in effect (the paper's 5 %,
    /// relaxed when nothing clears it — printed so runs are honest).
    pub threshold_used: f32,
}

/// Runs the Fig. 4 search for one architecture/dataset (see
/// `fig4_search`: adaptive probe ε, 5 % → 2 % → 0 % shortlist threshold,
/// journaled) and renders its table row.
///
/// # Errors
///
/// Propagates zoo/selection errors.
pub fn hybrid_config_table(
    arch: ArchId,
    num_classes: usize,
    scale: &Scale,
) -> Result<HybridTable, NnError> {
    let (trained, images, labels) = load_trained(arch, num_classes, scale)?;
    let spec = &trained.spec;
    let Fig4Search {
        outcome,
        probe_eps,
        threshold,
    } = fig4_search(spec, &images, &labels, scale)?;
    let plan = &outcome.plan;

    // clean accuracy of the deployed (noise-injected) model
    let hardware = apply_noise_plan(spec, plan, 0x0D_E910 ^ num_classes as u64)?;
    let noisy_clean = hardware.accuracy(&images, &labels, scale.batch)?;

    Ok(HybridTable {
        dataset: format!("CIFAR{num_classes}"),
        row: plan.table_row(spec),
        site_labels: spec.sites.iter().map(|s| s.label.clone()).collect(),
        vdd: plan.vdd,
        clean_accuracy: noisy_clean * 100.0,
        deviation: (outcome.baseline.clean_accuracy - noisy_clean) * 100.0,
        baseline_adv: outcome.baseline.adversarial_accuracy * 100.0,
        plan_adv: outcome.combined.adversarial_accuracy * 100.0,
        probe_eps,
        threshold_used: threshold,
    })
}
