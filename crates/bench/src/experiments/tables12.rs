//! Tables I & II — layer-wise hybrid-memory configurations found by the
//! Fig. 4 methodology, with clean accuracy and its deviation from baseline.

use super::{load_plan, load_trained, store_plan};
use crate::{cache_dir, Scale};
use ahw_attacks::Attack;
use ahw_core::hardware::apply_noise_plan;
use ahw_core::selection::{select_noise_sites, SelectionConfig};
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
    /// Probe FGSM ε the search used (adaptive, see `adaptive_probe_eps`).
    pub probe_eps: f32,
    /// The shortlist threshold that ended up in effect (the paper's 5 %,
    /// relaxed when nothing clears it — printed so runs are honest).
    pub threshold_used: f32,
}

/// Runs the Fig. 4 search for one architecture/dataset and renders its
/// table row. The shortlist threshold starts at the paper's 5 % and relaxes
/// (5 % → 2 % → 0 %) if no site clears it — with the scaled-down networks
/// and synthetic data, absolute improvements can fall below the paper's
/// margin while preserving the ordering.
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
    let plan_key = format!("{}_{}c_w{:.4}_plan", arch.name(), num_classes, scale.width);
    let plans_dir = cache_dir();

    // probe ε: the paper fixes one FGSM strength; with a weaker (100-class,
    // width-scaled) model a too-strong probe floors every configuration at
    // 0 % and nothing can be ranked — pick adaptively.
    let probe_eps = super::adaptive_probe_eps(&spec.model, &images, &labels, scale.batch)?;
    eprintln!("  probe epsilon selected: {probe_eps}");

    let mut threshold_used = 0.05f32;
    let (plan, baseline, combined) = {
        let mut chosen = None;
        for threshold in [0.05f32, 0.02, 0.0] {
            threshold_used = threshold;
            let config = SelectionConfig {
                vdd: 0.68,
                attack: Attack::fgsm(probe_eps),
                improvement_threshold: threshold,
                batch: scale.batch,
                // write-ahead search journal: a killed table run resumes
                // from completed candidates instead of restarting the sweep,
                // and a relaxed threshold replays the sweep (no record
                // depends on the threshold)
                journal: Some(std::path::PathBuf::from(format!(
                    "results/search/{plan_key}.jsonl"
                ))),
                ..SelectionConfig::default()
            };
            let outcome = select_noise_sites(spec, &images, &labels, &config)?;
            let useful = !outcome.plan.sites.is_empty();
            let last_chance = threshold == 0.0;
            if useful || last_chance {
                chosen = Some((outcome.plan, outcome.baseline, outcome.combined));
                break;
            }
        }
        chosen.expect("loop always selects on the final threshold")
    };
    store_plan(&plans_dir, &plan_key, &plan).ok();
    debug_assert!(load_plan(&plans_dir, &plan_key).is_some());

    // clean accuracy of the deployed (noise-injected) model
    let hardware = apply_noise_plan(spec, &plan, 0x0D_E910 ^ num_classes as u64)?;
    let noisy_clean = hardware.accuracy(&images, &labels, scale.batch)?;

    Ok(HybridTable {
        dataset: format!("CIFAR{num_classes}"),
        row: plan.table_row(spec),
        site_labels: spec.sites.iter().map(|s| s.label.clone()).collect(),
        vdd: plan.vdd,
        clean_accuracy: noisy_clean * 100.0,
        deviation: (baseline.clean_accuracy - noisy_clean) * 100.0,
        baseline_adv: baseline.adversarial_accuracy * 100.0,
        plan_adv: combined.adversarial_accuracy * 100.0,
        probe_eps,
        threshold_used,
    })
}
