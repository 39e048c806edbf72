//! Ablations of the design choices called out in DESIGN.md §6:
//!
//! 1. bit-error noise in **activations vs weights** (the paper reports
//!    activations win);
//! 2. noise **visible vs invisible** to the attacker's gradient (the paper
//!    excludes it — gradient obfuscation);
//! 3. crossbar **ADC calibration** modes (none / per-layer / per-column);
//! 4. **searched hybrid plan vs homogeneous all-6T** memories everywhere.

use super::load_trained;
use crate::Scale;
use ahw_attacks::{evaluate_attack, Attack, AttackOutcome};
use ahw_core::hardware::{
    apply_noise_plan, apply_weight_noise_plan, crossbar_variant, NoisePlan, PlannedSite,
};
use ahw_core::selection::{select_noise_sites, SelectionConfig};
use ahw_core::zoo::ArchId;
use ahw_crossbar::{Calibration, CrossbarConfig};
use ahw_nn::NnError;
use ahw_sram::{HybridMemoryConfig, HybridWordConfig};

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Which ablation the row belongs to.
    pub study: String,
    /// The variant measured.
    pub variant: String,
    /// Clean accuracy, percent.
    pub clean: f32,
    /// Adversarial accuracy, percent.
    pub adversarial: f32,
    /// Adversarial Loss, percentage points.
    pub al: f32,
}

impl AblationRow {
    fn new(study: &str, variant: &str, outcome: AttackOutcome) -> Self {
        AblationRow {
            study: study.to_string(),
            variant: variant.to_string(),
            clean: outcome.clean_accuracy * 100.0,
            adversarial: outcome.adversarial_accuracy * 100.0,
            al: outcome.adversarial_loss(),
        }
    }
}

/// Runs all four ablations on the VGG8 / CIFAR-10 setting.
///
/// # Errors
///
/// Propagates zoo/selection/mapping/attack errors.
pub fn run_ablations(scale: &Scale) -> Result<Vec<AblationRow>, NnError> {
    let (trained, images, labels) = load_trained(ArchId::Vgg8, 10, scale)?;
    let spec = &trained.spec;
    let attack = Attack::fgsm(0.1);
    let mut rows = Vec::new();

    // shared: a noise plan from a fixed-ε (FGSM 0.1) search
    let mut plan = select_noise_sites(
        spec,
        &images,
        &labels,
        &SelectionConfig {
            improvement_threshold: 0.0,
            batch: scale.batch,
            ..SelectionConfig::default()
        },
    )?
    .plan;
    if plan.sites.is_empty() {
        // the search can legitimately come up empty (no site beats the
        // baseline); the ablations still need *some* noise to contrast, so
        // fall back to a strong early-site configuration
        plan = NoisePlan {
            vdd: 0.62,
            sites: vec![PlannedSite {
                site_index: 0,
                config: HybridMemoryConfig::new(
                    HybridWordConfig::new(2, 6).map_err(|e| NnError::BadConfig(e.to_string()))?,
                    0.62,
                )
                .map_err(|e| NnError::BadConfig(e.to_string()))?,
            }],
        };
    }
    eprintln!(
        "ablation noise plan: {} site(s) at Vdd {:.2} V",
        plan.sites.len(),
        plan.vdd
    );

    // baseline
    let baseline = evaluate_attack(
        &spec.model,
        &spec.model,
        &images,
        &labels,
        attack,
        scale.batch,
    )?;
    rows.push(AblationRow::new(
        "noise-target",
        "software baseline",
        baseline,
    ));

    // ablation 1: activations vs weights. The same (attacker, deployed)
    // pair is also ablation 2's paper row and ablation 4's searched plan,
    // so it is evaluated once for all three.
    let act_model = apply_noise_plan(spec, &plan, 0xAB1)?;
    let act = evaluate_attack(
        &spec.model,
        &act_model,
        &images,
        &labels,
        attack,
        scale.batch,
    )?;
    rows.push(AblationRow::new("noise-target", "activation memories", act));
    let w_model = apply_weight_noise_plan(spec, &plan, 0xAB1)?;
    let weights = evaluate_attack(&spec.model, &w_model, &images, &labels, attack, scale.batch)?;
    rows.push(AblationRow::new(
        "noise-target",
        "parameter memories",
        weights,
    ));

    // ablation 2: is the noise visible to the attacker's gradient?
    rows.push(AblationRow::new(
        "gradient-visibility",
        "noise hidden from attacker (paper)",
        act,
    ));
    let visible = evaluate_attack(
        &act_model,
        &act_model,
        &images,
        &labels,
        attack,
        scale.batch,
    )?;
    rows.push(AblationRow::new(
        "gradient-visibility",
        "noise visible to attacker",
        visible,
    ));

    // ablation 3: crossbar calibration modes
    for (calibration, name) in [
        (Calibration::None, "no calibration"),
        (Calibration::PerLayer, "per-layer ADC gain"),
        (Calibration::PerColumn, "per-column ADC gain"),
    ] {
        let mut config = CrossbarConfig::paper_default(32);
        config.calibration = calibration;
        let (hardware, _) = crossbar_variant(&spec.model, &config)?;
        let outcome = evaluate_attack(
            &spec.model,
            &hardware,
            &images,
            &labels,
            attack,
            scale.batch,
        )?;
        rows.push(AblationRow::new("crossbar-calibration", name, outcome));
    }

    // ablation 4: searched hybrid plan vs all-6T everywhere at the same Vdd
    rows.push(AblationRow::new(
        "plan-vs-homogeneous",
        "searched hybrid plan",
        act,
    ));
    let all6_plan = NoisePlan {
        vdd: plan.vdd,
        sites: (0..spec.sites.len())
            .map(|site_index| {
                Ok(PlannedSite {
                    site_index,
                    config: HybridMemoryConfig::new(HybridWordConfig::homogeneous_6t(), plan.vdd)
                        .map_err(|e| NnError::BadConfig(e.to_string()))?,
                })
            })
            .collect::<Result<Vec<_>, NnError>>()?,
    };
    let all6_model = apply_noise_plan(spec, &all6_plan, 0xAB2)?;
    let all6 = evaluate_attack(
        &spec.model,
        &all6_model,
        &images,
        &labels,
        attack,
        scale.batch,
    )?;
    rows.push(AblationRow::new(
        "plan-vs-homogeneous",
        "all-6T at every site",
        all6,
    ));
    Ok(rows)
}
