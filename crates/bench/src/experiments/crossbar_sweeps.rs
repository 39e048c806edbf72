//! Crossbar robustness experiments: Figs. 6–7, Table III, Fig. 8(a).

use super::{eps_255, load_trained};
use crate::Scale;
use ahw_attacks::{craft_attack, evaluate_crafted, evaluate_mode, Attack, AttackMode};
use ahw_core::hardware::crossbar_variant;
use ahw_core::zoo::ArchId;
use ahw_crossbar::{CrossbarConfig, DeviceParams};
use ahw_nn::NnError;

/// One measured point of a crossbar sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarSweepRow {
    /// Crossbar edge (16/32/64).
    pub size: usize,
    /// `"FGSM"` / `"PGD"`.
    pub attack: String,
    /// `"Attack-SW"` / `"SH"` / `"HH"`.
    pub mode: String,
    /// Attack ε (pixel units).
    pub epsilon: f32,
    /// Adversarial Loss, percentage points.
    pub al: f32,
    /// Clean accuracy of the evaluated model, percent.
    pub clean: f32,
    /// `R_MIN` of the device (for the Fig. 8(a) study).
    pub r_min: f32,
}

fn attack_at(kind: &str, eps: f32, pgd_steps: usize) -> Attack {
    match kind {
        "FGSM" => Attack::fgsm(eps),
        _ => Attack::Pgd {
            epsilon: eps,
            alpha: eps / 4.0,
            steps: pgd_steps,
            random_start: true,
        },
    }
}

/// The Figs. 6/7 sweep: for each crossbar size, attack kind, mode and ε,
/// measure AL of the crossbar-mapped model (or the software baseline for
/// `Attack-SW`).
///
/// Attack-SW and SH both take their gradients from the software model, so
/// each (size, attack, ε) is crafted once and both rows are scored on that
/// tensor; HH crafts against the mapped model. Rows come out in (size,
/// attack, mode, ε) order.
///
/// # Errors
///
/// Propagates zoo/mapping/attack errors.
pub fn crossbar_mode_sweep(
    arch: ArchId,
    num_classes: usize,
    sizes: &[usize],
    scale: &Scale,
) -> Result<Vec<CrossbarSweepRow>, NnError> {
    let (trained, images, labels) = load_trained(arch, num_classes, scale)?;
    let software = &trained.spec.model;
    let mut rows = Vec::new();
    for &size in sizes {
        let (hardware, report) = crossbar_variant(software, &CrossbarConfig::paper_default(size))?;
        eprintln!(
            "crossbar {size}x{size}: {} matrices on {} tiles",
            report.matrices, report.tiles
        );
        for attack_kind in ["FGSM", "PGD"] {
            // one row list per mode, filled ε by ε, appended mode by mode
            let mut by_mode: [Vec<CrossbarSweepRow>; 3] = Default::default();
            for eps in eps_255() {
                let attack = attack_at(attack_kind, eps, scale.pgd_steps);
                let adversarial = craft_attack(software, &images, &labels, attack, scale.batch)?;
                let score =
                    |model| evaluate_crafted(model, &images, &adversarial, &labels, scale.batch);
                let (sw, sh) = (score(software)?, score(&hardware)?);
                let hh = evaluate_mode(
                    software,
                    &hardware,
                    AttackMode::Hh,
                    &images,
                    &labels,
                    attack,
                    scale.batch,
                )?;
                let modes = [AttackMode::AttackSw, AttackMode::Sh, AttackMode::Hh];
                for ((mode_rows, mode), outcome) in by_mode.iter_mut().zip(modes).zip([sw, sh, hh])
                {
                    mode_rows.push(CrossbarSweepRow {
                        size,
                        attack: attack_kind.to_string(),
                        mode: mode.label().to_string(),
                        epsilon: eps,
                        al: outcome.adversarial_loss(),
                        clean: outcome.clean_accuracy * 100.0,
                        r_min: 20e3,
                    });
                }
            }
            rows.extend(by_mode.into_iter().flatten());
        }
    }
    Ok(rows)
}

/// Table III: HH-mode PGD ALs across crossbar sizes 16/32/64.
///
/// # Errors
///
/// Propagates zoo/mapping/attack errors.
pub fn table3_size_study(scale: &Scale) -> Result<Vec<CrossbarSweepRow>, NnError> {
    let (trained, images, labels) = load_trained(ArchId::Vgg8, 10, scale)?;
    let software = &trained.spec.model;
    let mut rows = Vec::new();
    for size in [16usize, 32, 64] {
        let (hardware, _) = crossbar_variant(software, &CrossbarConfig::paper_default(size))?;
        for eps in eps_255() {
            let attack = attack_at("PGD", eps, scale.pgd_steps);
            let outcome = evaluate_mode(
                software,
                &hardware,
                AttackMode::Hh,
                &images,
                &labels,
                attack,
                scale.batch,
            )?;
            rows.push(CrossbarSweepRow {
                size,
                attack: "PGD".into(),
                mode: "HH".into(),
                epsilon: eps,
                al: outcome.adversarial_loss(),
                clean: outcome.clean_accuracy * 100.0,
                r_min: 20e3,
            });
        }
    }
    Ok(rows)
}

/// Fig. 8(a): SH and HH PGD ALs for `R_MIN` = 20 kΩ vs 10 kΩ at constant
/// ON/OFF ratio, on 32×32 crossbars.
///
/// # Errors
///
/// Propagates zoo/mapping/attack errors.
pub fn r_min_study(scale: &Scale, epsilon: f32) -> Result<Vec<CrossbarSweepRow>, NnError> {
    let (trained, images, labels) = load_trained(ArchId::Vgg8, 10, scale)?;
    let software = &trained.spec.model;
    let mut rows = Vec::new();
    for r_min in [20e3f32, 10e3] {
        let mut config = CrossbarConfig::paper_default(32);
        config.device = DeviceParams::with_r_min(r_min);
        let (hardware, _) = crossbar_variant(software, &config)?;
        for mode in [AttackMode::Sh, AttackMode::Hh] {
            let attack = attack_at("PGD", epsilon, scale.pgd_steps);
            let outcome = evaluate_mode(
                software,
                &hardware,
                mode,
                &images,
                &labels,
                attack,
                scale.batch,
            )?;
            rows.push(CrossbarSweepRow {
                size: 32,
                attack: "PGD".into(),
                mode: mode.label().to_string(),
                epsilon,
                al: outcome.adversarial_loss(),
                clean: outcome.clean_accuracy * 100.0,
                r_min,
            });
        }
    }
    Ok(rows)
}
