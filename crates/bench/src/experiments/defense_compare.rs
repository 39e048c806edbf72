//! Fig. 8(b)–(c): crossbar non-ideality robustness vs the software
//! defenses — 4-bit input discretization and QUANOS.

use super::load_trained;
use crate::Scale;
use ahw_attacks::{evaluate_attack, evaluate_mode, Attack, AttackMode};
use ahw_core::hardware::crossbar_variant;
use ahw_core::zoo::ArchId;
use ahw_crossbar::CrossbarConfig;
use ahw_defenses::{PixelDiscretization, Quanos};
use ahw_nn::NnError;

/// One bar of the Fig. 8(b)/(c) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseRow {
    /// `"FGSM"` or `"PGD"`.
    pub attack: String,
    /// Method label.
    pub method: String,
    /// Adversarial Loss, percentage points.
    pub al: f32,
    /// Clean accuracy, percent.
    pub clean: f32,
}

/// Runs the comparison at one ε for both FGSM and PGD on the paper's
/// VGG16 / CIFAR-100 setting (32×32 crossbars, SH mode; defenses evaluated
/// white-box with BPDA gradients through their quantizers).
///
/// # Errors
///
/// Propagates zoo/defense/attack errors.
pub fn defense_comparison(scale: &Scale, epsilon: f32) -> Result<Vec<DefenseRow>, NnError> {
    let (trained, images, labels) = load_trained(ArchId::Vgg16, 100, scale)?;
    let software = &trained.spec.model;

    // hardware and defended variants, built once
    let (crossbar, _) = crossbar_variant(software, &CrossbarConfig::paper_default(32))?;
    let discretized = PixelDiscretization::new(4)?.defend(software);
    let calib = scale.batch.min(images.dims()[0]);
    let mut calib_dims = images.dims().to_vec();
    calib_dims[0] = calib;
    let calib_images = ahw_tensor::Tensor::from_vec(
        images.as_slice()[..calib * (images.len() / images.dims()[0])].to_vec(),
        &calib_dims,
    )
    .map_err(ahw_nn::NnError::Tensor)?;
    let (quanos_model, sens) =
        Quanos::default().apply(software, &calib_images, &labels[..calib])?;
    eprintln!(
        "quanos bit allocation: {}",
        sens.iter()
            .map(|s| format!("{}:{}b", s.layer, s.bits))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut rows = Vec::new();
    for attack_kind in ["FGSM", "PGD"] {
        let attack = match attack_kind {
            "FGSM" => Attack::fgsm(epsilon),
            _ => Attack::Pgd {
                epsilon,
                alpha: epsilon / 4.0,
                steps: scale.pgd_steps,
                random_start: true,
            },
        };
        // undefended software baseline
        let base = evaluate_attack(software, software, &images, &labels, attack, scale.batch)?;
        rows.push(DefenseRow {
            attack: attack_kind.into(),
            method: "Baseline (Attack-SW)".into(),
            al: base.adversarial_loss(),
            clean: base.clean_accuracy * 100.0,
        });
        // crossbar non-idealities, SH mode (the paper's headline bar)
        let xb = evaluate_mode(
            software,
            &crossbar,
            AttackMode::Sh,
            &images,
            &labels,
            attack,
            scale.batch,
        )?;
        rows.push(DefenseRow {
            attack: attack_kind.into(),
            method: "Crossbar 32x32 (SH)".into(),
            al: xb.adversarial_loss(),
            clean: xb.clean_accuracy * 100.0,
        });
        // 4-bit pixel discretization (white-box BPDA)
        let disc = evaluate_attack(
            &discretized,
            &discretized,
            &images,
            &labels,
            attack,
            scale.batch,
        )?;
        rows.push(DefenseRow {
            attack: attack_kind.into(),
            method: "4b discretization".into(),
            al: disc.adversarial_loss(),
            clean: disc.clean_accuracy * 100.0,
        });
        // QUANOS (white-box through the quantized model)
        let q = evaluate_attack(
            &quanos_model,
            &quanos_model,
            &images,
            &labels,
            attack,
            scale.batch,
        )?;
        rows.push(DefenseRow {
            attack: attack_kind.into(),
            method: "QUANOS".into(),
            al: q.adversarial_loss(),
            clean: q.clean_accuracy * 100.0,
        });
    }
    Ok(rows)
}
