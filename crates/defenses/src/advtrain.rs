//! Adversarial training (Madry et al.) — the algorithmic defense the
//! paper's introduction singles out as the strongest software baseline.
//!
//! Each mini-batch mixes clean examples with examples perturbed against the
//! *current* model, so the decision boundary is pushed away from the data.
//! Included so hardware-noise robustness can be compared against the
//! gold-standard software defense, not just the efficiency-driven ones.
//! Only the perturbation lives here: the loop is the [`Trainer`]'s and the
//! FGSM step is `ahw_attacks::fgsm_ws`.

use ahw_nn::train::{EpochStats, Trainer};
use ahw_nn::{NnError, Sequential};
use ahw_tensor::rng::Rng;
use ahw_tensor::Tensor;

/// Configuration for [`adversarial_fit`]. Epochs, batch size and the
/// learning-rate schedule are the [`Trainer`]'s.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvTrainConfig {
    /// FGSM strength used to craft the training adversaries.
    pub epsilon: f32,
    /// Fraction of each batch replaced by adversarial examples (0..=1).
    pub adversarial_fraction: f32,
}

impl Default for AdvTrainConfig {
    fn default() -> Self {
        AdvTrainConfig {
            epsilon: 0.05,
            adversarial_fraction: 0.5,
        }
    }
}

/// Adversarially trains `model` in place with `trainer`'s loop and
/// configuration: before each SGD step, the leading
/// `adversarial_fraction` of the mini-batch is replaced by its FGSM
/// examples against the current model. Returns what
/// [`Trainer::fit`] returns.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for a fraction outside `[0, 1]`, and as
/// [`Trainer::fit`] otherwise.
pub fn adversarial_fit<R: Rng>(
    model: &mut Sequential,
    trainer: &mut Trainer,
    images: &Tensor,
    labels: &[usize],
    config: &AdvTrainConfig,
    rng: &mut R,
) -> Result<Vec<EpochStats>, NnError> {
    if !(0.0..=1.0).contains(&config.adversarial_fraction) {
        return Err(NnError::BadConfig(format!(
            "adversarial_fraction {} outside [0, 1]",
            config.adversarial_fraction
        )));
    }
    trainer.fit_with(model, images, labels, rng, |model, batch, targets, plan| {
        let rows = batch.dims()[0];
        let adv_count = ((rows as f32) * config.adversarial_fraction).round() as usize;
        if adv_count > 0 && config.epsilon > 0.0 {
            // the attacked loss is the whole batch's mean, so FGSM runs on
            // every row and only the leading ones are kept
            let adv = ahw_attacks::fgsm_ws(model, batch, targets, config.epsilon, plan)?;
            let keep = adv_count * (batch.len() / rows);
            batch.as_mut_slice()[..keep].copy_from_slice(&adv.as_slice()[..keep]);
            plan.workspace().recycle_tensor(adv);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::layers::{Linear, ReLU};
    use ahw_nn::train::TrainConfig;
    use ahw_tensor::rng::{normal, seeded};

    fn blobs(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = seeded(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let center = if label == 0 { 0.44 } else { 0.56 };
            data.extend(
                normal(&[6], center, 0.05, &mut rng)
                    .into_vec()
                    .iter()
                    .map(|v| v.clamp(0.0, 1.0)),
            );
            labels.push(label);
        }
        (Tensor::from_vec(data, &[n, 6]).unwrap(), labels)
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        let mut m = Sequential::new();
        m.push(Linear::new(6, 24, &mut rng).unwrap());
        m.push(ReLU::new());
        m.push(Linear::new(24, 2, &mut rng).unwrap());
        m
    }

    #[test]
    fn adversarial_training_improves_robust_accuracy() {
        let (x, y) = blobs(240, 1);
        let (tx, ty) = blobs(120, 2);
        let eps = 0.12;

        // standard training
        let mut plain = mlp(3);
        let mut t1 = Trainer::new(TrainConfig {
            epochs: 10,
            lr: 0.1,
            ..TrainConfig::default()
        });
        t1.fit(&mut plain, &x, &y, &mut seeded(4)).unwrap();

        // adversarial training, at a constant learning rate
        let mut robust = mlp(3);
        let mut t2 = Trainer::new(TrainConfig {
            epochs: 10,
            lr: 0.1,
            lr_decay: 1.0,
            ..TrainConfig::default()
        });
        adversarial_fit(
            &mut robust,
            &mut t2,
            &x,
            &y,
            &AdvTrainConfig {
                epsilon: eps,
                ..AdvTrainConfig::default()
            },
            &mut seeded(5),
        )
        .unwrap();

        // attack both with the same FGSM strength
        let attack_acc = |m: &Sequential| {
            let adv = ahw_attacks::fgsm(&mut m.clone(), &tx, &ty, eps).unwrap();
            m.accuracy(&adv, &ty, 60).unwrap()
        };
        let plain_adv = attack_acc(&plain);
        let robust_adv = attack_acc(&robust);
        assert!(
            robust_adv > plain_adv + 0.1,
            "adversarial training should raise robust accuracy: {robust_adv} vs {plain_adv}"
        );
    }

    #[test]
    fn rejects_bad_fraction() {
        let (x, y) = blobs(16, 6);
        let mut model = mlp(7);
        let mut trainer = Trainer::new(TrainConfig::default());
        let config = AdvTrainConfig {
            adversarial_fraction: 1.5,
            ..AdvTrainConfig::default()
        };
        assert!(
            adversarial_fit(&mut model, &mut trainer, &x, &y, &config, &mut seeded(8)).is_err()
        );
    }

    #[test]
    fn zero_epsilon_equals_standard_training_loss_scale() {
        let (x, y) = blobs(64, 9);
        let mut model = mlp(10);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        });
        let config = AdvTrainConfig {
            epsilon: 0.0,
            ..AdvTrainConfig::default()
        };
        let stats =
            adversarial_fit(&mut model, &mut trainer, &x, &y, &config, &mut seeded(11)).unwrap();
        assert_eq!(stats.len(), 2);
        assert!(stats[1].loss <= stats[0].loss + 0.1);
    }

    #[test]
    fn follows_the_trainer_config() {
        let (x, y) = blobs(32, 12);
        let mut model = mlp(13);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 4,
            lr: 0.1,
            lr_decay: 0.5,
            ..TrainConfig::default()
        });
        let stats = adversarial_fit(
            &mut model,
            &mut trainer,
            &x,
            &y,
            &AdvTrainConfig::default(),
            &mut seeded(14),
        )
        .unwrap();
        assert_eq!(stats.len(), 1, "one epoch");
        assert_eq!(trainer.lr(), 0.05, "lr decayed once");
    }
}
