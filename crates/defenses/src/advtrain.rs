//! Adversarial training (Madry et al.) — the algorithmic defense the
//! paper's introduction singles out as the strongest software baseline.
//!
//! Each mini-batch mixes clean examples with examples perturbed against the
//! *current* model, so the decision boundary is pushed away from the data.
//! Included so hardware-noise robustness can be compared against the
//! gold-standard software defense, not just the efficiency-driven ones.

use ahw_nn::train::Trainer;
use ahw_nn::{Mode, NnError, Sequential};
use ahw_tensor::rng::Rng;
use ahw_tensor::{ops, Tensor};

/// Configuration for [`adversarial_fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdvTrainConfig {
    /// FGSM strength used to craft the training adversaries.
    pub epsilon: f32,
    /// Fraction of each batch replaced by adversarial examples (0..=1).
    pub adversarial_fraction: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
}

impl Default for AdvTrainConfig {
    fn default() -> Self {
        AdvTrainConfig {
            epsilon: 0.05,
            adversarial_fraction: 0.5,
            batch_size: 32,
            epochs: 8,
        }
    }
}

/// Adversarially trains `model` in place using the supplied SGD `trainer`
/// for the parameter updates. Returns per-epoch mean losses.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for inconsistent inputs; propagates layer
/// errors.
pub fn adversarial_fit<R: Rng>(
    model: &mut Sequential,
    trainer: &mut Trainer,
    images: &Tensor,
    labels: &[usize],
    config: &AdvTrainConfig,
    rng: &mut R,
) -> Result<Vec<f32>, NnError> {
    let n = images.dims()[0];
    if labels.len() != n || n == 0 || config.batch_size == 0 {
        return Err(NnError::BadConfig(
            "empty dataset, zero batch, or label/image mismatch".into(),
        ));
    }
    if !(0.0..=1.0).contains(&config.adversarial_fraction) {
        return Err(NnError::BadConfig(format!(
            "adversarial_fraction {} outside [0, 1]",
            config.adversarial_fraction
        )));
    }
    let item = images.len() / n;
    let xv = images.as_slice();
    let mut order: Vec<usize> = (0..n).collect();
    let mut losses = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let mut bd = images.dims().to_vec();
            bd[0] = chunk.len();
            let mut data = Vec::with_capacity(chunk.len() * item);
            let mut batch_labels = Vec::with_capacity(chunk.len());
            for &i in chunk {
                data.extend_from_slice(&xv[i * item..(i + 1) * item]);
                batch_labels.push(labels[i]);
            }
            let mut xb = Tensor::from_vec(data, &bd)?;
            // perturb the leading fraction of the batch against the current
            // model (one FGSM step, the classic Goodfellow recipe)
            let adv_count = ((chunk.len() as f32) * config.adversarial_fraction).round() as usize;
            if adv_count > 0 && config.epsilon > 0.0 {
                let adv = ahw_attacks_free_fgsm(model, &xb, &batch_labels, config.epsilon)?;
                let xbv = xb.as_mut_slice();
                xbv[..adv_count * item].copy_from_slice(&adv.as_slice()[..adv_count * item]);
            }
            let logits = model.forward(&xb, Mode::Train)?;
            let (loss, dlogits) = ops::cross_entropy_with_grad(&logits, &batch_labels)?;
            model.backward(&dlogits)?;
            trainer.step(model);
            epoch_loss += loss as f64;
            batches += 1;
        }
        losses.push((epoch_loss / batches.max(1) as f64) as f32);
    }
    Ok(losses)
}

/// FGSM without depending on `ahw-attacks` (which depends on nothing here,
/// but keeping `ahw-defenses` free of that edge avoids a cycle if attacks
/// ever want the defenses as baselines).
fn ahw_attacks_free_fgsm(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    epsilon: f32,
) -> Result<Tensor, NnError> {
    let (_, grad) = model.input_gradient(x, labels)?;
    let mut adv = x.clone();
    for (a, g) in adv.as_mut_slice().iter_mut().zip(grad.as_slice()) {
        if *g != 0.0 {
            *a = (*a + epsilon * g.signum()).clamp(0.0, 1.0);
        }
    }
    Ok(adv)
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

        // adversarial training
        let mut robust = mlp(3);
        let mut t2 = Trainer::new(TrainConfig {
            epochs: 10,
            lr: 0.1,
            ..TrainConfig::default()
        });
        adversarial_fit(
            &mut robust,
            &mut t2,
            &x,
            &y,
            &AdvTrainConfig {
                epsilon: eps,
                epochs: 10,
                ..AdvTrainConfig::default()
            },
            &mut seeded(5),
        )
        .unwrap();

        // attack both with the same FGSM strength
        let attack_acc = |m: &Sequential| {
            let mut grad_model = m.clone();
            let adv = ahw_attacks_free_fgsm(&mut grad_model, &tx, &ty, eps).unwrap();
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
        let mut trainer = Trainer::new(TrainConfig::default());
        let config = AdvTrainConfig {
            epsilon: 0.0,
            epochs: 2,
            ..AdvTrainConfig::default()
        };
        let losses =
            adversarial_fit(&mut model, &mut trainer, &x, &y, &config, &mut seeded(11)).unwrap();
        assert_eq!(losses.len(), 2);
        assert!(losses[1] <= losses[0] + 0.1);
    }
}
