//! SGD training loop.

use crate::sequential::{argmax, cross_entropy_ws};
use crate::{Mode, NnError, PlanCache, Sequential};
use ahw_telemetry as telemetry;
use ahw_tensor::rng::Rng;
use ahw_tensor::Tensor;

/// Mini-batches processed across all `fit` calls.
static BATCHES: telemetry::LazyCounter = telemetry::LazyCounter::new("nn.train.batches");
/// Most recent epoch's mean training loss.
static LOSS: telemetry::LazyGauge = telemetry::LazyGauge::new("nn.train.loss");
/// Most recent epoch's training accuracy.
static ACCURACY: telemetry::LazyGauge = telemetry::LazyGauge::new("nn.train.accuracy");

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight decay applied to parameters flagged `decay`.
    pub weight_decay: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Multiply `lr` by this factor at the end of each epoch.
    pub lr_decay: f32,
    /// Print a progress line per epoch.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            batch_size: 32,
            epochs: 10,
            lr_decay: 0.85,
            verbose: false,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index, 0-based.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f32,
}

/// SGD-with-momentum optimizer driving a [`Sequential`] model.
///
/// Momentum buffers live in the trainer (keyed by parameter visit order), so
/// a model can be trained, saved, and later fine-tuned by a fresh trainer.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    velocity: Vec<Tensor>,
    lr: f32,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        let lr = config.lr;
        Trainer {
            config,
            velocity: Vec::new(),
            lr,
        }
    }

    /// Current learning rate (decays per epoch).
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// One SGD step from the gradients currently accumulated in the model.
    /// Gradients are zeroed afterwards.
    pub fn step(&mut self, model: &mut Sequential) {
        let (momentum, weight_decay, lr) =
            (self.config.momentum, self.config.weight_decay, self.lr);
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        model.visit_params(&mut |p| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.dims()));
            }
            let v = &mut velocity[idx];
            let decay = if p.decay { weight_decay } else { 0.0 };
            let vv = v.as_mut_slice();
            let gv = p.grad.as_slice();
            let pv = p.value.as_slice();
            for i in 0..vv.len() {
                vv[i] = momentum * vv[i] + gv[i] + decay * pv[i];
            }
            let pv = p.value.as_mut_slice();
            for i in 0..pv.len() {
                pv[i] -= lr * vv[i];
            }
            p.zero_grad();
            idx += 1;
        });
    }

    /// Trains on `(images, labels)` for the configured number of epochs,
    /// shuffling with `rng` each epoch. Returns per-epoch statistics.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for mismatched lengths or a zero batch
    /// size; propagates layer errors.
    pub fn fit<R: Rng>(
        &mut self,
        model: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
        rng: &mut R,
    ) -> Result<Vec<EpochStats>, NnError> {
        self.fit_with(model, images, labels, rng, |_, _, _, _| Ok(()))
    }

    /// [`fit`](Trainer::fit) with a per-batch hook: `perturb(model, batch,
    /// labels, plan)` may rewrite each assembled mini-batch in place before
    /// its forward pass and SGD step. Adversarial training crafts its
    /// examples here, against the current model. `plan` is the arena the
    /// loop runs on; scratch the hook takes from it should go back to it.
    ///
    /// # Errors
    ///
    /// As [`fit`](Trainer::fit); propagates the hook's errors.
    pub fn fit_with<R: Rng>(
        &mut self,
        model: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
        rng: &mut R,
        mut perturb: impl FnMut(
            &mut Sequential,
            &mut Tensor,
            &[usize],
            &mut PlanCache,
        ) -> Result<(), NnError>,
    ) -> Result<Vec<EpochStats>, NnError> {
        let n = images.dims()[0];
        if labels.len() != n {
            return Err(NnError::BadConfig(format!(
                "{} labels for {} images",
                labels.len(),
                n
            )));
        }
        if self.config.batch_size == 0 || n == 0 {
            return Err(NnError::BadConfig("empty dataset or zero batch".into()));
        }
        let item = images.len() / n;
        let xv = images.as_slice();
        let mut order: Vec<usize> = (0..n).collect();
        let mut stats = Vec::with_capacity(self.config.epochs);
        // one plan per fit call: batch geometries repeat every epoch, so
        // all activation/gradient scratch is reused across the whole run
        let mut plan = PlanCache::new();
        let mut batch_labels: Vec<usize> = Vec::with_capacity(self.config.batch_size);
        for epoch in 0..self.config.epochs {
            let _epoch_span =
                telemetry::span_labeled("nn.train.epoch", || format!("epoch={epoch}"));
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            let mut correct = 0usize;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let _batch_span = telemetry::span("nn.train.batch");
                BATCHES.incr();
                let mut bd = images.dims().to_vec();
                bd[0] = chunk.len();
                let mut data = plan.workspace().take(chunk.len() * item);
                batch_labels.clear();
                for (bi, &i) in chunk.iter().enumerate() {
                    data[bi * item..(bi + 1) * item].copy_from_slice(&xv[i * item..(i + 1) * item]);
                    batch_labels.push(labels[i]);
                }
                let mut xb = Tensor::from_vec(data, &bd)?;
                perturb(model, &mut xb, &batch_labels, &mut plan)?;
                let logits = model.forward_planned(&xb, Mode::Train, &mut plan)?;
                let ws = plan.workspace();
                let (loss, dlogits) = match cross_entropy_ws(&logits, &batch_labels, ws) {
                    Ok(r) => r,
                    Err(e) => {
                        ws.recycle_tensor(logits);
                        ws.recycle_tensor(xb);
                        return Err(e);
                    }
                };
                // batch accuracy from the logits we already have
                let c = logits.dims()[1];
                for (row, &label) in logits.as_slice().chunks(c).zip(&batch_labels) {
                    if argmax(row) == label {
                        correct += 1;
                    }
                }
                ws.recycle_tensor(logits);
                let dx = model.backward_ws(dlogits, ws)?;
                ws.recycle_tensor(dx);
                ws.recycle_tensor(xb);
                self.step(model);
                epoch_loss += loss as f64;
                batches += 1;
            }
            let s = EpochStats {
                epoch,
                loss: (epoch_loss / batches.max(1) as f64) as f32,
                accuracy: correct as f32 / n as f32,
            };
            LOSS.set(s.loss as f64);
            ACCURACY.set(s.accuracy as f64);
            if self.config.verbose {
                eprintln!(
                    "epoch {:>3}  loss {:.4}  acc {:.2}%  lr {:.4}",
                    s.epoch,
                    s.loss,
                    s.accuracy * 100.0,
                    self.lr
                );
            }
            stats.push(s);
            self.lr *= self.config.lr_decay;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, ReLU};
    use ahw_tensor::rng::{normal, seeded};

    /// Two linearly-separable Gaussian blobs.
    fn blobs(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = seeded(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let center = if label == 0 { -1.5 } else { 1.5 };
            let point = normal(&[4], center, 0.5, &mut rng);
            data.extend_from_slice(point.as_slice());
            labels.push(label);
        }
        (Tensor::from_vec(data, &[n, 4]).unwrap(), labels)
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        let mut m = Sequential::new();
        m.push(Linear::new(4, 16, &mut rng).unwrap());
        m.push(ReLU::new());
        m.push(Linear::new(16, 2, &mut rng).unwrap());
        m
    }

    #[test]
    fn training_reduces_loss_and_learns_blobs() {
        let (x, y) = blobs(200, 1);
        let mut model = mlp(2);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 15,
            lr: 0.1,
            ..TrainConfig::default()
        });
        let stats = trainer.fit(&mut model, &x, &y, &mut seeded(3)).unwrap();
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
        let (tx, ty) = blobs(100, 4);
        assert!(model.accuracy(&tx, &ty, 25).unwrap() > 0.95);
    }

    #[test]
    fn lr_decays_per_epoch() {
        let (x, y) = blobs(16, 5);
        let mut model = mlp(6);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 3,
            lr: 1.0,
            lr_decay: 0.5,
            batch_size: 8,
            ..TrainConfig::default()
        });
        trainer.fit(&mut model, &x, &y, &mut seeded(7)).unwrap();
        assert!((trainer.lr() - 0.125).abs() < 1e-6);
    }

    #[test]
    fn fit_rejects_mismatched_labels() {
        let (x, _) = blobs(8, 8);
        let mut model = mlp(9);
        let mut trainer = Trainer::new(TrainConfig::default());
        assert!(trainer
            .fit(&mut model, &x, &[0, 1], &mut seeded(10))
            .is_err());
    }

    #[test]
    fn step_applies_weight_decay_only_to_decay_params() {
        let mut rng = seeded(11);
        let mut model = Sequential::new();
        model.push(Linear::new(2, 2, &mut rng).unwrap());
        // grads are zero; with weight decay the weights should shrink,
        // the bias should not change.
        let mut before_w = Vec::new();
        let mut before_b = Vec::new();
        model.visit_params(&mut |p| {
            if p.decay {
                before_w = p.value.as_slice().to_vec();
            } else {
                before_b = p.value.as_slice().to_vec();
            }
        });
        let mut trainer = Trainer::new(TrainConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.1,
            ..TrainConfig::default()
        });
        trainer.step(&mut model);
        model.visit_params(&mut |p| {
            if p.decay {
                for (a, b) in p.value.as_slice().iter().zip(&before_w) {
                    assert!((a - b * (1.0 - 0.01)).abs() < 1e-6);
                }
            } else {
                assert_eq!(p.value.as_slice(), &before_b[..]);
            }
        });
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut rng = seeded(12);
        let mut model = Sequential::new();
        model.push(Linear::new(1, 1, &mut rng).unwrap());
        let mut trainer = Trainer::new(TrainConfig {
            lr: 1.0,
            momentum: 0.5,
            weight_decay: 0.0,
            ..TrainConfig::default()
        });
        // constant gradient of 1.0 each step
        let mut deltas = Vec::new();
        let mut prev = 0.0f32;
        model.visit_params(&mut |p| {
            if p.decay {
                prev = p.value.as_slice()[0];
            }
        });
        for _ in 0..3 {
            model.visit_params(&mut |p| {
                if p.decay {
                    p.grad.as_mut_slice()[0] = 1.0;
                }
            });
            trainer.step(&mut model);
            let mut cur = 0.0f32;
            model.visit_params(&mut |p| {
                if p.decay {
                    cur = p.value.as_slice()[0];
                }
            });
            deltas.push(prev - cur);
            prev = cur;
        }
        // velocity: 1, 1.5, 1.75
        assert!((deltas[0] - 1.0).abs() < 1e-5);
        assert!((deltas[1] - 1.5).abs() < 1e-5);
        assert!((deltas[2] - 1.75).abs() < 1e-5);
    }
}
