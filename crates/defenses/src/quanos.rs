//! QUANOS: ANS-ranked hybrid quantization of weights and activations. The
//! calibration FGSM is `ahw_attacks::fgsm`, the weights come from
//! [`Sequential::visit_weights`], and the quantizer is `ahw_tensor::quant`.

use ahw_nn::{ActivationHook, Mode, NnError, Sequential, Site};
use ahw_tensor::quant::{dequantize_into, fake_quantize, quantize_with_into, QuantParams};
use ahw_tensor::{Tensor, Workspace};
use std::sync::Arc;

/// Deterministic activation quantization hook (fake-quantize to `bits`).
/// Code and output buffers come from the hook's arena; a width outside
/// `1..=8` passes the activation through unchanged.
#[derive(Debug, Clone, Copy)]
pub struct QuantizeHook {
    /// Bit width of the activation grid.
    pub bits: u8,
}

impl ActivationHook for QuantizeHook {
    fn apply(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut out = ws.take(x.len());
        match QuantParams::fit(x, self.bits) {
            Ok(params) => {
                let mut codes = ws.take_u8(x.len());
                quantize_with_into(x.as_slice(), params, &mut codes);
                dequantize_into(&codes, params, &mut out);
                ws.recycle_u8(codes);
            }
            Err(_) => out.copy_from_slice(x.as_slice()),
        }
        Tensor::from_vec(out, x.dims()).expect("length preserved by round trip")
    }

    fn describe(&self) -> String {
        format!("activation quantization ({}b)", self.bits)
    }
}

/// Adversarial Noise Sensitivity of one top-level layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSensitivity {
    /// Index into the model's top-level layer list.
    pub layer: usize,
    /// The layer's description.
    pub describe: String,
    /// ANS: `‖A_adv − A_clean‖ / ‖A_clean‖` at this layer's output.
    pub ans: f32,
    /// Bit width assigned by [`Quanos::apply`] (0 before assignment).
    pub bits: u8,
}

/// QUANOS-style hybrid quantization (Panda, *QUANOS: adversarial noise
/// sensitivity driven hybrid quantization of neural networks*).
///
/// The *Adversarial Noise Sensitivity* of layer ℓ measures how strongly an
/// adversarial input perturbs that layer's activations relative to their
/// clean magnitude. QUANOS quantizes the most sensitive layers hardest —
/// quantization noise where the adversary acts, full precision where it
/// does not — yielding an energy-efficient *and* more robust model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quanos {
    /// FGSM strength used to produce the calibration adversaries.
    pub calib_epsilon: f32,
    /// Bits assigned to the most sensitive layer.
    pub min_bits: u8,
    /// Bits assigned to the least sensitive layer.
    pub max_bits: u8,
}

impl Default for Quanos {
    fn default() -> Self {
        Quanos {
            calib_epsilon: 0.05,
            min_bits: 4,
            max_bits: 8,
        }
    }
}

impl Quanos {
    /// Computes per-layer ANS on a calibration batch.
    ///
    /// Runs the model layer-by-layer on clean and FGSM-perturbed inputs and
    /// compares activations at every layer output that has parameters
    /// upstream of it (all layers are reported; parameter-free layers like
    /// pooling inherit their sensitivity naturally).
    ///
    /// # Errors
    ///
    /// Propagates model errors; [`NnError::BadConfig`] for an empty model.
    pub fn analyze(
        &self,
        model: &Sequential,
        images: &Tensor,
        labels: &[usize],
    ) -> Result<Vec<LayerSensitivity>, NnError> {
        if model.is_empty() {
            return Err(NnError::BadConfig("cannot analyze an empty model".into()));
        }
        // craft calibration adversaries against the model itself
        let mut grad_model = model.clone();
        let mut dirty = ahw_attacks::fgsm(&mut grad_model, images, labels, self.calib_epsilon)?;
        // walk the layers once for each input, recording ANS per output
        let mut sens = Vec::with_capacity(model.len());
        let mut clean = images.clone();
        for i in 0..model.len() {
            let layer = grad_model.layer_mut(i);
            clean = layer.forward(&clean, Mode::Eval)?;
            dirty = layer.forward(&dirty, Mode::Eval)?;
            let diff = dirty.sub(&clean)?.norm();
            let base = clean.norm().max(1e-12);
            sens.push(LayerSensitivity {
                layer: i,
                describe: model.layer(i).describe(),
                ans: diff / base,
                bits: 0,
            });
        }
        Ok(sens)
    }

    /// Builds the QUANOS-quantized model: per-layer weight bit-widths are
    /// assigned by ANS rank (most sensitive → `min_bits`, least →
    /// `max_bits`, linear in between), weights are fake-quantized to those
    /// widths, and matching activation-quantization hooks are installed
    /// where possible.
    ///
    /// Returns the defended model and the sensitivity table with assigned
    /// bits filled in.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn apply(
        &self,
        model: &Sequential,
        images: &Tensor,
        labels: &[usize],
    ) -> Result<(Sequential, Vec<LayerSensitivity>), NnError> {
        let mut sens = self.analyze(model, images, labels)?;
        // rank layers by ANS (descending): rank 0 = most sensitive
        let mut order: Vec<usize> = (0..sens.len()).collect();
        order.sort_by(|&a, &b| {
            sens[b]
                .ans
                .partial_cmp(&sens[a].ans)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let span = (self.max_bits - self.min_bits) as f32;
        let denom = (sens.len().saturating_sub(1)).max(1) as f32;
        for (rank, &layer_idx) in order.iter().enumerate() {
            let bits = self.min_bits as f32 + span * rank as f32 / denom;
            sens[layer_idx].bits = bits.round() as u8;
        }
        let mut defended = model.clone();
        // fake-quantize each layer's weights to its assigned width
        defended.visit_weights(|layer, tensor| {
            *tensor = fake_quantize(tensor, sens[layer].bits.max(1))?;
            Ok::<_, NnError>(())
        })?;
        // activation quantization hooks (best effort: layers without an
        // Output slot — e.g. Flatten — are skipped)
        for s in &sens {
            let hook: Arc<dyn ActivationHook> = Arc::new(QuantizeHook {
                bits: s.bits.max(1),
            });
            let _ = defended.set_hook(Site::output(s.layer), Some(hook));
        }
        Ok((defended, sens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use ahw_tensor::rng::{seeded, uniform};

    fn convnet(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        let mut m = Sequential::new();
        m.push(Conv2d::new(3, 4, 3, 1, 1, &mut rng).unwrap());
        m.push(ReLU::new());
        m.push(MaxPool2d::new(2, 2));
        m.push(Flatten::new());
        m.push(Linear::new(4 * 4 * 4, 3, &mut rng).unwrap());
        m
    }

    fn calib(seed: u64) -> (Tensor, Vec<usize>) {
        let x = uniform(&[6, 3, 8, 8], 0.0, 1.0, &mut seeded(seed));
        (x, vec![0, 1, 2, 0, 1, 2])
    }

    #[test]
    fn analyze_reports_every_layer() {
        let model = convnet(1);
        let (x, y) = calib(2);
        let sens = Quanos::default().analyze(&model, &x, &y).unwrap();
        assert_eq!(sens.len(), model.len());
        for s in &sens {
            assert!(s.ans.is_finite());
            assert!(s.ans >= 0.0);
        }
    }

    #[test]
    fn larger_calibration_epsilon_raises_ans() {
        let model = convnet(3);
        let (x, y) = calib(4);
        let small = Quanos {
            calib_epsilon: 0.01,
            ..Quanos::default()
        };
        let large = Quanos {
            calib_epsilon: 0.2,
            ..Quanos::default()
        };
        let a = small.analyze(&model, &x, &y).unwrap();
        let b = large.analyze(&model, &x, &y).unwrap();
        assert!(b[0].ans > a[0].ans);
    }

    #[test]
    fn apply_assigns_bits_by_rank() {
        let model = convnet(5);
        let (x, y) = calib(6);
        let (_, sens) = Quanos::default().apply(&model, &x, &y).unwrap();
        let most = sens
            .iter()
            .max_by(|a, b| a.ans.partial_cmp(&b.ans).unwrap())
            .unwrap();
        let least = sens
            .iter()
            .min_by(|a, b| a.ans.partial_cmp(&b.ans).unwrap())
            .unwrap();
        assert_eq!(most.bits, 4);
        assert_eq!(least.bits, 8);
        for s in &sens {
            assert!((4..=8).contains(&s.bits));
        }
    }

    #[test]
    fn defended_model_still_classifies() {
        let model = convnet(7);
        let (x, y) = calib(8);
        let (mut defended, _) = Quanos::default().apply(&model, &x, &y).unwrap();
        let out = defended.forward(&x, Mode::Eval).unwrap();
        assert_eq!(out.dims(), &[6, 3]);
        // quantization changes the computation
        assert_ne!(out, model.clone().forward(&x, Mode::Eval).unwrap());
    }

    #[test]
    fn rejects_empty_model() {
        let (x, y) = calib(9);
        assert!(Quanos::default()
            .analyze(&Sequential::new(), &x, &y)
            .is_err());
    }

    #[test]
    fn quantize_hook_is_deterministic() {
        let h = QuantizeHook { bits: 4 };
        let x = uniform(&[32], -1.0, 1.0, &mut seeded(10));
        let mut ws = Workspace::new();
        assert_eq!(h.apply(&x, &mut ws), h.apply(&x, &mut ws));
        assert_eq!(h.apply(&x, &mut ws), fake_quantize(&x, 4).unwrap());
        assert_eq!(QuantizeHook { bits: 9 }.apply(&x, &mut ws), x);
        assert!(ActivationHook::describe(&h).contains("4b"));
    }

    #[test]
    fn quantize_hook_keeps_the_arena_flat() {
        use ahw_nn::PlanCache;
        let mut rng = seeded(11);
        let mut model = Sequential::new();
        model.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng).unwrap());
        model.push(ReLU::new());
        model.push(Flatten::new());
        model.push(Linear::new(4 * 8 * 8, 3, &mut rng).unwrap());
        model
            .set_hook(Site::output(1), Some(Arc::new(QuantizeHook { bits: 4 })))
            .unwrap();
        let x = uniform(&[4, 2, 8, 8], 0.0, 1.0, &mut seeded(12));
        let mut cache = PlanCache::new();
        let mut resident = Vec::new();
        for _ in 0..40 {
            let (_, g) = model
                .input_gradient_planned(&x, &[0, 1, 2, 0], &mut cache)
                .unwrap();
            cache.workspace().recycle_tensor(g);
            resident.push(cache.workspace().resident_bytes());
        }
        assert!(
            resident[1..].iter().all(|&b| b == resident[1]),
            "arena grew after warm-up: {resident:?}"
        );
    }
}
