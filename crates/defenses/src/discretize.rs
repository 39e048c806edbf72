//! Input pixel discretization. [`PixelDiscretization::apply`] and the
//! defended model's first layer, [`DiscretizeLayer`], run one grid map.

use ahw_nn::{Layer, Mode, NnError, Sequential};
use ahw_tensor::quant::QuantParams;
use ahw_tensor::{Tensor, Workspace};

/// Input-space discretization (Panda et al., *Discretization based solutions
/// for secure machine learning against adversarial attacks*).
///
/// Pixels in `[0, 1]` are snapped to a `2^bits`-level grid. A perturbation
/// smaller than half a grid step is erased entirely; larger ones lose most
/// of their structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelDiscretization {
    bits: u8,
}

impl PixelDiscretization {
    /// Creates an `bits`-bit discretizer (the paper compares 4-bit).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for bits outside `1..=8`.
    pub fn new(bits: u8) -> Result<Self, NnError> {
        if bits == 0 || bits > 8 {
            return Err(NnError::BadConfig(format!(
                "pixel discretization bits must be 1..=8, got {bits}"
            )));
        }
        Ok(PixelDiscretization { bits })
    }

    /// The grid's bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Snaps a `[0, 1]` tensor onto the grid.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        self.snap_into(x, vec![0.0; x.len()])
    }

    /// Snaps `x` onto the fixed `[0, 1]` grid, writing into `out` (of
    /// `x.len()` elements). The input domain is known, so there is no
    /// per-tensor fitting: the defense must be input-independent or it
    /// leaks a side channel.
    fn snap_into(&self, x: &Tensor, mut out: Vec<f32>) -> Tensor {
        let grid =
            QuantParams::from_range(0.0, 1.0, self.bits).expect("bits validated in constructor");
        x.map_into(|v| grid.dequantize(grid.quantize(v)), &mut out)
            .expect("callers pass x.len() elements");
        Tensor::from_vec(out, x.dims()).expect("one output per input")
    }

    /// Returns `model` with the discretizer prepended as a layer, giving a
    /// defended end-to-end model. Gradients pass straight through the grid
    /// (BPDA — the standard way to attack discretization defenses).
    pub fn defend(&self, model: &Sequential) -> Sequential {
        let mut defended = Sequential::new();
        defended.push(DiscretizeLayer::from(*self));
        for i in 0..model.len() {
            defended.push_boxed(model.layer(i).clone_box());
        }
        defended
    }
}

/// [`PixelDiscretization`] as a network layer (identity gradient).
#[derive(Debug, Clone, Copy)]
pub struct DiscretizeLayer {
    defense: PixelDiscretization,
}

impl From<PixelDiscretization> for DiscretizeLayer {
    fn from(defense: PixelDiscretization) -> Self {
        DiscretizeLayer { defense }
    }
}

impl Layer for DiscretizeLayer {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        _mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        Ok(self.defense.snap_into(x, ws.take(x.len())))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        // straight-through: the grid is piecewise constant, so the true
        // gradient is zero a.e.; BPDA substitutes the identity
        let mut dx = ws.take(grad_out.len());
        dx.copy_from_slice(grad_out.as_slice());
        Ok(Tensor::from_vec(dx, grad_out.dims())?)
    }

    fn describe(&self) -> String {
        format!("discretize({}b)", self.defense.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::layers::Linear;
    use ahw_tensor::rng::{seeded, uniform};

    #[test]
    fn four_bit_grid_has_16_levels() {
        let d = PixelDiscretization::new(4).unwrap();
        let x = uniform(&[1000], 0.0, 1.0, &mut seeded(1));
        let y = d.apply(&x);
        let mut levels: Vec<i64> = y
            .as_slice()
            .iter()
            .map(|v| (v * 1e6).round() as i64)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 16, "{} distinct levels", levels.len());
    }

    #[test]
    fn small_perturbations_are_erased() {
        let d = PixelDiscretization::new(4).unwrap();
        // values near grid-cell centers so a 0.2-step nudge stays in-cell
        let x = Tensor::from_slice(&[0.4, 0.2, 0.8]);
        let step = 1.0 / 15.0;
        let perturbed = x.map(|v| v + step * 0.2);
        assert_eq!(d.apply(&x), d.apply(&perturbed));
    }

    #[test]
    fn idempotent() {
        let d = PixelDiscretization::new(2).unwrap();
        let x = uniform(&[64], 0.0, 1.0, &mut seeded(2));
        let once = d.apply(&x);
        assert_eq!(d.apply(&once), once);
    }

    #[test]
    fn rejects_bad_bits() {
        assert!(PixelDiscretization::new(0).is_err());
        assert!(PixelDiscretization::new(9).is_err());
    }

    #[test]
    fn defend_prepends_layer_and_preserves_output_shape() {
        let mut rng = seeded(3);
        let mut model = Sequential::new();
        model.push(Linear::new(4, 2, &mut rng).unwrap());
        let mut defended = PixelDiscretization::new(4).unwrap().defend(&model);
        assert_eq!(defended.len(), 2);
        let x = uniform(&[3, 4], 0.0, 1.0, &mut rng);
        assert_eq!(defended.forward(&x, Mode::Eval).unwrap().dims(), &[3, 2]);
    }

    #[test]
    fn defended_model_has_straight_through_gradient() {
        let mut rng = seeded(4);
        let mut model = Sequential::new();
        model.push(Linear::new(4, 2, &mut rng).unwrap());
        let mut defended = PixelDiscretization::new(4).unwrap().defend(&model);
        let x = uniform(&[2, 4], 0.0, 1.0, &mut rng);
        let (_, dx) = defended.input_gradient(&x, &[0, 1]).unwrap();
        assert!(dx.norm() > 0.0);
    }
}
