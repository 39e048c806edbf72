use crate::layer::{grad_shape_error, HookCell, Layer, Mode};
use crate::NnError;
use ahw_tensor::{Shape, Tensor, Workspace};

/// Rectified linear unit, `max(0, x)`, elementwise over any shape.
///
/// In the VGG builders the hook slot on a `ReLU` is the "activation memory"
/// of the preceding convolution — the paper's bit-error noise is injected on
/// the values a layer writes back to its SRAM activation buffer, which is the
/// post-ReLU map.
#[derive(Clone, Default)]
pub struct ReLU {
    hook: HookCell,
    mask: ReluMask,
}

impl std::fmt::Debug for ReLU {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReLU").finish_non_exhaustive()
    }
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The ReLU arithmetic plus its one forward cache — the sign mask and the
/// shape it was recorded at — shared by [`ReLU`] and a residual block's
/// closing activation. The mask vector is retained across iterations, so
/// each forward re-fills it without reallocating.
#[derive(Clone, Default)]
pub(crate) struct ReluMask {
    mask: Vec<bool>,
    /// Shape of the last forward, `None` once a backward consumed it.
    dims: Option<Shape>,
}

impl ReluMask {
    /// `max(0, pre)` in a `ws` buffer, recording the sign mask of `pre`.
    pub(crate) fn forward(&mut self, pre: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        self.mask.clear();
        self.mask.extend(pre.as_slice().iter().map(|&v| v > 0.0));
        self.dims = Some(Shape::new(pre.dims()));
        let mut y = ws.take(pre.len());
        if let Err(e) = pre.map_into(|v| v.max(0.0), &mut y) {
            ws.recycle(y);
            return Err(e.into());
        }
        Ok(Tensor::from_vec(y, pre.dims())?)
    }

    /// Consumes the mask: `dL/dpre` for `grad_out` in a `ws` buffer.
    ///
    /// # Errors
    ///
    /// [`NnError::NoForwardCache`] without a preceding forward, or a shape
    /// mismatch if `grad_out` does not match the forward's shape.
    pub(crate) fn backward(
        &mut self,
        grad_out: &Tensor,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let dims = self.dims.take().ok_or_else(|| NnError::NoForwardCache {
            layer: "relu".to_string(),
        })?;
        if grad_out.dims() != dims.dims() {
            return Err(grad_shape_error("relu", grad_out, dims.dims()));
        }
        let mut out = ws.take(grad_out.len());
        for ((o, &g), &m) in out.iter_mut().zip(grad_out.as_slice()).zip(&self.mask) {
            // branch-select, not multiply: g * 0.0 would flip -0.0 signs
            *o = if m { g } else { 0.0 };
        }
        Ok(Tensor::from_vec(out, dims.dims())?)
    }
}

impl Layer for ReLU {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        _mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let y = self.mask.forward(x, ws)?;
        Ok(self.hook.apply(y, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        self.mask.backward(grad_out, ws)
    }

    fn output_hook(&mut self) -> Option<&mut HookCell> {
        Some(&mut self.hook)
    }

    fn describe(&self) -> String {
        "relu".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = ReLU::new();
        relu.forward(&Tensor::from_slice(&[-1.0, 3.0]), Mode::Eval)
            .unwrap();
        let dx = relu.backward(&Tensor::from_slice(&[5.0, 7.0])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 7.0]);
    }

    #[test]
    fn gradient_at_zero_is_zero() {
        let mut relu = ReLU::new();
        relu.forward(&Tensor::from_slice(&[0.0]), Mode::Eval)
            .unwrap();
        let dx = relu.backward(&Tensor::from_slice(&[1.0])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0]);
    }

    #[test]
    fn backward_twice_errors() {
        let mut relu = ReLU::new();
        relu.forward(&Tensor::from_slice(&[1.0]), Mode::Eval)
            .unwrap();
        relu.backward(&Tensor::from_slice(&[1.0])).unwrap();
        assert!(relu.backward(&Tensor::from_slice(&[1.0])).is_err());
    }

    #[test]
    fn repeated_cycles_reuse_workspace_buffers() {
        let mut relu = ReLU::new();
        let x = Tensor::from_slice(&[-2.0, -0.0, 0.0, 1.5, 3.0]);
        let dy = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut ws = ahw_tensor::Workspace::new();
        for _ in 0..2 {
            let y = relu.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
            assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 1.5, 3.0]);
            let dx = relu.backward_ws(&dy, &mut ws).unwrap();
            // masked entries are +0.0, never a sign-flipped -0.0
            let bits: Vec<u32> = dx.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, [0, 0, 0, 4.0f32.to_bits(), 5.0f32.to_bits()]);
            ws.recycle_tensor(y);
            ws.recycle_tensor(dx);
        }
        assert_eq!(ws.outstanding(), 0);
    }

    #[test]
    fn backward_rejects_misshaped_grad() {
        let mut relu = ReLU::new();
        let mut ws = ahw_tensor::Workspace::new();
        let y = relu
            .forward_ws(&Tensor::from_slice(&[1.0, -1.0, 2.0]), Mode::Eval, &mut ws)
            .unwrap();
        ws.recycle_tensor(y);
        assert!(matches!(
            relu.backward_ws(&Tensor::from_slice(&[1.0, 1.0]), &mut ws),
            Err(NnError::Tensor(
                ahw_tensor::TensorError::ShapeMismatch { .. }
            ))
        ));
        assert_eq!(ws.outstanding(), 0, "no buffer may leak on the error path");
    }
}
