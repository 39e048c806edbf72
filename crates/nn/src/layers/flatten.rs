use crate::layer::{grad_shape_error, Layer, Mode};
use crate::NnError;
use ahw_tensor::{Shape, Tensor, Workspace};

/// Flattens `(N, …)` to `(N, prod(…))` — the bridge from convolutional
/// features to the classifier head.
///
/// The input shape is cached as a [`Shape`] (inline for rank ≤ 4), so
/// geometry is cached and restored without heap traffic.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cache: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }

    fn out_dims(x: &Tensor) -> Result<[usize; 2], NnError> {
        if x.rank() == 0 {
            return Err(NnError::Tensor(ahw_tensor::TensorError::RankMismatch {
                op: "flatten",
                expected: 2,
                actual: 0,
            }));
        }
        let n = x.dims()[0];
        Ok([n, x.dims()[1..].iter().product()])
    }
}

impl Layer for Flatten {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        _mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let out = Self::out_dims(x)?;
        self.cache = Some(Shape::new(x.dims()));
        let mut buf = ws.take(x.len());
        buf.copy_from_slice(x.as_slice());
        Ok(Tensor::from_vec(buf, &out)?)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let dims = self.cache.take().ok_or_else(|| NnError::NoForwardCache {
            layer: self.describe(),
        })?;
        if grad_out.len() != dims.volume() {
            return Err(grad_shape_error("flatten", grad_out, dims.dims()));
        }
        let mut buf = ws.take(grad_out.len());
        buf.copy_from_slice(grad_out.as_slice());
        Ok(Tensor::from_vec(buf, dims.dims())?)
    }

    fn describe(&self) -> String {
        "flatten".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = f.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 60]);
        let dx = f.backward(&Tensor::ones(&[2, 60])).unwrap();
        assert_eq!(dx.dims(), &[2, 3, 4, 5]);
    }

    #[test]
    fn rejects_scalar() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::full(&[], 1.0), Mode::Eval).is_err());
    }

    #[test]
    fn planned_path_round_trips_shape() {
        let mut f = Flatten::new();
        let mut ws = ahw_tensor::Workspace::new();
        let x = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = f.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        assert_eq!(y.as_slice(), x.as_slice());
        let dy = Tensor::ones(&[2, 12]);
        let dx = f.backward_ws(&dy, &mut ws).unwrap();
        assert_eq!(dx.dims(), &[2, 3, 2, 2]);
        ws.recycle_tensor(y);
        ws.recycle_tensor(dx);
    }
}
