use crate::layer::{HookCell, Layer, Mode};
use crate::{NnError, Param};
use ahw_tensor::ops;
use ahw_tensor::rng::Rng;
use ahw_tensor::{rng, Tensor, Workspace};

/// Fully-connected layer: `y = x · Wᵀ + b` over `(N, in_features)` inputs.
///
/// The weight is stored `(out_features, in_features)` — rows are output
/// neurons — which is also the orientation the crossbar substrate programs.
#[derive(Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    hook: HookCell,
    /// After a `Train` forward, a workspace copy of the input for `dL/dW`;
    /// after an `Eval` forward, `None` — `dL/dx` only needs the weights, so
    /// attack loops never copy the input at all.
    cache: Option<Option<Vec<f32>>>,
}

impl std::fmt::Debug for Linear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Linear")
            .field("in_features", &self.in_features)
            .field("out_features", &self.out_features)
            .finish_non_exhaustive()
    }
}

impl Linear {
    /// Creates a linear layer with Kaiming-normal weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if either feature count is zero.
    pub fn new<R: Rng>(
        in_features: usize,
        out_features: usize,
        rng_: &mut R,
    ) -> Result<Self, NnError> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::BadConfig(format!(
                "linear({in_features}->{out_features}) has a zero dimension"
            )));
        }
        let weight = rng::kaiming(&[out_features, in_features], in_features, rng_);
        Ok(Linear {
            weight: Param::new(weight, true),
            bias: Param::new(Tensor::zeros(&[out_features]), false),
            in_features,
            out_features,
            hook: HookCell::default(),
            cache: None,
        })
    }

    /// The `(out_features, in_features)` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Backward given the forward's input copy (`None` after an `Eval`
    /// forward, which skips the parameter gradients).
    fn backward_from_input(
        &mut self,
        grad_out: &Tensor,
        input: Option<&[f32]>,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        if grad_out.rank() != 2 || grad_out.dims()[1] != self.out_features {
            return Err(NnError::Tensor(ahw_tensor::TensorError::ShapeMismatch {
                op: "linear",
                lhs: grad_out.dims().to_vec(),
                rhs: vec![0, self.out_features],
            }));
        }
        let n = grad_out.dims()[0];
        let gv = grad_out.as_slice();
        let mut dx = ws.take(n * self.in_features);
        if let Err(e) = ops::matmul_slices(
            gv,
            self.weight.value.as_slice(),
            n,
            self.out_features,
            self.in_features,
            &mut dx,
        ) {
            ws.recycle(dx);
            return Err(e.into());
        }
        if let Some(xv) = input {
            let mut dw = ws.take(self.out_features * self.in_features);
            if let Err(e) =
                ops::matmul_transa_slices(gv, xv, self.out_features, n, self.in_features, &mut dw)
            {
                ws.recycle(dw);
                ws.recycle(dx);
                return Err(e.into());
            }
            // same element-wise accumulation as `add_scaled(&dw, 1.0)`
            for (a, b) in self.weight.grad.as_mut_slice().iter_mut().zip(&dw) {
                *a += b;
            }
            ws.recycle(dw);
            let db = self.bias.grad.as_mut_slice();
            for r in 0..n {
                for (c, d) in db.iter_mut().enumerate() {
                    *d += gv[r * self.out_features + c];
                }
            }
        }
        Ok(Tensor::from_vec(dx, &[n, self.in_features])?)
    }
}

impl Layer for Linear {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        if x.rank() != 2 || x.dims()[1] != self.in_features {
            return Err(NnError::Tensor(ahw_tensor::TensorError::ShapeMismatch {
                op: "linear",
                lhs: x.dims().to_vec(),
                rhs: vec![0, self.in_features],
            }));
        }
        let n = x.dims()[0];
        let mut y = ws.take(n * self.out_features);
        if let Err(e) = ops::matmul_transb_slices(
            x.as_slice(),
            self.weight.value.as_slice(),
            n,
            self.in_features,
            self.out_features,
            &mut y,
        ) {
            ws.recycle(y);
            return Err(e.into());
        }
        let bias = self.bias.value.as_slice();
        for r in 0..n {
            for (c, b) in bias.iter().enumerate() {
                y[r * self.out_features + c] += b;
            }
        }
        self.cache = Some((mode == Mode::Train).then(|| {
            let mut xc = ws.take(x.len());
            xc.copy_from_slice(x.as_slice());
            xc
        }));
        let y = Tensor::from_vec(y, &[n, self.out_features])?;
        Ok(self.hook.apply(y, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let input = self.cache.take().ok_or_else(|| NnError::NoForwardCache {
            layer: self.describe(),
        })?;
        let dx = self.backward_from_input(grad_out, input.as_deref(), ws);
        if let Some(x) = input {
            ws.recycle(x);
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_state(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Tensor)) {
        f(&format!("{prefix}.weight"), &mut self.weight.value);
        f(&format!("{prefix}.bias"), &mut self.bias.value);
    }

    fn output_hook(&mut self) -> Option<&mut HookCell> {
        Some(&mut self.hook)
    }

    fn describe(&self) -> String {
        format!("linear({}->{})", self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_tensor::rng::seeded;

    #[test]
    fn forward_computes_affine_map() {
        let mut rng = seeded(1);
        let mut lin = Linear::new(2, 3, &mut rng).unwrap();
        // overwrite with known values
        lin.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        lin.bias.value = Tensor::from_slice(&[0.5, 0.0, -0.5]);
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        let y = lin.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 3.0, 4.5]);
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let mut rng = seeded(2);
        let mut lin = Linear::new(4, 2, &mut rng).unwrap();
        assert!(lin.forward(&Tensor::zeros(&[1, 3]), Mode::Eval).is_err());
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = seeded(3);
        let mut lin = Linear::new(3, 2, &mut rng).unwrap();
        let x = ahw_tensor::rng::normal(&[4, 3], 0.0, 1.0, &mut rng);
        let dy = ahw_tensor::rng::normal(&[4, 2], 0.0, 1.0, &mut rng);
        lin.forward(&x, Mode::Train).unwrap();
        let dx = lin.backward(&dy).unwrap();
        let eps = 1e-3;
        // input gradient
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp: f32 = lin
                .forward(&xp, Mode::Eval)
                .unwrap()
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = lin
                .forward(&xm, Mode::Eval)
                .unwrap()
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dx.as_slice()[idx]).abs() < 1e-2);
        }
        // weight gradient (spot check)
        for idx in [0, 3, 5] {
            let orig = lin.weight.value.as_slice()[idx];
            lin.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp: f32 = lin
                .forward(&x, Mode::Eval)
                .unwrap()
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            lin.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm: f32 = lin
                .forward(&x, Mode::Eval)
                .unwrap()
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            lin.weight.value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - lin.weight.grad.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn bias_grad_is_column_sum() {
        let mut rng = seeded(4);
        let mut lin = Linear::new(2, 2, &mut rng).unwrap();
        let x = Tensor::zeros(&[3, 2]);
        lin.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        lin.backward(&dy).unwrap();
        assert_eq!(lin.bias.grad.as_slice(), &[9.0, 12.0]);
    }

    #[test]
    fn backward_rejects_misshaped_grad_and_recycles_input_copy() {
        let mut rng = seeded(8);
        let mut lin = Linear::new(3, 2, &mut rng).unwrap();
        let mut ws = Workspace::new();
        let y = lin
            .forward_ws(&Tensor::ones(&[4, 3]), Mode::Train, &mut ws)
            .unwrap();
        ws.recycle_tensor(y);
        assert!(lin.backward_ws(&Tensor::ones(&[4, 3]), &mut ws).is_err());
        assert_eq!(ws.outstanding(), 0, "cached input copy not recycled");
    }

    #[test]
    fn eval_backward_copies_no_input_and_accumulates_nothing() {
        let mut rng = seeded(7);
        let mut lin = Linear::new(3, 2, &mut rng).unwrap();
        let x = Tensor::ones(&[2, 3]);
        let mut ws = Workspace::new();
        let y = lin.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
        // the output is the only buffer the forward took
        assert_eq!(ws.outstanding(), 1);
        ws.recycle_tensor(y);
        let dx = lin.backward_ws(&Tensor::ones(&[2, 2]), &mut ws).unwrap();
        assert_eq!(dx.dims(), &[2, 3]);
        assert_eq!(lin.weight.grad.sum(), 0.0);
        assert_eq!(lin.bias.grad.sum(), 0.0);
    }

    #[test]
    fn state_visits_weight_and_bias() {
        let mut rng = seeded(5);
        let mut lin = Linear::new(2, 2, &mut rng).unwrap();
        let mut names = Vec::new();
        lin.visit_state("fc", &mut |name, _| names.push(name.to_string()));
        assert_eq!(names, vec!["fc.weight", "fc.bias"]);
    }
}
