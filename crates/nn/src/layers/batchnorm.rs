use crate::layer::{grad_shape_error, HookCell, Layer, Mode};
use crate::{NnError, Param};
use ahw_tensor::{Shape, Tensor, TensorError, Workspace};

/// Batch normalization over the channel dimension of `(N, C, H, W)` tensors.
///
/// Train mode normalizes with batch statistics and updates running
/// estimates; eval mode (the mode every attack gradient is taken in) uses the
/// frozen running statistics, making the layer an affine map with an exact,
/// cheap backward pass.
#[derive(Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    hook: HookCell,
    /// What `backward_ws` reads: the forward's input shape and, after a
    /// `Train` forward only, its [`TrainCache`]. An `Eval` backward is the
    /// affine map `dy · γ/σ`, with σ re-derived from the running variance
    /// the forward used.
    cache: Option<(Shape, Option<TrainCache>)>,
}

/// What a `Train` forward adds for the full backward: x̂ (a workspace
/// buffer) and the batch's per-channel 1/σ.
type TrainCache = (Vec<f32>, Vec<f32>);

impl std::fmt::Debug for BatchNorm2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchNorm2d")
            .field("channels", &self.gamma.value.len())
            .field("momentum", &self.momentum)
            .field("eps", &self.eps)
            .finish_non_exhaustive()
    }
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps
    /// (γ = 1, β = 0, running mean 0 / var 1, momentum 0.1, ε = 1e-5).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels]), false),
            beta: Param::new(Tensor::zeros(&[channels]), false),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            hook: HookCell::default(),
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    fn check(&self, x: &Tensor) -> Result<(usize, usize, usize, usize), NnError> {
        if x.rank() != 4 || x.dims()[1] != self.channels() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "batchnorm2d",
                lhs: x.dims().to_vec(),
                rhs: vec![0, self.channels(), 0, 0],
            }));
        }
        Ok((x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]))
    }

    /// 1/σ of channel `ch` under the running statistics.
    fn running_inv_std(&self, ch: usize) -> f32 {
        1.0 / (self.running_var.as_slice()[ch] + self.eps).sqrt()
    }

    /// `y = γ·x̂ + β` with `x̂ = (x − mean)·inv_std`, where `stats(ch)` is
    /// channel `ch`'s `(mean, inv_std)`; x̂ is also stored when `xhat` is
    /// given.
    fn normalize(
        &self,
        x: &Tensor,
        stats: impl Fn(usize) -> (f32, f32),
        mut xhat: Option<&mut [f32]>,
        y: &mut [f32],
    ) {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let plane = h * w;
        let xv = x.as_slice();
        let gv = self.gamma.value.as_slice();
        let bv = self.beta.value.as_slice();
        for ch in 0..c {
            let ((m, s), g, b) = (stats(ch), gv[ch], bv[ch]);
            for i in 0..n {
                let p = (i * c + ch) * plane..(i * c + ch + 1) * plane;
                let (xp, yp) = (&xv[p.clone()], &mut y[p.clone()]);
                // one loop per case, so neither tests `xhat` per element
                if let Some(xhat) = xhat.as_deref_mut() {
                    for ((xh, o), &v) in xhat[p].iter_mut().zip(yp).zip(xp) {
                        *xh = (v - m) * s;
                        *o = g * *xh + b;
                    }
                } else {
                    for (o, &v) in yp.iter_mut().zip(xp) {
                        *o = g * ((v - m) * s) + b;
                    }
                }
            }
        }
    }

    /// Backward arithmetic: writes `dL/dx` into `dx` (every element is
    /// assigned) and, after a `Train` forward (`batch` holds its x̂ and
    /// 1/σ), accumulates γ/β gradients. `grad_out` must match the forward's
    /// shape.
    fn backward_core(&mut self, grad_out: &Tensor, batch: Option<&TrainCache>, dx: &mut [f32]) {
        let dims = grad_out.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let gy = grad_out.as_slice();
        let gv = self.gamma.value.as_slice();
        let Some((xh, inv_std)) = batch else {
            // eval mode: affine map, dx = dy · γ/σ
            for (ch, &g) in gv.iter().enumerate() {
                let scale = g * self.running_inv_std(ch);
                for i in 0..n {
                    let p = (i * c + ch) * plane..(i * c + ch + 1) * plane;
                    for (d, &g) in dx[p.clone()].iter_mut().zip(&gy[p]) {
                        *d = g * scale;
                    }
                }
            }
            return;
        };
        let count = (n * plane) as f32;

        // per-channel reductions: Σdy and Σ(dy·x̂)
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * plane;
                for k in 0..plane {
                    sum_dy[ch] += gy[base + k];
                    sum_dy_xhat[ch] += gy[base + k] * xh[base + k];
                }
            }
        }
        for ((g, b), (sx, sd)) in self
            .gamma
            .grad
            .as_mut_slice()
            .iter_mut()
            .zip(self.beta.grad.as_mut_slice())
            .zip(sum_dy_xhat.iter().zip(&sum_dy))
        {
            *g += sx;
            *b += sd;
        }

        // full batch-norm backward
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * plane;
                let scale = gv[ch] * inv_std[ch];
                for k in 0..plane {
                    dx[base + k] = scale
                        * (gy[base + k]
                            - sum_dy[ch] / count
                            - xh[base + k] * sum_dy_xhat[ch] / count);
                }
            }
        }
    }

    fn batch_stats(&self, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let xv = x.as_slice();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for i in 0..n {
            for (ch, m) in mean.iter_mut().enumerate() {
                let base = (i * c + ch) * plane;
                for k in 0..plane {
                    *m += xv[base + k];
                }
            }
        }
        for m in &mut mean {
            *m /= count;
        }
        for i in 0..n {
            for (ch, v) in var.iter_mut().enumerate() {
                let base = (i * c + ch) * plane;
                for k in 0..plane {
                    let d = xv[base + k] - mean[ch];
                    *v += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= count;
        }
        (mean, var)
    }
}

impl Layer for BatchNorm2d {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        self.check(x)?;
        let mut y = ws.take(x.len());
        let batch = match mode {
            Mode::Train => {
                let (mean, var) = self.batch_stats(x);
                let m = self.momentum;
                for (r, &b) in self.running_mean.as_mut_slice().iter_mut().zip(&mean) {
                    *r = (1.0 - m) * *r + m * b;
                }
                for (r, &b) in self.running_var.as_mut_slice().iter_mut().zip(&var) {
                    *r = (1.0 - m) * *r + m * b;
                }
                let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
                let mut xhat = ws.take(x.len());
                self.normalize(x, |ch| (mean[ch], inv_std[ch]), Some(&mut xhat), &mut y);
                Some((xhat, inv_std))
            }
            Mode::Eval => {
                let mean = self.running_mean.as_slice();
                self.normalize(x, |ch| (mean[ch], self.running_inv_std(ch)), None, &mut y);
                None
            }
        };
        self.cache = Some((Shape::new(x.dims()), batch));
        let y = Tensor::from_vec(y, x.dims())?;
        Ok(self.hook.apply(y, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let (shape, batch) = self.cache.take().ok_or_else(|| NnError::NoForwardCache {
            layer: self.describe(),
        })?;
        let dx = if grad_out.dims() == shape.dims() {
            let mut dx = ws.take(grad_out.len());
            self.backward_core(grad_out, batch.as_ref(), &mut dx);
            Tensor::from_vec(dx, shape.dims()).map_err(NnError::from)
        } else {
            Err(grad_shape_error("batchnorm2d", grad_out, shape.dims()))
        };
        if let Some((xhat, _)) = batch {
            ws.recycle(xhat);
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_state(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Tensor)) {
        f(&format!("{prefix}.gamma"), &mut self.gamma.value);
        f(&format!("{prefix}.beta"), &mut self.beta.value);
        f(&format!("{prefix}.running_mean"), &mut self.running_mean);
        f(&format!("{prefix}.running_var"), &mut self.running_var);
    }

    fn output_hook(&mut self) -> Option<&mut HookCell> {
        Some(&mut self.hook)
    }

    fn describe(&self) -> String {
        format!("batchnorm2d({})", self.channels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_tensor::rng::{normal, seeded};

    #[test]
    fn train_forward_normalizes_batch() {
        let mut bn = BatchNorm2d::new(2);
        let x = normal(&[4, 2, 3, 3], 5.0, 2.0, &mut seeded(1));
        let y = bn.forward(&x, Mode::Train).unwrap();
        // per-channel mean ≈ 0, var ≈ 1
        for ch in 0..2 {
            let mut vals = Vec::new();
            for i in 0..4 {
                for k in 0..9 {
                    vals.push(y.as_slice()[(i * 2 + ch) * 9 + k]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batches() {
        let mut bn = BatchNorm2d::new(1);
        let x = normal(&[8, 1, 4, 4], 3.0, 1.0, &mut seeded(5));
        for _ in 0..50 {
            bn.forward(&x, Mode::Train).unwrap();
        }
        assert!((bn.running_mean.as_slice()[0] - 3.0).abs() < 0.2);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean = Tensor::from_slice(&[10.0]);
        bn.running_var = Tensor::from_slice(&[4.0]);
        let x = Tensor::full(&[1, 1, 1, 1], 12.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        assert!((y.as_slice()[0] - 1.0).abs() < 1e-3); // (12-10)/2
    }

    #[test]
    fn eval_backward_is_affine() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_var = Tensor::from_slice(&[0.25]); // σ=0.5 → scale 2
        let x = Tensor::full(&[1, 1, 1, 1], 1.0);
        bn.forward(&x, Mode::Eval).unwrap();
        let dx = bn.backward(&Tensor::full(&[1, 1, 1, 1], 3.0)).unwrap();
        assert!((dx.as_slice()[0] - 6.0).abs() < 1e-3);
    }

    #[test]
    fn train_backward_matches_finite_difference() {
        let mut bn = BatchNorm2d::new(2);
        let x = normal(&[3, 2, 2, 2], 1.0, 2.0, &mut seeded(3));
        let dy = normal(&[3, 2, 2, 2], 0.0, 1.0, &mut seeded(4));
        bn.forward(&x, Mode::Train).unwrap();
        let dx = bn.backward(&dy).unwrap();
        let eps = 1e-2;
        for idx in [0, 5, 13, 23] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let mut bn_p = BatchNorm2d::new(2);
            let mut bn_m = BatchNorm2d::new(2);
            let yp = bn_p.forward(&xp, Mode::Train).unwrap();
            let ym = bn_m.forward(&xm, Mode::Train).unwrap();
            let lp: f32 = yp
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = ym
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[idx]).abs() < 2e-2,
                "idx {idx}: {fd} vs {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn backward_rejects_misshaped_grad() {
        let mut bn = BatchNorm2d::new(2);
        let mut ws = ahw_tensor::Workspace::new();
        let x = normal(&[2, 2, 3, 3], 0.0, 1.0, &mut seeded(11));
        let y = bn.forward_ws(&x, Mode::Train, &mut ws).unwrap();
        ws.recycle_tensor(y);
        let short = Tensor::zeros(&[1, 2, 3, 3]);
        assert!(matches!(
            bn.backward_ws(&short, &mut ws),
            Err(NnError::Tensor(TensorError::ShapeMismatch { .. }))
        ));
        // the cached x̂ went back to the arena
        assert_eq!(ws.outstanding(), 0);
    }

    #[test]
    fn rejects_channel_mismatch() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn
            .forward(&Tensor::zeros(&[1, 2, 4, 4]), Mode::Train)
            .is_err());
    }

    #[test]
    fn state_includes_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut names = Vec::new();
        bn.visit_state("bn1", &mut |n, _| names.push(n.to_string()));
        assert_eq!(
            names,
            vec![
                "bn1.gamma",
                "bn1.beta",
                "bn1.running_mean",
                "bn1.running_var"
            ]
        );
    }
}
