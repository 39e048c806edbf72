use crate::layer::{HookCell, Layer, Mode};
use crate::util::{par_items2_mut, par_map_reduce, ErrCell};
use crate::{NnError, Param};
use ahw_tensor::ops::{self, ConvGeometry};
use ahw_tensor::rng::Rng;
use ahw_tensor::{rng, Tensor, Workspace};

/// 2-D convolution with square kernels, implemented as `im2col` + GEMM.
///
/// Weights are stored pre-lowered as an `(out_channels, in_channels·k·k)`
/// matrix — the exact matrix the memristive-crossbar substrate programs onto
/// its tiles, so software and hardware paths share one layout.
///
/// Input/output tensors are `(N, C, H, W)`.
#[derive(Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    hook: HookCell,
    /// The `(n · patch · span)` im2col columns computed during
    /// `forward_ws` and the forward's mode. After a `Train` forward,
    /// `backward_ws` reuses them for `dL/dW` instead of re-lowering every
    /// input; either way it then overwrites them in place with `dcols` for
    /// `dL/dx`.
    cache: Option<(Vec<f32>, ConvGeometry, usize, Mode)>,
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv2d")
            .field("in_channels", &self.in_channels)
            .field("out_channels", &self.out_channels)
            .field("kernel", &self.kernel)
            .field("stride", &self.stride)
            .field("padding", &self.padding)
            .finish_non_exhaustive()
    }
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero channels, kernel or stride.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng_: &mut R,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::BadConfig(format!(
                "conv2d({in_channels}->{out_channels},k{kernel},s{stride}) has a zero dimension"
            )));
        }
        let fan_in = in_channels * kernel * kernel;
        let weight = rng::kaiming(&[out_channels, fan_in], fan_in, rng_);
        Ok(Conv2d {
            weight: Param::new(weight, true),
            bias: Param::new(Tensor::zeros(&[out_channels]), false),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            hook: HookCell::default(),
            cache: None,
        })
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The lowered `(out_channels, in_channels·k·k)` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// Kernel edge length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn padding(&self) -> usize {
        self.padding
    }

    fn geometry(&self, x: &Tensor) -> Result<ConvGeometry, NnError> {
        if x.rank() != 4 || x.dims()[1] != self.in_channels {
            return Err(NnError::Tensor(ahw_tensor::TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: x.dims().to_vec(),
                rhs: vec![0, self.in_channels, 0, 0],
            }));
        }
        let g = ConvGeometry {
            channels: self.in_channels,
            height: x.dims()[2],
            width: x.dims()[3],
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        g.validate()?;
        Ok(g)
    }

    /// Backward from the forward's cached im2col columns. After a `Train`
    /// forward, `dL/dW` reads them first; `dL/dx` then overwrites them in
    /// place with `dcols` before scattering back to input geometry, so the
    /// whole backward needs exactly one extra workspace buffer (for `dx`).
    fn backward_from_cols(
        &mut self,
        grad_out: &Tensor,
        (mut cols, g, n, mode): (Vec<f32>, ConvGeometry, usize, Mode),
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let span = g.out_height() * g.out_width();
        let patch = g.patch_len();
        let item_in = g.channels * g.height * g.width;
        let item_out = self.out_channels * span;
        let item_cols = patch * span;
        if grad_out.len() != n * item_out {
            ws.recycle(cols);
            return Err(NnError::Tensor(ahw_tensor::TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: grad_out.dims().to_vec(),
                rhs: vec![n, self.out_channels, g.out_height(), g.out_width()],
            }));
        }
        let dyv = grad_out.as_slice();
        let oc = self.out_channels;

        // pass 1: dL/dW, dL/db from the cached columns (must run before the
        // dx pass overwrites them). Items fold into fixed chunks in chunk
        // order, so gradients are bit-identical at any thread count.
        if mode == Mode::Train {
            let colsv = &cols[..];
            let err = ErrCell::new();
            let (dw, db, _) = par_map_reduce(
                n,
                || {
                    (
                        vec![0.0f32; oc * patch],
                        vec![0.0f32; oc],
                        // per-chunk scratch for one item's weight gradient
                        vec![0.0f32; oc * patch],
                    )
                },
                |i, (dw, db, dwi)| {
                    err.run(i, || {
                        let dyi = &dyv[i * item_out..(i + 1) * item_out];
                        let ci = &colsv[i * item_cols..(i + 1) * item_cols];
                        ops::matmul_transb_slices(dyi, ci, oc, span, patch, dwi)?;
                        for (a, b) in dw.iter_mut().zip(dwi.iter()) {
                            *a += b;
                        }
                        for (c, d) in db.iter_mut().enumerate() {
                            *d += dyi[c * span..(c + 1) * span].iter().sum::<f32>();
                        }
                        Ok::<(), NnError>(())
                    });
                },
                |(mut aw, mut ab, s), (bw, bb, _)| {
                    for (a, b) in aw.iter_mut().zip(&bw) {
                        *a += b;
                    }
                    for (a, b) in ab.iter_mut().zip(&bb) {
                        *a += b;
                    }
                    (aw, ab, s)
                },
            );
            if let Err(e) = err.into_result() {
                ws.recycle(cols);
                return Err(e);
            }
            for (a, b) in self.weight.grad.as_mut_slice().iter_mut().zip(&dw) {
                *a += b;
            }
            for (a, b) in self.bias.grad.as_mut_slice().iter_mut().zip(&db) {
                *a += b;
            }
        }

        // pass 2: dL/dx per item; dcols reuses the column buffer in place
        let mut dx = ws.take(n * item_in);
        let wv = self.weight.value.as_slice();
        let err = ErrCell::new();
        par_items2_mut(&mut dx, item_in, &mut cols, item_cols, |i, dxi, ci| {
            err.run(i, || {
                let dyi = &dyv[i * item_out..(i + 1) * item_out];
                ops::matmul_transa_slices(wv, dyi, patch, oc, span, ci)?;
                ops::col2im_slices(ci, &g, dxi)?;
                Ok::<(), NnError>(())
            });
        });
        let res = err.into_result();
        ws.recycle(cols);
        if let Err(e) = res {
            ws.recycle(dx);
            return Err(e);
        }
        Ok(Tensor::from_vec(dx, &[n, g.channels, g.height, g.width])?)
    }
}

impl Layer for Conv2d {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let g = self.geometry(x)?;
        let n = x.dims()[0];
        let span = g.out_height() * g.out_width();
        let patch = g.patch_len();
        let item_in = g.channels * g.height * g.width;
        let item_out = self.out_channels * span;
        let item_cols = patch * span;
        if let Some((old, ..)) = self.cache.take() {
            ws.recycle(old);
        }
        let mut out = ws.take(n * item_out);
        let mut cols = ws.take(n * item_cols);
        let xv = x.as_slice();
        let wv = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let oc = self.out_channels;
        let err = ErrCell::new();
        par_items2_mut(&mut out, item_out, &mut cols, item_cols, |i, out_i, ci| {
            err.run(i, || {
                ops::im2col_slices(&xv[i * item_in..(i + 1) * item_in], &g, ci)?;
                ops::matmul_slices(wv, ci, oc, patch, span, out_i)?;
                for (c, b) in bias.iter().enumerate() {
                    for v in &mut out_i[c * span..(c + 1) * span] {
                        *v += b;
                    }
                }
                Ok::<(), NnError>(())
            });
        });
        if let Err(e) = err.into_result() {
            ws.recycle(out);
            ws.recycle(cols);
            return Err(e);
        }
        self.cache = Some((cols, g, n, mode));
        let y = Tensor::from_vec(out, &[n, oc, g.out_height(), g.out_width()])?;
        Ok(self.hook.apply(y, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let cache = self.cache.take().ok_or_else(|| NnError::NoForwardCache {
            layer: self.describe(),
        })?;
        self.backward_from_cols(grad_out, cache, ws)
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
        format!(
            "conv2d({}->{}, k{}, s{}, p{})",
            self.in_channels, self.out_channels, self.kernel, self.stride, self.padding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationHook, HookSlot};
    use ahw_tensor::rng::seeded;
    use std::sync::Arc;

    fn finite_diff_input_grad(
        layer: &mut Conv2d,
        x: &Tensor,
        dy: &Tensor,
        idx: usize,
        eps: f32,
    ) -> f32 {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let yp = layer.forward(&xp, Mode::Eval).unwrap();
        let lp: f32 = yp
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let ym = layer.forward(&xm, Mode::Eval).unwrap();
        let lm: f32 = ym
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        (lp - lm) / (2.0 * eps)
    }

    #[test]
    fn forward_shape() {
        let mut rng = seeded(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng).unwrap();
        let x = ahw_tensor::rng::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn strided_forward_shape() {
        let mut rng = seeded(2);
        let mut conv = Conv2d::new(2, 4, 3, 2, 1, &mut rng).unwrap();
        let x = ahw_tensor::rng::normal(&[1, 2, 9, 9], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 4, 5, 5]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut rng = seeded(3);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::zeros(&[1, 2, 8, 8]);
        assert!(conv.forward(&x, Mode::Train).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = seeded(4);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng).unwrap();
        assert!(matches!(
            conv.backward(&Tensor::zeros(&[1, 1, 2, 2])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn backward_rejects_misshaped_grad_and_recycles_columns() {
        let mut rng = seeded(11);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng).unwrap();
        let x = ahw_tensor::rng::normal(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let y = conv.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
        ws.recycle_tensor(y);
        assert!(matches!(
            conv.backward_ws(&Tensor::zeros(&[1, 3, 5, 5]), &mut ws),
            Err(NnError::Tensor(
                ahw_tensor::TensorError::ShapeMismatch { .. }
            ))
        ));
        assert_eq!(ws.outstanding(), 0, "cached columns not recycled");
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded(5);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng).unwrap();
        let x = ahw_tensor::rng::normal(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let dy = ahw_tensor::rng::normal(&[1, 3, 5, 5], 0.0, 1.0, &mut rng);
        conv.forward(&x, Mode::Eval).unwrap();
        let dx = conv.backward(&dy).unwrap();
        for idx in [0, 7, 24, 49] {
            let fd = finite_diff_input_grad(&mut conv, &x, &dy, idx, 1e-2);
            assert!(
                (fd - dx.as_slice()[idx]).abs() < 2e-2,
                "idx {idx}: {fd} vs {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = seeded(6);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng).unwrap();
        let x = ahw_tensor::rng::normal(&[2, 1, 4, 4], 0.0, 1.0, &mut rng);
        let dy = ahw_tensor::rng::normal(&[2, 2, 4, 4], 0.0, 1.0, &mut rng);
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&dy).unwrap();
        let analytic = conv.weight.grad.clone();
        let eps = 1e-2;
        for idx in [0, 5, 11] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let yp = conv.forward(&x, Mode::Eval).unwrap();
            let lp: f32 = yp
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let ym = conv.forward(&x, Mode::Eval).unwrap();
            let lm: f32 = ym
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic.as_slice()[idx]).abs() < 2e-2,
                "idx {idx}: {fd} vs {}",
                analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn bias_gradient_is_dy_sum() {
        let mut rng = seeded(7);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng).unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let dy = Tensor::ones(&[1, 2, 2, 2]);
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&dy).unwrap();
        assert_eq!(conv.bias.grad.as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn eval_backward_accumulates_no_param_grads() {
        let mut rng = seeded(8);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::ones(&[1, 1, 4, 4]);
        conv.forward(&x, Mode::Eval).unwrap();
        let dx = conv.backward(&Tensor::ones(&[1, 1, 4, 4])).unwrap();
        assert_ne!(dx.sum(), 0.0);
        assert_eq!(conv.weight.grad.sum(), 0.0);
        assert_eq!(conv.bias.grad.sum(), 0.0);
    }

    #[test]
    fn hook_applies_to_output() {
        struct Negate;
        impl ActivationHook for Negate {
            fn apply(&self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
                x.scale(-1.0)
            }
        }
        let mut rng = seeded(10);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng).unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let plain = conv.forward(&x, Mode::Eval).unwrap();
        conv.set_hook(HookSlot::Output, Some(Arc::new(Negate)))
            .unwrap();
        let hooked = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(hooked.scale(-1.0), plain);
        assert!(conv.set_hook(HookSlot::BlockConv1, None).is_err());
    }
}
