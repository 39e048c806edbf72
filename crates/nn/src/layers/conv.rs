use crate::layer::{HookCell, Layer, Mode};
use crate::util::{par_groups_mut, ErrCell, Part};
use crate::{NnError, Param};
use ahw_tensor::ops::{self, ConvGeometry};
use ahw_tensor::rng::Rng;
use ahw_tensor::{pool, rng, Tensor, Workspace};

/// Columns of one lowered GEMM panel. A batch is lowered
/// `max(1, PANEL_COLS / span)` consecutive images at a time, side by side,
/// so a layer with a small output map (the 4×4 and 2×2 stages of a CIFAR
/// network) still runs one GEMM hundreds of columns wide instead of one
/// 16- or 4-column GEMM per image. A layer whose span is at least this
/// wide runs one image per panel.
const PANEL_COLS: usize = 512;

/// Images per panel for a batch of `n` images of `span` output positions:
/// the fewest panels of at most `max(1, PANEL_COLS / span)` images, with
/// the images spread evenly over them so no panel is a short straggler.
fn panel_images(n: usize, span: usize) -> usize {
    let panels = n.div_ceil((PANEL_COLS / span).max(1));
    n.div_ceil(panels.max(1)).max(1)
}

/// Where a pass's column panels live: in the batch's cached panels after a
/// `Train` forward (`dL/dW` reads them again), else in one slot per pool
/// range that every panel of the range reuses.
fn panels_part(cached: &mut Option<Vec<f32>>, item_cols: usize) -> Part<'_> {
    match cached {
        Some(cols) => Part::Items(cols, item_cols),
        None => Part::Slot(item_cols),
    }
}

/// 2-D convolution with square kernels, computed as GEMMs over the input
/// lowered one of two ways.
///
/// Weights are stored pre-lowered as an `(out_channels, in_channels·k·k)`
/// matrix — the exact matrix the memristive-crossbar substrate programs onto
/// its tiles, so software and hardware paths share one layout.
///
/// Input/output tensors are `(N, C, H, W)`. A batch runs in panels of
/// consecutive images, about 512 output columns wide, one GEMM per panel.
///
/// - **Padded planes** (an `Eval` pass at stride 1, i.e. every convolution
///   of an attack evaluation): a panel's images are copied once into
///   zero-padded planes ([`ops::pad_planes_slices`]) and the GEMM reads
///   patch row `(c, ky, kx)` as a window of plane `c`
///   ([`ops::matmul_planes_slices`]); the input gradient adds each row of
///   `Wᵀ·dY` into a padded plane as it is computed
///   ([`ops::conv_input_grad_slices`]), with no patch-gradient panel.
/// - **Column panels** (`Train` passes and strided convolutions): panel
///   `p` is a `(C·k·k) × (images·span)` im2col matrix with image `j`'s
///   columns at offset `j·span`; the input gradient writes its `dcols`
///   panel and scatters it with col2im.
///
/// A GEMM element's accumulation order depends only on the inner
/// dimension, never on the column count or where `B`'s rows live, and both
/// input gradients add every pixel's taps in ascending order from +0.0, so
/// the two routes give the same bits, which are the bits a one-image-at-a-
/// time lowering produces.
///
/// After a `Train` forward the backward takes the weight gradient in one
/// [`ops::matmul_transb_fold_slices`] call over the cached panels: every
/// image's product element is one `dot4` over its own column block, and
/// the images fold in fixed chunks ([`ops::fold_images`]). The bias
/// gradient folds the images' `dY` sums the same way, one channel per pool
/// slot, so both are bit-identical at any thread count.
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
    /// What `backward_ws` reads: the forward's geometry and batch size and,
    /// after a `Train` forward only, the batch's im2col panels
    /// (`n · patch · span` elements, panel after panel) for `dL/dW`. An
    /// `Eval` forward never lowers the whole batch, since `dL/dx` needs only
    /// the weights: each pool range copies (or lowers) its panels one after
    /// another into one panel-sized workspace slot.
    cache: Option<(ConvGeometry, usize, Option<Vec<f32>>)>,
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

    /// Forward on column panels into `out`: each panel of images is
    /// lowered by im2col (into the cached panels in `Train`, into its
    /// range's slot in `Eval`) and multiplied by the weights.
    fn forward_panels(
        &self,
        x: &Tensor,
        g: &ConvGeometry,
        out: &mut [f32],
        panels: &mut Option<Vec<f32>>,
        ws: &mut Workspace,
    ) -> Result<(), NnError> {
        let n = x.dims()[0];
        let span = g.out_height() * g.out_width();
        let patch = g.patch_len();
        let item_in = g.channels * g.height * g.width;
        let item_out = self.out_channels * span;
        let per = panel_images(n, span);
        // a one-image panel's product already has its output's (oc, span)
        // layout; wider panels multiply into scratch and scatter from it
        let scratch = if per > 1 { item_out } else { 0 };
        let xv = x.as_slice();
        let wv = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let oc = self.out_channels;
        let err = ErrCell::new();
        par_groups_mut(
            n,
            per,
            [
                Part::Items(out, item_out),
                panels_part(panels, patch * span),
                Part::Slot(scratch),
            ],
            ws,
            |p, images, [outp, panel, prod]| {
                err.run(p, || {
                    let width = images.len() * span;
                    let xp = &xv[images.start * item_in..images.end * item_in];
                    ops::im2col_slices(xp, images.len(), g, panel)?;
                    if images.len() == 1 {
                        ops::matmul_slices(wv, panel, oc, patch, span, outp)?;
                        for (o, &b) in outp.chunks_exact_mut(span).zip(bias) {
                            for v in o {
                                *v += b;
                            }
                        }
                        return Ok(());
                    }
                    ops::matmul_slices(wv, panel, oc, patch, width, prod)?;
                    // scatter the (oc × images·span) product back to
                    // (images, oc, span), adding the bias on the way
                    for (j, outi) in outp.chunks_exact_mut(item_out).enumerate() {
                        for ((c, o), &b) in outi.chunks_exact_mut(span).enumerate().zip(bias) {
                            let src = &prod[c * width + j * span..][..span];
                            for (v, &y) in o.iter_mut().zip(src) {
                                *v = y + b;
                            }
                        }
                    }
                    Ok::<(), NnError>(())
                });
            },
        );
        err.into_result()
    }

    /// Stride-1 `Eval` forward on zero-padded planes into `out`: each
    /// panel of images is copied once into its range's plane slot
    /// ([`ops::pad_planes_slices`]), multiplied by the weights with every
    /// patch row read as a window of a plane ([`ops::matmul_planes_slices`])
    /// and its grid's outputs copied out with the bias added. The product
    /// of each output is the panel route's, bit for bit.
    fn forward_padded(
        &self,
        x: &Tensor,
        g: &ConvGeometry,
        out: &mut [f32],
        ws: &mut Workspace,
    ) -> Result<(), NnError> {
        let n = x.dims()[0];
        let (oh, ow) = (g.out_height(), g.out_width());
        let item_in = g.channels * g.height * g.width;
        let item_out = self.out_channels * oh * ow;
        // a panel of m images needs at most m times one image's planes
        // and grid (each grows by at most one image's share per image)
        let one = g.padded_planes(1);
        let xv = x.as_slice();
        let wv = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let oc = self.out_channels;
        let err = ErrCell::new();
        par_groups_mut(
            n,
            panel_images(n, oh * ow),
            [
                Part::Items(out, item_out),
                Part::Slot(g.channels * one.len + oc * one.rows * one.pitch),
            ],
            ws,
            |p, images, [outp, scratch]| {
                err.run(p, || {
                    let pp = g.padded_planes(images.len());
                    let (planes, prod) = scratch.split_at_mut(g.channels * pp.len);
                    let prod = &mut prod[..oc * pp.grid];
                    let xp = &xv[images.start * item_in..images.end * item_in];
                    ops::pad_planes_slices(xp, images.len(), g, planes)?;
                    ops::matmul_planes_slices(wv, planes, images.len(), g, oc, prod)?;
                    // copy each output row out of the (oc × grid) product,
                    // adding the bias on the way
                    for (j, outi) in outp.chunks_exact_mut(item_out).enumerate() {
                        for ((o, grow), &b) in outi
                            .chunks_exact_mut(oh * ow)
                            .zip(prod.chunks_exact(pp.grid))
                            .zip(bias)
                        {
                            for (oy, orow) in o.chunks_exact_mut(ow).enumerate() {
                                let src = &grow[(j * pp.rows + oy) * pp.pitch..][..ow];
                                for (v, &y) in orow.iter_mut().zip(src) {
                                    *v = y + b;
                                }
                            }
                        }
                    }
                    Ok::<(), NnError>(())
                });
            },
        );
        err.into_result()
    }

    /// Backward from the forward's cache. After a `Train` forward, `dL/dW`
    /// reads the cached panels first and `dL/dx` then overwrites each panel
    /// in place with its `dcols` before scattering it back to input
    /// geometry. After a stride-1 `Eval` forward, `dL/dx` runs on padded
    /// planes with no `dcols` at all ([`ops::conv_input_grad_slices`]);
    /// after a strided one, each pool range's slot takes the panels' place.
    /// Besides `dx`, the backward takes only per-range slots from the
    /// workspace.
    fn backward_from_cache(
        &mut self,
        grad_out: &Tensor,
        (g, n, mut panels): (ConvGeometry, usize, Option<Vec<f32>>),
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let span = g.out_height() * g.out_width();
        let patch = g.patch_len();
        let item_in = g.channels * g.height * g.width;
        let item_out = self.out_channels * span;
        if grad_out.len() != n * item_out {
            if let Some(cols) = panels {
                ws.recycle(cols);
            }
            return Err(NnError::Tensor(ahw_tensor::TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: grad_out.dims().to_vec(),
                rhs: vec![n, self.out_channels, g.out_height(), g.out_width()],
            }));
        }
        let dyv = grad_out.as_slice();
        let oc = self.out_channels;
        let per = panel_images(n, span);

        // pass 1, `Train` only: dL/dW, dL/db from the cached panels (must
        // run before the dx pass overwrites them). One folded kernel call
        // takes every image's weight gradient, one dot4 per element over
        // its own column block, and folds the images in fixed chunks; each
        // channel's bias gradient folds the images' dY sums by the same
        // chunks. Both partition their outputs over the pool, so gradients
        // are bit-identical at any thread count and any panel width.
        if let Some(colsv) = panels.as_deref() {
            // (dL/dW)ᵀ: patch × oc
            let mut dwt = ws.take(patch * oc);
            let res = ops::matmul_transb_fold_slices(colsv, dyv, n, per, patch, span, oc, &mut dwt);
            if let Err(e) = res {
                ws.recycle(dwt);
                if let Some(cols) = panels {
                    ws.recycle(cols);
                }
                return Err(e.into());
            }
            let grad = self.weight.grad.as_mut_slice();
            for (o, grow) in grad.chunks_exact_mut(patch).enumerate() {
                for (g, d) in grow.iter_mut().zip(dwt.iter().skip(o).step_by(oc)) {
                    *g += d;
                }
            }
            ws.recycle(dwt);
            let db = self.bias.grad.as_mut_slice();
            pool::par_row_chunks_mut(db, 1, pool::min_rows(n * span), |first, db| {
                for (c, g) in (first..).zip(db) {
                    let [total] = ops::fold_images(n, |i| {
                        [dyv[i * item_out + c * span..][..span].iter().sum::<f32>()]
                    });
                    *g += total;
                }
            });
        }

        // pass 2: dL/dx per panel of images
        let mut dx = ws.take(n * item_in);
        let wv = self.weight.value.as_slice();
        let err = ErrCell::new();
        if panels.is_none() && g.stride == 1 {
            // a stride-1 `Eval` input gradient runs on padded planes: each
            // panel's dY goes onto its range's grid, and each dcols row is
            // added into a padded plane as soon as it is computed
            let one = g.padded_planes(1);
            par_groups_mut(
                n,
                per,
                [
                    Part::Items(&mut dx, item_in),
                    Part::Slot(oc * one.rows * one.pitch + g.channels * one.len),
                ],
                ws,
                |p, images, [dxp, scratch]| {
                    err.run(p, || {
                        let pp = g.padded_planes(images.len());
                        let scratch = &mut scratch[..oc * pp.grid + g.channels * pp.len];
                        let dy = &dyv[images.start * item_out..images.end * item_out];
                        ops::conv_input_grad_slices(wv, dy, images.len(), &g, oc, scratch, dxp)?;
                        Ok::<(), NnError>(())
                    });
                },
            );
        } else {
            // One GEMM writes the panel's dcols from dY in the panel's
            // (oc × images·span) layout, over its cached columns after a
            // `Train` forward and into its range's slot after a strided
            // `Eval` one, and one col2im scatters the whole panel back to
            // its images. A one-image panel reads its dY where it is; a
            // wider one gathers it into its range's slot.
            let gathered = if per > 1 { item_out } else { 0 };
            par_groups_mut(
                n,
                per,
                [
                    Part::Items(&mut dx, item_in),
                    panels_part(&mut panels, patch * span),
                    Part::Slot(gathered),
                ],
                ws,
                |p, images, [dxp, panel, dyp]| {
                    err.run(p, || {
                        let width = images.len() * span;
                        let dy = if images.len() == 1 {
                            &dyv[images.start * item_out..images.end * item_out]
                        } else {
                            for (j, i) in images.clone().enumerate() {
                                let dyi = &dyv[i * item_out..(i + 1) * item_out];
                                for (c, src) in dyi.chunks_exact(span).enumerate() {
                                    dyp[c * width + j * span..][..span].copy_from_slice(src);
                                }
                            }
                            &*dyp
                        };
                        ops::matmul_transa_slices(wv, dy, patch, oc, width, panel)?;
                        ops::col2im_slices(panel, images.len(), &g, dxp)?;
                        Ok::<(), NnError>(())
                    });
                },
            );
        }
        let res = err.into_result();
        if let Some(cols) = panels {
            ws.recycle(cols);
        }
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
        let mut out = ws.take(n * self.out_channels * span);
        let mut panels = None;
        let res = if mode == Mode::Eval && self.stride == 1 {
            self.forward_padded(x, &g, &mut out, ws)
        } else {
            panels = (mode == Mode::Train).then(|| ws.take(n * g.patch_len() * span));
            self.forward_panels(x, &g, &mut out, &mut panels, ws)
        };
        if let Err(e) = res {
            ws.recycle(out);
            if let Some(cols) = panels {
                ws.recycle(cols);
            }
            return Err(e);
        }
        self.cache = Some((g, n, panels));
        let y = Tensor::from_vec(out, &[n, self.out_channels, g.out_height(), g.out_width()])?;
        Ok(self.hook.apply(y, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let cache = self.cache.take().ok_or_else(|| NnError::NoForwardCache {
            layer: self.describe(),
        })?;
        self.backward_from_cache(grad_out, cache, ws)
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
    use crate::util::at_threads;
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
        let y = conv.forward_ws(&x, Mode::Train, &mut ws).unwrap();
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

    /// Direct convolution of `conv` over `x`, by definition, returning
    /// `(y, dx)`: the output and the input gradient for output gradient
    /// `dy`.
    fn direct_conv(conv: &Conv2d, x: &Tensor, dy: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let [n, c, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
        let (k, s, p, oc) = (conv.kernel, conv.stride, conv.padding, conv.out_channels);
        let (oh, ow) = ((h + 2 * p - k) / s + 1, (w + 2 * p - k) / s + 1);
        let (wv, bv) = (conv.weight().as_slice(), conv.bias().as_slice());
        let mut y = vec![0.0f32; n * oc * oh * ow];
        let mut dx = vec![0.0f32; x.len()];
        for b in 0..n {
            for o in 0..oc {
                for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                    let at = ((b * oc + o) * oh + oy) * ow + ox;
                    let mut acc = bv[o];
                    for (ci, ky, kx) in (0..c).flat_map(|ci| {
                        (0..k).flat_map(move |ky| (0..k).map(move |kx| (ci, ky, kx)))
                    }) {
                        let iy = (oy * s + ky) as isize - p as isize;
                        let ix = (ox * s + kx) as isize - p as isize;
                        if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                            let px = ((b * c + ci) * h + iy as usize) * w + ix as usize;
                            let wt = wv[o * c * k * k + (ci * k + ky) * k + kx];
                            acc += wt * x.as_slice()[px];
                            dx[px] += wt * dy.as_slice()[at];
                        }
                    }
                    y[at] = acc;
                }
            }
        }
        (y, dx)
    }

    #[test]
    fn padding_wider_than_the_image_matches_direct_convolution() {
        // A 1×1 input under a 5×5 kernel with padding 2 (and its neighbours):
        // most taps read only padding. The stride-1 lowering used to
        // underflow computing the tap's span for kx = 4. The last case has
        // no pixels at all: every output is the bias and dx is empty.
        let close = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(u, v)| (u - v).abs() <= 1e-4)
        };
        for (dims, kernel, stride, padding) in [
            ([1usize, 1, 1, 1], 5usize, 1usize, 2usize),
            ([2, 2, 1, 3], 5, 1, 2),
            ([2, 1, 2, 1], 5, 2, 2),
            ([3, 2, 3, 2], 3, 2, 1),
            ([3, 2, 0, 0], 1, 1, 1),
        ] {
            let mut r = seeded(12);
            let mut conv = Conv2d::new(dims[1], 2, kernel, stride, padding, &mut r).unwrap();
            conv.bias.value = ahw_tensor::rng::normal(&[2], 0.0, 1.0, &mut r);
            let x = ahw_tensor::rng::normal(&dims, 0.0, 1.0, &mut r);
            let y = conv.forward(&x, Mode::Eval).unwrap();
            let dy = ahw_tensor::rng::normal(y.dims(), 0.0, 1.0, &mut r);
            let dx = conv.backward(&dy).unwrap();
            let (y_ref, dx_ref) = direct_conv(&conv, &x, &dy);
            assert!(close(y.as_slice(), &y_ref), "forward {dims:?} k{kernel}");
            assert!(close(dx.as_slice(), &dx_ref), "backward {dims:?} k{kernel}");
        }
    }

    /// Square input sizes whose 3×3 same-padded span is below, at, and
    /// above [`PANEL_COLS`] per image, with `g` images per full panel.
    fn panel_cases() -> Vec<(usize, usize)> {
        [2usize, 4, 8, 32]
            .into_iter()
            .map(|size| (size, (PANEL_COLS / (size * size)).max(1)))
            .collect()
    }

    /// Bit patterns of a tensor.
    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn panel_outputs_and_input_grads_match_one_image_batches() {
        // The batched pass runs at top level at each thread count, so its
        // panels run in parallel over the pool on distinct slots (an
        // `Eval` pass) or on their cached columns (a `Train` pass).
        for (size, g) in panel_cases() {
            let mut batches = vec![1, g.saturating_sub(1), g, g + 1, 2 * g + 3];
            batches.retain(|&n| n > 0);
            batches.dedup();
            let mut r = seeded(size as u64);
            let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut r).unwrap();
            conv.bias.value = ahw_tensor::rng::normal(&[3], 0.0, 1.0, &mut r);
            for n in batches {
                let x = ahw_tensor::rng::normal(&[n, 2, size, size], 0.0, 1.0, &mut r);
                let dy = ahw_tensor::rng::normal(&[n, 3, size, size], 0.0, 1.0, &mut r);
                let (item_in, item_out) = (2 * size * size, 3 * size * size);
                let one_image: Vec<_> = (0..n)
                    .map(|i| {
                        let xi = &x.as_slice()[i * item_in..(i + 1) * item_in];
                        let dyi = &dy.as_slice()[i * item_out..(i + 1) * item_out];
                        let yi = conv
                            .forward(
                                &Tensor::from_vec(xi.to_vec(), &[1, 2, size, size]).unwrap(),
                                Mode::Eval,
                            )
                            .unwrap();
                        let dxi = conv
                            .backward(&Tensor::from_vec(dyi.to_vec(), &[1, 3, size, size]).unwrap())
                            .unwrap();
                        (bits(yi.as_slice()), bits(dxi.as_slice()))
                    })
                    .collect();
                for threads in [1usize, 2, 4, 7] {
                    for mode in [Mode::Eval, Mode::Train] {
                        let (y, dx) = at_threads(threads, || {
                            let y = conv.forward(&x, mode).unwrap();
                            (y, conv.backward(&dy).unwrap())
                        });
                        for (i, (yi, dxi)) in one_image.iter().enumerate() {
                            let what = format!(
                                "{size}x{size}, image {i} of {n} (g = {g}), \
                                 {mode:?} at {threads} threads"
                            );
                            assert_eq!(
                                &bits(&y.as_slice()[i * item_out..(i + 1) * item_out]),
                                yi,
                                "forward {what}"
                            );
                            assert_eq!(
                                &bits(&dx.as_slice()[i * item_in..(i + 1) * item_in]),
                                dxi,
                                "input gradient {what}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn panel_param_grads_are_thread_count_invariant() {
        // 2→3 and 3→5 channels: weight gradients of 18×3 and 27×5, so the
        // folded kernel's ragged rows and columns run at top level too; on
        // the 2×2 and 4×4 maps (spans 4 and 16) also 3→19, a 27×19
        // gradient on the column-lane core: two full lane blocks, a ragged
        // one and a ragged block of rows
        for ((size, g), (cin, cout)) in panel_cases().into_iter().flat_map(|case| {
            let wide = (case.0 <= 4).then_some((case, (3, 19)));
            [(case, (2, 3)), (case, (3, 5))].into_iter().chain(wide)
        }) {
            let n = 2 * g + 3;
            let mut r = seeded(20 + size as u64);
            let conv = Conv2d::new(cin, cout, 3, 1, 1, &mut r).unwrap();
            let x = ahw_tensor::rng::normal(&[n, cin, size, size], 0.0, 1.0, &mut r);
            let dy = ahw_tensor::rng::normal(&[n, cout, size, size], 0.0, 1.0, &mut r);
            for mode in [Mode::Train, Mode::Eval] {
                let grads = |threads: usize| {
                    let mut c = conv.clone();
                    let dx = at_threads(threads, || {
                        c.forward(&x, mode).unwrap();
                        c.backward(&dy).unwrap()
                    });
                    (
                        bits(c.weight.grad.as_slice()),
                        bits(c.bias.grad.as_slice()),
                        bits(dx.as_slice()),
                    )
                };
                let reference = grads(1);
                for threads in [2usize, 4, 7] {
                    assert_eq!(
                        grads(threads),
                        reference,
                        "{cin}->{cout} on {size}x{size}, n = {n}, {mode:?}: \
                         dW/db/dx differ at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn eval_scratch_does_not_grow_with_the_batch() {
        // One range (one thread) lowers every panel into the same slot, so
        // the bytes an `Eval` forward+backward parks in its workspace grow
        // with `n` only by the output and the input gradient.
        for size in [32usize, 8] {
            let mut r = seeded(30 + size as u64);
            let mut conv = Conv2d::new(4, 6, 3, 1, 1, &mut r).unwrap();
            let (item_in, item_out) = (4 * size * size, 6 * size * size);
            let mut parked = |n: usize| {
                let x = ahw_tensor::rng::normal(&[n, 4, size, size], 0.0, 1.0, &mut seeded(1));
                let dy = ahw_tensor::rng::normal(&[n, 6, size, size], 0.0, 1.0, &mut seeded(2));
                let mut ws = Workspace::new();
                at_threads(1, || {
                    let y = conv.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
                    let dx = conv.backward_ws(&dy, &mut ws).unwrap();
                    ws.recycle_tensor(y);
                    ws.recycle_tensor(dx);
                });
                assert_eq!(ws.outstanding(), 0);
                ws.resident_bytes()
            };
            let (small, large) = (parked(8), parked(64));
            assert_eq!(
                large - small,
                4 * (64 - 8) * (item_in + item_out),
                "{size}x{size}: Eval conv scratch grows with the batch"
            );
        }
    }
}
