use crate::layer::{grad_shape_error, HookCell, Layer, Mode};
use crate::NnError;
use ahw_tensor::{Shape, Tensor, TensorError, Workspace};

fn pool_out(extent: usize, kernel: usize, stride: usize) -> usize {
    (extent - kernel) / stride + 1
}

/// Output dims of a pool over a (validated) `(N, C, H, W)` input shape.
fn pool_out_dims(in_dims: &[usize], kernel: usize, stride: usize) -> [usize; 4] {
    [
        in_dims[0],
        in_dims[1],
        pool_out(in_dims[2], kernel, stride),
        pool_out(in_dims[3], kernel, stride),
    ]
}

/// Validates a pool input and returns the output dims.
fn check_pool_input(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    op: &'static str,
) -> Result<[usize; 4], NnError> {
    if x.rank() != 4 {
        return Err(NnError::Tensor(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: x.rank(),
        }));
    }
    let (h, w) = (x.dims()[2], x.dims()[3]);
    if kernel == 0 || stride == 0 || h < kernel || w < kernel {
        return Err(NnError::Tensor(TensorError::InvalidArgument(format!(
            "{op}: kernel {kernel}/stride {stride} invalid for {h}x{w} input"
        ))));
    }
    Ok(pool_out_dims(x.dims(), kernel, stride))
}

/// Max pooling over square windows of a `(N, C, H, W)` tensor.
///
/// These are the `P` sites of the paper's Table I: the pooled activation map
/// is what gets written to the layer's activation memory, so the hook slot
/// sits on the pool output.
#[derive(Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    hook: HookCell,
    /// Flat index into the input chosen per output element, re-filled in
    /// place by every forward so the steady state allocates nothing.
    argmax: Vec<u32>,
    /// Input shape of the last forward, `None` once a backward consumed it.
    cache: Option<Shape>,
}

impl std::fmt::Debug for MaxPool2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaxPool2d")
            .field("kernel", &self.kernel)
            .field("stride", &self.stride)
            .finish_non_exhaustive()
    }
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window and stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            hook: HookCell::default(),
            argmax: Vec::new(),
            cache: None,
        }
    }

    /// Fills `out` (already sized `n·c·oh·ow`) and rewrites `self.argmax`
    /// to the same length.
    fn run_core(&mut self, x: &Tensor, out: &mut [f32]) {
        self.argmax.clear();
        self.argmax.resize(out.len(), 0);
        if self.kernel == 2 && self.stride == 2 {
            max_pool_2x2(x, out, &mut self.argmax);
        } else {
            max_pool_scan(x, self.kernel, self.stride, out, &mut self.argmax);
        }
    }
}

/// The reference max pool: scans each window in (ky, kx) order and keeps
/// the first element strictly above everything before it. NaN never wins,
/// of equal values (±0 included) the first is kept, and a window with
/// nothing above −∞ keeps its own first element, so its gradient stays in
/// its plane.
fn max_pool_scan(x: &Tensor, kernel: usize, stride: usize, out: &mut [f32], argmax: &mut [u32]) {
    let [n, c, oh, ow] = pool_out_dims(x.dims(), kernel, stride);
    let (h, w) = (x.dims()[2], x.dims()[3]);
    let xv = x.as_slice();
    let mut o = 0usize;
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = base + oy * stride * w + ox * stride;
                    for ky in 0..kernel {
                        let iy = oy * stride + ky;
                        for kx in 0..kernel {
                            let ix = ox * stride + kx;
                            let idx = base + iy * w + ix;
                            if xv[idx] > best {
                                best = xv[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[o] = best;
                    argmax[o] = best_idx as u32;
                    o += 1;
                }
            }
        }
    }
}

/// [`max_pool_scan`] for the 2×2 stride-2 window of every VGG pool, with
/// the same visiting order and strict `>`, so the same outputs and argmax
/// bits. Each comparison selects instead of branching, and the fixed window
/// lets a row of outputs vectorize.
fn max_pool_2x2(x: &Tensor, out: &mut [f32], argmax: &mut [u32]) {
    let [_, _, oh, ow] = pool_out_dims(x.dims(), 2, 2);
    let (h, w) = (x.dims()[2], x.dims()[3]);
    let w32 = w as u32;
    let planes = x.as_slice().chunks_exact(h * w).zip(0u32..);
    let out_planes = out
        .chunks_exact_mut(oh * ow)
        .zip(argmax.chunks_exact_mut(oh * ow));
    for ((plane, p), (out_plane, arg_plane)) in planes.zip(out_planes) {
        // an odd last row or column belongs to no window
        let row_pairs = plane.chunks_exact(2 * w).zip(0u32..);
        let out_rows = out_plane
            .chunks_exact_mut(ow)
            .zip(arg_plane.chunks_exact_mut(ow));
        for ((pair, oy), (out_row, arg_row)) in row_pairs.zip(out_rows) {
            let first = p * (h * w) as u32 + 2 * oy * w32;
            let upper = pair[..2 * ow].chunks_exact(2);
            let lower = pair[w..w + 2 * ow].chunks_exact(2);
            let cells = out_row.iter_mut().zip(arg_row.iter_mut());
            for (((u, l), ox), (o, a)) in upper.zip(lower).zip(0u32..).zip(cells) {
                let window = [(u[0], 0), (u[1], 1), (l[0], w32), (l[1], w32 + 1)];
                let (mut best, mut offset) = (f32::NEG_INFINITY, 0);
                for (v, k) in window {
                    let above = v > best;
                    best = if above { v } else { best };
                    offset = if above { k } else { offset };
                }
                *o = best;
                *a = first + 2 * ox + offset;
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        _mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let od = check_pool_input(x, self.kernel, self.stride, "maxpool2d")?;
        let mut out = ws.take(od.iter().product());
        self.run_core(x, &mut out);
        self.cache = Some(Shape::new(x.dims()));
        let y = Tensor::from_vec(out, &od)?;
        Ok(self.hook.apply(y, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let in_shape = self.cache.take().ok_or_else(|| NnError::NoForwardCache {
            layer: self.describe(),
        })?;
        let out_dims = pool_out_dims(in_shape.dims(), self.kernel, self.stride);
        if grad_out.dims() != out_dims {
            return Err(grad_shape_error("maxpool2d", grad_out, &out_dims));
        }
        let mut dx = ws.take(in_shape.volume());
        dx.fill(0.0);
        for (&g, &idx) in grad_out.as_slice().iter().zip(&self.argmax) {
            dx[idx as usize] += g;
        }
        Ok(Tensor::from_vec(dx, in_shape.dims())?)
    }

    fn output_hook(&mut self) -> Option<&mut HookCell> {
        Some(&mut self.hook)
    }

    fn describe(&self) -> String {
        format!("maxpool2d(k{}, s{})", self.kernel, self.stride)
    }
}

/// Average pooling over square windows of a `(N, C, H, W)` tensor.
///
/// With `kernel == H == W` this is the global average pool closing a ResNet.
#[derive(Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    hook: HookCell,
    cache: Option<Shape>,
}

impl std::fmt::Debug for AvgPool2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AvgPool2d")
            .field("kernel", &self.kernel)
            .field("stride", &self.stride)
            .finish_non_exhaustive()
    }
}

impl AvgPool2d {
    /// Creates an average-pool layer with the given window and stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        AvgPool2d {
            kernel,
            stride,
            hook: HookCell::default(),
            cache: None,
        }
    }

    /// Fills `out` (already sized `n·c·oh·ow`).
    fn run_core(&self, x: &Tensor, out: &mut [f32]) {
        let [n, c, oh, ow] = pool_out_dims(x.dims(), self.kernel, self.stride);
        let (h, w) = (x.dims()[2], x.dims()[3]);
        let xv = x.as_slice();
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut o = 0usize;
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ky in 0..self.kernel {
                            let iy = oy * self.stride + ky;
                            let row = base + iy * w + ox * self.stride;
                            for kx in 0..self.kernel {
                                acc += xv[row + kx];
                            }
                        }
                        out[o] = acc * inv;
                        o += 1;
                    }
                }
            }
        }
    }

    /// Scatters `grad_out` (already checked against the output shape) back
    /// over the input windows; `dx` must be zero-filled on entry.
    fn backward_core(&self, grad_out: &Tensor, in_dims: &[usize], dx: &mut [f32]) {
        let [n, c, oh, ow] = pool_out_dims(in_dims, self.kernel, self.stride);
        let (h, w) = (in_dims[2], in_dims[3]);
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let gv = grad_out.as_slice();
        let mut o = 0usize;
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gv[o] * inv;
                        o += 1;
                        for ky in 0..self.kernel {
                            let iy = oy * self.stride + ky;
                            let row = base + iy * w + ox * self.stride;
                            for kx in 0..self.kernel {
                                dx[row + kx] += g;
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Layer for AvgPool2d {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        _mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let od = check_pool_input(x, self.kernel, self.stride, "avgpool2d")?;
        let mut out = ws.take(od.iter().product());
        self.run_core(x, &mut out);
        self.cache = Some(Shape::new(x.dims()));
        let y = Tensor::from_vec(out, &od)?;
        Ok(self.hook.apply(y, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let in_shape = self.cache.take().ok_or_else(|| NnError::NoForwardCache {
            layer: self.describe(),
        })?;
        let out_dims = pool_out_dims(in_shape.dims(), self.kernel, self.stride);
        if grad_out.dims() != out_dims {
            return Err(grad_shape_error("avgpool2d", grad_out, &out_dims));
        }
        let mut dx = ws.take(in_shape.volume());
        dx.fill(0.0);
        self.backward_core(grad_out, in_shape.dims(), &mut dx);
        Ok(Tensor::from_vec(dx, in_shape.dims())?)
    }

    fn output_hook(&mut self) -> Option<&mut HookCell> {
        Some(&mut self.hook)
    }

    fn describe(&self) -> String {
        format!("avgpool2d(k{}, s{})", self.kernel, self.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let mut pool = MaxPool2d::new(2, 2);
        let y = pool.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let mut pool = MaxPool2d::new(2, 2);
        pool.forward(&x, Mode::Eval).unwrap();
        let dx = pool
            .backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn a_window_with_nothing_above_negative_infinity_keeps_its_gradient() {
        // two 2×2 images, the second all −∞; then one 2×4 image whose
        // second window is all −∞. Each such window's gradient lands on its
        // own first element (pixels 4 and 2), not on flat index 0.
        let inf = f32::NEG_INFINITY;
        for (x, dims, want) in [
            (
                vec![1.0, 2.0, 3.0, 4.0, inf, inf, inf, inf],
                [2, 1, 2, 2],
                [0.0, 0.0, 0.0, 10.0, 100.0, 0.0, 0.0, 0.0],
            ),
            (
                vec![1.0, 2.0, inf, inf, 3.0, 4.0, inf, inf],
                [1, 1, 2, 4],
                [0.0, 0.0, 100.0, 0.0, 0.0, 10.0, 0.0, 0.0],
            ),
        ] {
            let mut pool = MaxPool2d::new(2, 2);
            let y = pool
                .forward(&Tensor::from_vec(x, &dims).unwrap(), Mode::Eval)
                .unwrap();
            assert_eq!(y.as_slice(), &[4.0, inf]);
            let dy = Tensor::from_vec(vec![10.0, 100.0], y.dims()).unwrap();
            assert_eq!(pool.backward(&dy).unwrap().as_slice(), &want);
        }
    }

    /// The 2×2 select path against the reference scan, bit for bit, on
    /// windows of NaN, ±0, ±∞ and ties, including all −∞ (and all NaN)
    /// windows and odd heights and widths whose last row or column belongs
    /// to no window.
    #[test]
    fn two_by_two_path_matches_the_reference_scan_bitwise() {
        use ahw_tensor::rng::{seeded, Rng};
        let inf = f32::INFINITY;
        let palette = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            -inf,
            inf,
            1.0,
            -1.0,
            0.5,
            f32::MIN_POSITIVE,
        ];
        let mut r = seeded(0x9001);
        for dims in [
            [1, 1, 2, 2],
            [2, 3, 5, 7],
            [3, 2, 9, 4],
            [1, 2, 33, 31],
            [4, 1, 3, 3],
        ] {
            let len: usize = dims.iter().product();
            let mut values: Vec<f32> = (0..len)
                .map(|_| palette[r.gen_range(0..palette.len())])
                .collect();
            // the first window of every plane all −∞, the last all NaN
            let (h, w) = (dims[2], dims[3]);
            for plane in values.chunks_exact_mut(h * w) {
                let last = (h / 2 - 1) * 2 * w + (w / 2 - 1) * 2;
                for (start, v) in [(0, -inf), (last, f32::NAN)] {
                    for idx in [start, start + 1, start + w, start + w + 1] {
                        plane[idx] = v;
                    }
                }
            }
            let x = Tensor::from_vec(values, &dims).unwrap();
            let out_len = pool_out_dims(&dims, 2, 2).iter().product();
            let (mut want, mut want_arg) = (vec![0.0; out_len], vec![0; out_len]);
            let (mut got, mut got_arg) = (vec![1.0; out_len], vec![7; out_len]);
            max_pool_scan(&x, 2, 2, &mut want, &mut want_arg);
            max_pool_2x2(&x, &mut got, &mut got_arg);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "outputs differ for {dims:?}");
            assert_eq!(got_arg, want_arg, "argmax differs for {dims:?}");
            // and the layer takes the 2×2 path
            let mut pool = MaxPool2d::new(2, 2);
            let y = pool.forward(&x, Mode::Eval).unwrap();
            assert_eq!(bits(y.as_slice()), bits(&want));
            assert_eq!(pool.argmax, want_arg);
        }
    }

    #[test]
    fn avgpool_averages_windows() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let mut pool = AvgPool2d::new(2, 2);
        let y = pool.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
    }

    #[test]
    fn avgpool_backward_spreads_evenly() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let mut pool = AvgPool2d::new(2, 2);
        pool.forward(&x, Mode::Eval).unwrap();
        let dx = pool
            .backward(&Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_rejects_small_input() {
        let mut pool = MaxPool2d::new(3, 3);
        assert!(pool
            .forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn pool_rejects_wrong_rank() {
        let mut pool = AvgPool2d::new(2, 2);
        assert!(pool.forward(&Tensor::zeros(&[4, 4]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_rejects_misshaped_grad() {
        let x = Tensor::from_vec((0..32).map(|i| i as f32).collect(), &[2, 1, 4, 4]).unwrap();
        let short = Tensor::ones(&[1, 1, 2, 2]);
        let mut max = MaxPool2d::new(2, 2);
        max.forward(&x, Mode::Eval).unwrap();
        assert!(matches!(
            max.backward(&short),
            Err(NnError::Tensor(TensorError::ShapeMismatch { .. }))
        ));
        let mut avg = AvgPool2d::new(2, 2);
        avg.forward(&x, Mode::Eval).unwrap();
        assert!(matches!(
            avg.backward(&short),
            Err(NnError::Tensor(TensorError::ShapeMismatch { .. }))
        ));
        // a well-shaped gradient after a fresh forward still works
        max.forward(&x, Mode::Eval).unwrap();
        let dx = max.backward(&Tensor::ones(&[2, 1, 2, 2])).unwrap();
        assert_eq!(dx.sum(), 8.0);
    }

    #[test]
    fn overlapping_maxpool_shape() {
        let x = Tensor::zeros(&[2, 3, 5, 5]);
        let mut pool = MaxPool2d::new(3, 1);
        let y = pool.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 3, 3, 3]);
    }
}
