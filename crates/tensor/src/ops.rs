//! Numeric kernels: blocked GEMM, `im2col`/`col2im` lowering, row-wise
//! softmax utilities.
//!
//! These are the hot paths for both software inference/training and for the
//! hardware models (a crossbar-mapped model computes through the same GEMM
//! with its effective weights).
//!
//! All matrix kernels partition their **output rows** over the persistent
//! worker pool ([`crate::pool`]). Each output row is accumulated in the
//! exact same serial order regardless of how rows are distributed, so
//! results are bit-identical at any `AHW_THREADS` value. The microkernels
//! use 4-way split accumulators with no data-dependent branches: they
//! autovectorize, and (unlike the earlier `if aik == 0.0` skip) they
//! preserve IEEE non-finite semantics — `0·∞` and `0·NaN` contribute NaN
//! instead of being silently dropped.
//!
//! Every op keeps two forms sharing one kernel, so results are
//! bit-identical across both:
//!
//! - a `_slices` core (`matmul_slices`) taking raw slices plus explicit
//!   dimensions and writing into a caller-provided buffer, typically
//!   checked out of a [`crate::Workspace`];
//! - a [`Tensor`] wrapper (`matmul`) that checks shapes and returns a
//!   fresh tensor.
//!
//! The two exceptions are cores whose only callers are layer backward
//! passes, so they have no wrapper: [`matmul_transa_slices`] runs on the
//! same accumulating GEMM core as [`matmul_slices`], which reads its left
//! operand through a (row stride, column stride) pair, and
//! [`matmul_transb_fold_slices`] runs on the same dot-product core as
//! [`matmul_transb_slices`].
//!
//! The lowering cores take a count of consecutive images: [`im2col_slices`]
//! writes their dense `(C·K·K) × (images·span)` column panel, image `j` in
//! columns `j·span..(j + 1)·span`, and [`col2im_slices`] scatters such a
//! panel back to the images. [`matmul_transb_fold_slices`] reads a batch's
//! panels in place: a convolution's weight gradient is one call per layer
//! that takes every image's `dot4` over its own column block and folds the
//! images in fixed chunks. Its output elements partition over the pool,
//! four rows by four columns at a time through a lane-packed microkernel
//! whose sixteen results are the bits of sixteen `dot4` calls.

use crate::{pool, Tensor, TensorError};
use ahw_telemetry as telemetry;
use std::ops::Range;

/// Multiply–accumulate work done by the GEMM kernels (`2·m·n·k` per call).
static GEMM_FLOPS: telemetry::LazyCounter = telemetry::LazyCounter::new("tensor.ops.gemm_flops");
/// Operand + result traffic of the GEMM kernels (`4·(mk + kn + mn)` bytes).
static GEMM_BYTES: telemetry::LazyCounter = telemetry::LazyCounter::new("tensor.ops.gemm_bytes");
/// Elements gathered by `im2col` lowerings.
static IM2COL_ELEMS: telemetry::LazyCounter =
    telemetry::LazyCounter::new("tensor.ops.im2col_elems");
/// Elements scattered by `col2im` adjoints.
static COL2IM_ELEMS: telemetry::LazyCounter =
    telemetry::LazyCounter::new("tensor.ops.col2im_elems");

/// Records the work of `calls` GEMMs of one shape after their shape check
/// passes.
fn count_gemm(calls: usize, m: usize, n: usize, k: usize) {
    let calls = calls as u64;
    GEMM_FLOPS.add(calls * 2 * (m as u64) * (n as u64) * (k as u64));
    GEMM_BYTES.add(calls * 4 * ((m * k) as u64 + (k * n) as u64 + (m * n) as u64));
}

/// Cache-blocking tile edge for the GEMM microkernel, in elements.
const BLOCK: usize = 64;

/// Fused 4-row AXPY: `orow[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]`.
///
/// The four products are folded left-to-right per element, so the
/// accumulation order is fixed by the loop structure alone.
#[inline]
fn axpy4(orow: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    let len = orow.len();
    let (b0, b1, b2, b3) = (&b0[..len], &b1[..len], &b2[..len], &b3[..len]);
    for j in 0..len {
        orow[j] += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
    }
}

/// Register-blocked 4×4 GEMM inner kernel: four output rows × four k-steps.
/// Every `b` element loaded serves four output rows, quartering the
/// bandwidth the plain AXPY kernel needs — the 256³ GEMM is L2-bound, not
/// flop-bound, so this is where the speedup lives.
///
/// Each row's update is the exact expression [`axpy4`] computes, so a row
/// produces bit-identical results whether it goes through the 4-row block
/// or the single-row tail path (and therefore under any row partition).
#[inline]
fn axpy4x4(o: [&mut [f32]; 4], a: [[f32; 4]; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    let [o0, o1, o2, o3] = o;
    let len = o0.len();
    let (b0, b1, b2, b3) = (&b0[..len], &b1[..len], &b2[..len], &b3[..len]);
    let (o1, o2, o3) = (&mut o1[..len], &mut o2[..len], &mut o3[..len]);
    for j in 0..len {
        let (x0, x1, x2, x3) = (b0[j], b1[j], b2[j], b3[j]);
        o0[j] += a[0][0] * x0 + a[0][1] * x1 + a[0][2] * x2 + a[0][3] * x3;
        o1[j] += a[1][0] * x0 + a[1][1] * x1 + a[1][2] * x2 + a[1][3] * x3;
        o2[j] += a[2][0] * x0 + a[2][1] * x1 + a[2][2] * x2 + a[2][3] * x3;
        o3[j] += a[3][0] * x0 + a[3][1] * x1 + a[3][2] * x2 + a[3][3] * x3;
    }
}

/// Single-row AXPY tail: `orow[j] += a · brow[j]` (no zero skip).
#[inline]
fn axpy1(orow: &mut [f32], a: f32, brow: &[f32]) {
    for (o, &x) in orow.iter_mut().zip(brow) {
        *o += a * x;
    }
}

/// Split-accumulator dot product: four interleaved partial sums combined in
/// a fixed tree order, plus a serial tail. Branch-free and autovectorizes.
#[inline]
fn dot4(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let xq = x.chunks_exact(4);
    let yq = y.chunks_exact(4);
    let xr = xq.remainder();
    let yr = yq.remainder();
    for (xs, ys) in xq.zip(yq) {
        acc[0] += xs[0] * ys[0];
        acc[1] += xs[1] * ys[1];
        acc[2] += xs[2] * ys[2];
        acc[3] += xs[3] * ys[3];
    }
    let mut tail = 0.0f32;
    for (a, b) in xr.iter().zip(yr) {
        tail += a * b;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The sixteen [`dot4`]s of four `a` rows with four `b` rows (all of one
/// length), bit for bit: element `4·c + r` is `dot4(a[r], b[c])`.
///
/// [`dot4x4_steps`] keeps `dot4`'s four partial sums of every pair in one
/// lane each; they combine here in `dot4`'s tree order, `(acc0 + acc1) +
/// (acc2 + acc3)`, as two rounds of pairwise sums across adjacent lanes,
/// and the serial tail is added last.
#[inline]
fn dot4x4(a: [&[f32]; 4], b: [&[f32]; 4]) -> [f32; 16] {
    let k = a[0].len();
    let q = k - k % 4;
    let (a, b) = (a.map(|row| &row[..k]), b.map(|row| &row[..k]));
    let acc = dot4x4_steps(&a, &b, q);
    let sums = pair_sums(&pair_sums(&acc[0], &acc[1]), &pair_sums(&acc[2], &acc[3]));
    let mut tails = [0.0f32; 16];
    if q < k {
        for (l, tail) in tails.iter_mut().enumerate() {
            for (x, y) in a[l % 4][q..].iter().zip(&b[l / 4][q..]) {
                *tail += x * y;
            }
        }
    }
    let mut out = [0.0f32; 16];
    for l in 0..16 {
        out[l] = sums[l] + tails[l];
    }
    out
}

/// `[x's adjacent-lane sums, y's adjacent-lane sums]`.
#[inline(always)]
fn pair_sums(x: &[f32; 16], y: &[f32; 16]) -> [f32; 16] {
    let mut out = [0.0f32; 16];
    for j in 0..8 {
        out[j] = x[2 * j] + x[2 * j + 1];
        out[8 + j] = y[2 * j] + y[2 * j + 1];
    }
    out
}

/// [`dot4x4`]'s lane-packed partial sums over the rows' first `q` elements
/// (a multiple of 4): lane `4·r + t` of `acc[c]` holds partial sum `t` of
/// `a[r] · b[c]`. Each 4-element step multiplies one 16-lane vector of the
/// four `a` quads by each `b` row's quad repeated four times, so every lane
/// adds `a[r][4q + t] · b[c][4q + t]` from +0.0 in ascending `q`, exactly
/// `dot4`'s `acc[t]`. Four independent 16-lane accumulators keep the FP
/// units busy where one `dot4` waits on its own add chain.
///
/// Out of line on purpose: inlined into the image loops that call it, the
/// compiler keeps the accumulators in memory and the loop runs at a third
/// of the speed.
#[inline(never)]
fn dot4x4_steps(a: &[&[f32]; 4], b: &[&[f32]; 4], q: usize) -> [[f32; 16]; 4] {
    let mut acc = [[0.0f32; 16]; 4];
    let mut kk = 0;
    while kk < q {
        let mut quads = [0.0f32; 16];
        for r in 0..4 {
            quads[4 * r..4 * r + 4].copy_from_slice(&a[r][kk..kk + 4]);
        }
        for c in 0..4 {
            let bq: [f32; 4] = b[c][kk..kk + 4].try_into().expect("a 4-element slice");
            for l in 0..16 {
                acc[c][l] += quads[l] * bq[l % 4];
            }
        }
        kk += 4;
    }
    acc
}

/// Upper bound on the chunks [`fold_images`] folds images into.
const FOLD_CHUNKS: usize = 16;

/// Folds `value(i)` over `images` images in fixed chunks: chunk `j` holds
/// images `j·len..(j + 1)·len` with `len = images.div_ceil(16)` (the last
/// chunk may be shorter), each chunk's sum starts at +0.0 and adds its
/// images' values in ascending image order, chunk 0's sum is the running
/// total, and later chunks' sums are added to it left to right (+0.0 for
/// no images). The order depends only on `images`, never on the thread
/// count. [`matmul_transb_fold_slices`] folds its sixteen-element blocks
/// this way; a conv bias gradient folds its per-image sums by the same
/// rule.
#[inline]
pub fn fold_images<const L: usize>(
    images: usize,
    mut value: impl FnMut(usize) -> [f32; L],
) -> [f32; L] {
    let len = images.div_ceil(FOLD_CHUNKS).max(1);
    let mut total = [0.0f32; L];
    for start in (0..images).step_by(len) {
        let mut sum = [0.0f32; L];
        for i in start..(start + len).min(images) {
            for (s, v) in sum.iter_mut().zip(value(i)) {
                *s += v;
            }
        }
        if start == 0 {
            total = sum;
        } else {
            for (t, s) in total.iter_mut().zip(sum) {
                *t += s;
            }
        }
    }
    total
}

fn require_rank2(t: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok(())
}

fn require_len(len: usize, expected: usize) -> Result<(), TensorError> {
    if len != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: len,
        });
    }
    Ok(())
}

/// Validates the operand ranks/shapes shared by the `matmul*` wrappers and
/// returns `(m, k, n)`. `tb` flags a logically transposed right operand
/// (stored `(n×k)`).
fn gemm_dims(
    a: &Tensor,
    b: &Tensor,
    op: &'static str,
    tb: bool,
) -> Result<(usize, usize, usize), TensorError> {
    require_rank2(a, op)?;
    require_rank2(b, op)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = if tb {
        (b.dims()[0], b.dims()[1])
    } else {
        (b.dims()[1], b.dims()[0])
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok((m, k, n))
}

/// The accumulating GEMM core: adds `A (m×k) · b (k×n)` into `out`, which
/// the caller must have zeroed, reading `A(i, kk)` at `av[i·rs + kk·cs]` —
/// `(rs, cs) = (k, 1)` for a row-major `a`, `(1, m)` for one stored
/// transposed as `(k×m)`. Dimensions are trusted (checked by the entry
/// points); the span is recorded under the entry point's `name`, and the
/// work is counted here, so every entry point counts alike.
fn gemm_kernel(
    name: &'static str,
    (av, rs, cs): (&[f32], usize, usize),
    bv: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let _span = telemetry::span_labeled(name, || format!("{m}x{k}x{n}"));
    count_gemm(1, m, n, k);
    let a = |i: usize, kk: usize| av[i * rs + kk * cs];
    let quad = |i: usize, kk: usize| [a(i, kk), a(i, kk + 1), a(i, kk + 2), a(i, kk + 3)];
    let brow = |kk: usize| &bv[kk * n..(kk + 1) * n];
    // Row-partitioned i-k-j order with k-blocking and 4-row register
    // blocking: each chunk of output rows streams the same block of b rows
    // (L2 resident) while every row's accumulation order stays fixed — kb
    // blocks ascending, kk ascending 4 at a time, products folded
    // left-to-right — independent of the partition, of the strides and of
    // whether the row went through the blocked or the tail path.
    pool::par_row_chunks_mut(out, n, pool::min_rows(k * n), |first, orows| {
        let rows = orows.len() / n;
        for kb in (0..k).step_by(BLOCK) {
            let kend = (kb + BLOCK).min(k);
            let mut r = 0usize;
            while r + 4 <= rows {
                let i = first + r;
                let (c0, rest) = orows[r * n..(r + 4) * n].split_at_mut(n);
                let (c1, rest) = rest.split_at_mut(n);
                let (c2, c3) = rest.split_at_mut(n);
                let mut kk = kb;
                while kk + 4 <= kend {
                    axpy4x4(
                        [&mut c0[..], &mut c1[..], &mut c2[..], &mut c3[..]],
                        [
                            quad(i, kk),
                            quad(i + 1, kk),
                            quad(i + 2, kk),
                            quad(i + 3, kk),
                        ],
                        brow(kk),
                        brow(kk + 1),
                        brow(kk + 2),
                        brow(kk + 3),
                    );
                    kk += 4;
                }
                while kk < kend {
                    axpy1(c0, a(i, kk), brow(kk));
                    axpy1(c1, a(i + 1, kk), brow(kk));
                    axpy1(c2, a(i + 2, kk), brow(kk));
                    axpy1(c3, a(i + 3, kk), brow(kk));
                    kk += 1;
                }
                r += 4;
            }
            for (rr, orow) in orows[r * n..].chunks_mut(n).enumerate() {
                let i = first + r + rr;
                let mut kk = kb;
                while kk + 4 <= kend {
                    axpy4(
                        orow,
                        quad(i, kk),
                        brow(kk),
                        brow(kk + 1),
                        brow(kk + 2),
                        brow(kk + 3),
                    );
                    kk += 4;
                }
                while kk < kend {
                    axpy1(orow, a(i, kk), brow(kk));
                    kk += 1;
                }
            }
        }
    });
}

/// Blocked matrix multiplication `a (m×k) · b (k×n) -> (m×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless both operands are rank 2 and
/// [`TensorError::ShapeMismatch`] if `a.cols != b.rows`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = gemm_dims(a, b, "matmul", false)?;
    let mut out = vec![0.0f32; m * n];
    matmul_slices(a.as_slice(), b.as_slice(), m, k, n, &mut out)?;
    Tensor::from_vec(out, &[m, n])
}

/// [`matmul`] on raw slices with explicit dimensions, writing into a
/// caller-provided `(m·n)` buffer. Prior contents of `out` are discarded.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if any slice length disagrees
/// with `(m, k, n)`.
pub fn matmul_slices(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    require_len(a.len(), m * k)?;
    require_len(b.len(), k * n)?;
    require_len(out.len(), m * n)?;
    out.fill(0.0);
    gemm_kernel("tensor.ops.matmul", (a, k, 1), b, m, k, n, out);
    Ok(())
}

/// `a (m×k) · bᵀ` where `b` is stored `(n×k)` — i.e. GEMM with the right-hand
/// operand logically transposed, without materializing the transpose.
///
/// This is the layout the backward passes want (`dX = dY · Wᵀ` with `W`
/// stored row-major as `(out, in)`).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] as
/// [`matmul`] does.
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = gemm_dims(a, b, "matmul_transb", true)?;
    let mut out = vec![0.0f32; m * n];
    matmul_transb_slices(a.as_slice(), b.as_slice(), m, k, n, &mut out)?;
    Tensor::from_vec(out, &[m, n])
}

/// [`matmul_transb`] on raw slices: `a` is `(m×k)` and `b` is `(n×k)`.
/// Fully overwrites `out`; every element is one split-accumulator dot
/// product of `k` terms. It runs [`matmul_transb_fold_slices`]' core on a
/// single image, whose fold of one value is that value.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if any slice length disagrees
/// with `(m, k, n)`.
pub fn matmul_transb_slices(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    matmul_transb_fold_slices(a, b, 1, 1, m, k, n, out)
}

/// `Σᵢ aᵢ · bᵢᵀ` over `images` images, folded in fixed chunks: the weight
/// gradient of a convolution, `(dL/dW)ᵀ = Σᵢ colsᵢ · dYᵢᵀ`, in one call.
///
/// `a` holds the images' `(m×k)` blocks as column panels of `per`
/// consecutive images (the last panel may hold fewer), panel after panel:
/// a panel of `j` images is an `(m × j·k)` matrix with its `t`-th image in
/// columns `t·k..(t + 1)·k` — the layout [`im2col_slices`] writes with
/// `m = C·K·K` and `k` the output span. `b` holds the images' dense
/// `(n×k)` blocks one after another. `out` is fully overwritten with the
/// `(m×n)` fold.
///
/// Element `(r, c)` is image `i`'s `dot4(a row r, b row c)`, folded over
/// the images by [`fold_images`]: each chunk's sum starts at +0.0 and adds
/// its images in ascending order, and the chunk sums fold left to right
/// onto chunk 0's. The output rows partition over the pool,
/// four at a time through the lane-packed `dot4x4` microkernel, with one
/// `dot4` per element on the ragged edges; each element's arithmetic is
/// the same on either path and at any thread count.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if any slice length disagrees
/// with `(images, m, k, n)`, and [`TensorError::InvalidArgument`] if
/// `per` is zero.
#[allow(clippy::too_many_arguments)]
pub fn matmul_transb_fold_slices(
    a: &[f32],
    b: &[f32],
    images: usize,
    per: usize,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    if per == 0 {
        return Err(TensorError::InvalidArgument(
            "a column panel must hold at least one image".into(),
        ));
    }
    require_len(a.len(), images * m * k)?;
    require_len(b.len(), images * n * k)?;
    require_len(out.len(), m * n)?;
    let _span = telemetry::span_labeled("tensor.ops.matmul_transb", || {
        format!("{m}x{k}x{n}, {images} images")
    });
    count_gemm(images, m, n, k);
    // row r of image i's block of `a`: image i is the (i − first)-th of
    // the panel starting at image `first`, whose rows hold its images' `k`
    // columns side by side
    let a_row = |i: usize, r: usize| {
        let first = i / per * per;
        let pitch = per.min(images - first) * k;
        &a[first * m * k + r * pitch + (i - first) * k..][..k]
    };
    let b_row = |i: usize, c: usize| &b[(i * n + c) * k..][..k];
    let one = |r: usize, c: usize| fold_images(images, |i| [dot4(a_row(i, r), b_row(i, c))])[0];
    // blocks of four output rows; the last block may be short
    pool::par_row_chunks_mut(
        out,
        4 * n,
        pool::min_rows(4 * images * k * n),
        |first, blocks| {
            for (bi, block) in blocks.chunks_mut(4 * n).enumerate() {
                let r0 = 4 * (first + bi);
                // a block of four rows takes its columns four at a time
                let mut c0 = 0;
                while block.len() == 4 * n && c0 + 4 <= n {
                    let t = fold_images(images, |i| {
                        dot4x4(
                            [
                                a_row(i, r0),
                                a_row(i, r0 + 1),
                                a_row(i, r0 + 2),
                                a_row(i, r0 + 3),
                            ],
                            [
                                b_row(i, c0),
                                b_row(i, c0 + 1),
                                b_row(i, c0 + 2),
                                b_row(i, c0 + 3),
                            ],
                        )
                    });
                    for (r, orow) in block.chunks_exact_mut(n).enumerate() {
                        for (c, o) in orow[c0..c0 + 4].iter_mut().enumerate() {
                            *o = t[4 * c + r];
                        }
                    }
                    c0 += 4;
                }
                for (r, orow) in block.chunks_exact_mut(n).enumerate() {
                    for (c, o) in orow.iter_mut().enumerate().skip(c0) {
                        *o = one(r0 + r, c);
                    }
                }
            }
        },
    );
    Ok(())
}

/// `aᵀ · b` on raw slices, where `a` is stored `(k×m)` and `b` is `(k×n)` —
/// GEMM with the left-hand operand logically transposed, without
/// materializing the transpose. Backward passes use it for `Wᵀ · dY` and
/// `dYᵀ · X`. It runs [`matmul_slices`]' core with the transposed strides,
/// so it writes the bits [`matmul`] gives on the materialized transpose.
/// Prior contents of `out` are discarded.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if any slice length disagrees
/// with `(m, k, n)`.
pub fn matmul_transa_slices(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    require_len(a.len(), k * m)?;
    require_len(b.len(), k * n)?;
    require_len(out.len(), m * n)?;
    out.fill(0.0);
    gemm_kernel("tensor.ops.matmul_transa", (a, 1, m), b, m, k, n, out);
    Ok(())
}

/// Geometry of a 2-D convolution used by [`im2col`]/[`col2im`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel edge.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output height after convolution.
    pub fn out_height(&self) -> usize {
        (self.height + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width after convolution.
    pub fn out_width(&self) -> usize {
        (self.width + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of rows in the lowered patch matrix (`C·K·K`).
    pub fn patch_len(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Validates that the geometry produces at least one output position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a kernel larger than the
    /// padded input or a zero stride/kernel.
    pub fn validate(&self) -> Result<(), TensorError> {
        if self.kernel == 0 || self.stride == 0 {
            return Err(TensorError::InvalidArgument(
                "kernel and stride must be non-zero".into(),
            ));
        }
        if self.height + 2 * self.padding < self.kernel
            || self.width + 2 * self.padding < self.kernel
        {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {} larger than padded input {}x{}",
                self.kernel,
                self.height + 2 * self.padding,
                self.width + 2 * self.padding
            )));
        }
        Ok(())
    }
}

/// Output positions `o` in `0..out_len` whose kernel tap `k` reads a real
/// pixel, i.e. `o·stride + k − padding` lies in `0..extent`, along one axis
/// of `g`. The range is empty when the tap only ever reads padding, and
/// every index in it keeps `o·stride + k ≥ padding`, so subtracting the
/// padding cannot underflow.
fn tap_range(k: usize, extent: usize, out_len: usize, g: &ConvGeometry) -> Range<usize> {
    // the lowering cores call this once per patch row: keep the common
    // stride-1 case free of integer division
    let steps = |len: usize| {
        if g.stride == 1 {
            len
        } else {
            len.div_ceil(g.stride)
        }
    };
    let end = steps((extent + g.padding).saturating_sub(k)).min(out_len);
    let start = steps(g.padding.saturating_sub(k)).min(end);
    start..end
}

/// Lowers a `(C, H, W)` image to a `(C·K·K, OH·OW)` patch matrix so that
/// convolution becomes a single GEMM with the `(OC, C·K·K)` weight matrix.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not match the
/// geometry, or [`TensorError::InvalidArgument`] for a degenerate geometry.
pub fn im2col(input: &Tensor, g: &ConvGeometry) -> Result<Tensor, TensorError> {
    g.validate()?;
    if input.dims() != [g.channels, g.height, g.width] {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: input.dims().to_vec(),
            rhs: vec![g.channels, g.height, g.width],
        });
    }
    let span = g.out_height() * g.out_width();
    let mut out = vec![0.0f32; g.patch_len() * span];
    im2col_slices(input.as_slice(), 1, g, &mut out)?;
    Tensor::from_vec(out, &[g.patch_len(), span])
}

/// [`im2col`] of `images` consecutive `(C, H, W)` images in `inp`, side by
/// side: writes their `(C·K·K) × (images·span)` column panel into `out`,
/// image `j`'s patch matrix in columns `j·span..(j + 1)·span`. Every
/// element is overwritten, padding taps with zero.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a degenerate geometry, and
/// [`TensorError::LengthMismatch`] if `inp` does not hold `images` images or
/// `out` is not the panel's size.
pub fn im2col_slices(
    inp: &[f32],
    images: usize,
    g: &ConvGeometry,
    out: &mut [f32],
) -> Result<(), TensorError> {
    g.validate()?;
    let (oh, ow) = (g.out_height(), g.out_width());
    let span = oh * ow;
    let width = images * span;
    let plane_len = g.height * g.width;
    require_len(inp.len(), images * g.channels * plane_len)?;
    require_len(out.len(), g.patch_len() * width)?;
    let _span = telemetry::span("tensor.ops.im2col");
    IM2COL_ELEMS.add((g.patch_len() * width) as u64);
    // Each patch row (c, ky, kx) gathers into a disjoint panel row, so the
    // rows partition freely over the pool. A row's tap and its valid
    // ranges are worked out once and serve every image's column block.
    pool::par_row_chunks_mut(out, width, pool::min_rows(width), |first, orows| {
        for (r, orow) in orows.chunks_mut(width).enumerate() {
            let row = first + r;
            let c = row / (g.kernel * g.kernel);
            let ky = (row / g.kernel) % g.kernel;
            let kx = row % g.kernel;
            let ys = tap_range(ky, g.height, oh, g);
            let xs = tap_range(kx, g.width, ow, g);
            // padding taps read zero: clear the row, then copy the taps
            // that read real pixels
            orow.fill(0.0);
            if xs.is_empty() {
                continue;
            }
            // first input column the tap reads; in range by `tap_range`
            let ix0 = xs.start * g.stride + kx - g.padding;
            for (j, oblock) in orow.chunks_exact_mut(span).enumerate() {
                let plane = &inp[(j * g.channels + c) * plane_len..][..plane_len];
                for oy in ys.clone() {
                    let iy = oy * g.stride + ky - g.padding;
                    let irow = &plane[iy * g.width..(iy + 1) * g.width];
                    let o = &mut oblock[oy * ow + xs.start..oy * ow + xs.end];
                    if g.stride == 1 {
                        // contiguous span of the input row
                        o.copy_from_slice(&irow[ix0..ix0 + o.len()]);
                    } else {
                        for (v, &p) in o.iter_mut().zip(irow[ix0..].iter().step_by(g.stride)) {
                            *v = p;
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

/// Scatters a `(C·K·K, OH·OW)` patch-gradient matrix back to a `(C, H, W)`
/// image, accumulating overlapping contributions — the adjoint of [`im2col`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry, or [`TensorError::InvalidArgument`] for a degenerate geometry.
pub fn col2im(cols_t: &Tensor, g: &ConvGeometry) -> Result<Tensor, TensorError> {
    g.validate()?;
    let span = g.out_height() * g.out_width();
    if cols_t.dims() != [g.patch_len(), span] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols_t.dims().to_vec(),
            rhs: vec![g.patch_len(), span],
        });
    }
    let mut out = vec![0.0f32; g.channels * g.height * g.width];
    col2im_slices(cols_t.as_slice(), 1, g, &mut out)?;
    Tensor::from_vec(out, &[g.channels, g.height, g.width])
}

/// [`col2im`] of a column panel of `images` images, the adjoint of
/// [`im2col_slices`]: reads the `(C·K·K) × (images·span)` panel `cols` and
/// writes image `j`'s `(C, H, W)` gradient, scattered from columns
/// `j·span..(j + 1)·span`, as the `j`-th image of `out`. Prior contents of
/// `out` are discarded.
///
/// Every pixel accumulates its taps in ascending `(ky, kx)` order starting
/// from zero. At stride 1 each tap adds one contiguous run of an input row,
/// the adjoint of [`im2col_slices`]' span copy.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a degenerate geometry, and
/// [`TensorError::LengthMismatch`] if `cols` is not the panel's size or
/// `out` does not hold `images` images.
pub fn col2im_slices(
    cols: &[f32],
    images: usize,
    g: &ConvGeometry,
    out: &mut [f32],
) -> Result<(), TensorError> {
    g.validate()?;
    let (oh, ow) = (g.out_height(), g.out_width());
    let span = oh * ow;
    let width = images * span;
    let plane_len = g.height * g.width;
    require_len(cols.len(), g.patch_len() * width)?;
    require_len(out.len(), images * g.channels * plane_len)?;
    out.fill(0.0);
    let _span = telemetry::span("tensor.ops.col2im");
    COL2IM_ELEMS.add((g.patch_len() * width) as u64);
    // Overlapping scatters stay within one (image, channel) plane, so the
    // planes are the natural disjoint partition; within a plane a tap
    // (ky, kx) reaches each pixel at most once, so looping taps outermost
    // keeps every pixel's serial (ky, kx) accumulation order at every
    // thread count.
    pool::par_row_chunks_mut(
        out,
        plane_len,
        pool::min_rows(g.kernel * g.kernel * span),
        |first, planes| {
            for (pc, plane) in planes.chunks_mut(plane_len).enumerate() {
                let (j, c) = ((first + pc) / g.channels, (first + pc) % g.channels);
                for ky in 0..g.kernel {
                    let ys = tap_range(ky, g.height, oh, g);
                    for kx in 0..g.kernel {
                        let xs = tap_range(kx, g.width, ow, g);
                        if xs.is_empty() {
                            continue;
                        }
                        let row = (c * g.kernel + ky) * g.kernel + kx;
                        let crow = &cols[row * width + j * span..][..span];
                        let ix0 = xs.start * g.stride + kx - g.padding;
                        for oy in ys.clone() {
                            let iy = oy * g.stride + ky - g.padding;
                            let prow = &mut plane[iy * g.width..(iy + 1) * g.width];
                            let src = &crow[oy * ow + xs.start..oy * ow + xs.end];
                            if g.stride == 1 {
                                for (d, &v) in prow[ix0..ix0 + src.len()].iter_mut().zip(src) {
                                    *d += v;
                                }
                            } else {
                                for (d, &v) in prow[ix0..].iter_mut().step_by(g.stride).zip(src) {
                                    *d += v;
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    Ok(())
}

/// Numerically-stable row-wise softmax: normalizes `out` (which already
/// holds the logits) in place, row by row.
fn softmax_kernel(out: &mut [f32], cols: usize) {
    pool::par_row_chunks_mut(out, cols.max(1), pool::min_rows(cols), |_, rows_block| {
        for row in rows_block.chunks_mut(cols.max(1)) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    });
}

/// Mean cross-entropy of row-wise `logits` against integer `labels`, together
/// with the gradient of that loss with respect to the logits.
///
/// Returns `(loss, dlogits)` where `dlogits = (softmax - onehot) / rows`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix logits or
/// [`TensorError::InvalidArgument`] if `labels.len()` differs from the row
/// count or a label is out of range.
pub fn cross_entropy_with_grad(
    logits: &Tensor,
    labels: &[usize],
) -> Result<(f32, Tensor), TensorError> {
    require_rank2(logits, "cross_entropy")?;
    let (rows, cols) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != rows {
        return Err(TensorError::InvalidArgument(format!(
            "{} labels for {} logit rows",
            labels.len(),
            rows
        )));
    }
    let mut grad = vec![0.0f32; rows * cols];
    let loss = cross_entropy_with_grad_slices(logits.as_slice(), labels, cols, &mut grad)?;
    Ok((loss, Tensor::from_vec(grad, &[rows, cols])?))
}

/// [`cross_entropy_with_grad`] on raw slices: `logits` is the row-major
/// `(labels.len() × cols)` matrix; the gradient is written into `grad` (same
/// length) and the loss returned. Prior contents of `grad` are discarded.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `logits` or `grad` is not
/// `labels.len()·cols` long, or [`TensorError::InvalidArgument`] for a label
/// out of range.
pub fn cross_entropy_with_grad_slices(
    logits: &[f32],
    labels: &[usize],
    cols: usize,
    grad: &mut [f32],
) -> Result<f32, TensorError> {
    let rows = labels.len();
    require_len(logits.len(), rows * cols)?;
    require_len(grad.len(), rows * cols)?;
    if let Some(&bad) = labels.iter().find(|&&l| l >= cols) {
        return Err(TensorError::InvalidArgument(format!(
            "label {bad} out of range for {cols} classes"
        )));
    }
    // grad holds the softmax probabilities first; the label probability is
    // read before the in-place `-1`, so the arithmetic (and therefore the
    // bits) match the two-buffer formulation exactly.
    grad.copy_from_slice(logits);
    softmax_kernel(grad, cols);
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        let p = grad[r * cols + label].max(1e-12);
        loss -= p.ln();
        grad[r * cols + label] -= 1.0;
    }
    let inv = 1.0 / rows as f32;
    for g in grad.iter_mut() {
        *g *= inv;
    }
    Ok(loss * inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{self, ensure};

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n]).unwrap()
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        crate::rng::uniform(dims, -1.0, 1.0, &mut crate::rng::seeded(seed))
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_tensor(&[7, 13], 1);
        let b = rand_tensor(&[13, 5], 2);
        assert_close(&matmul(&a, &b).unwrap(), &naive_matmul(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_blocked_large_k() {
        // k spans multiple blocks.
        let a = rand_tensor(&[3, 200], 3);
        let b = rand_tensor(&[200, 4], 4);
        assert_close(&matmul(&a, &b).unwrap(), &naive_matmul(&a, &b), 1e-3);
    }

    #[test]
    fn matmul_unroll_remainders_match_naive() {
        // k values exercising every 4-way remainder and a block boundary
        for k in [1usize, 2, 3, 5, 63, 64, 65, 66, 67] {
            let a = rand_tensor(&[3, k], 100 + k as u64);
            let b = rand_tensor(&[k, 6], 200 + k as u64);
            assert_close(&matmul(&a, &b).unwrap(), &naive_matmul(&a, &b), 1e-3);
        }
    }

    #[test]
    fn matmul_propagates_nonfinite_products() {
        // A zero in `a` must not skip the product: 0·∞ and 0·NaN are NaN.
        // The old `if aik == 0.0 { continue }` kernel silently returned 0.
        let a = Tensor::from_vec(vec![0.0, 0.0, 0.0], &[1, 3]).unwrap();
        let b =
            Tensor::from_vec(vec![f32::INFINITY, 1.0, 2.0, f32::NAN, 3.0, 4.0], &[3, 2]).unwrap();
        let y = matmul(&a, &b).unwrap();
        assert!(
            y.as_slice()[0].is_nan(),
            "0·inf row lost: {:?}",
            y.as_slice()
        );
        assert!(
            y.as_slice()[1].is_nan(),
            "0·NaN row lost: {:?}",
            y.as_slice()
        );

        // `a` stored transposed as (3×1)
        let mut yt = [0.0f32; 2];
        matmul_transa_slices(a.as_slice(), b.as_slice(), 1, 3, 2, &mut yt).unwrap();
        assert!(yt[0].is_nan() && yt[1].is_nan());

        let tb = Tensor::from_vec(vec![f32::INFINITY, 1.0, 2.0], &[1, 3]).unwrap();
        let yb = matmul_transb(&a, &tb).unwrap();
        assert!(yb.as_slice()[0].is_nan());
    }

    #[test]
    fn kernels_are_bit_identical_across_thread_counts() {
        let a = rand_tensor(&[65, 130], 51);
        let b = rand_tensor(&[130, 67], 52);
        // geometry large enough that im2col's row partition engages the pool
        let g = ConvGeometry {
            channels: 8,
            height: 32,
            width: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = rand_tensor(&[8, 32, 32], 53);
        let reference = {
            crate::pool::set_thread_override(Some(1));
            let r = (matmul(&a, &b).unwrap(), im2col(&x, &g).unwrap());
            crate::pool::set_thread_override(None);
            r
        };
        for threads in [2usize, 4, 7] {
            crate::pool::set_thread_override(Some(threads));
            let m = matmul(&a, &b).unwrap();
            let c = im2col(&x, &g).unwrap();
            crate::pool::set_thread_override(None);
            assert_eq!(m, reference.0, "matmul differs at {threads} threads");
            assert_eq!(c, reference.1, "im2col differs at {threads} threads");
        }
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = rand_tensor(&[4, 6], 5);
        let b = rand_tensor(&[3, 6], 6);
        let expect = matmul(&a, &b.transpose().unwrap()).unwrap();
        assert_close(&matmul_transb(&a, &b).unwrap(), &expect, 1e-4);
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        // One GEMM core: `aᵀ·b` is the exact bits of `matmul` on the
        // materialized transpose, in the 4-row blocked path, the row tail
        // and across a k-block boundary.
        for (m, k, n) in [(6usize, 4usize, 3usize), (9, 67, 5), (3, 130, 1)] {
            let a = rand_tensor(&[k, m], 7 + m as u64);
            let b = rand_tensor(&[k, n], 8 + k as u64);
            let expect = matmul(&a.transpose().unwrap(), &b).unwrap();
            let mut out = vec![f32::NAN; m * n];
            matmul_transa_slices(a.as_slice(), b.as_slice(), m, k, n, &mut out).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(expect.as_slice()), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_slices_match_tensor_wrappers_bitwise() {
        // Property: the `_slices` cores write the exact bits the tensor
        // wrappers return, even into a buffer full of garbage.
        check::cases(32).run("ops::gemm_slices_equivalence", |g| {
            let m = g.usize_in("m", 1, 9);
            let k = g.usize_in("k", 1, 70);
            let n = g.usize_in("n", 1, 9);
            let seed = g.seed("seed");
            let mut r = crate::rng::seeded(seed);
            let a = crate::rng::uniform(&[m, k], -1.0, 1.0, &mut r);
            let b = crate::rng::uniform(&[k, n], -1.0, 1.0, &mut r);
            let at = crate::rng::uniform(&[k, m], -1.0, 1.0, &mut r);
            let bt = crate::rng::uniform(&[n, k], -1.0, 1.0, &mut r);
            let mut out = vec![f32::NAN; m * n];
            matmul_slices(a.as_slice(), b.as_slice(), m, k, n, &mut out).unwrap();
            ensure(out == matmul(&a, &b).unwrap().as_slice(), "matmul_slices")?;
            out.fill(f32::NAN);
            matmul_transa_slices(at.as_slice(), b.as_slice(), m, k, n, &mut out).unwrap();
            ensure(
                out == matmul(&at.transpose().unwrap(), &b).unwrap().as_slice(),
                "matmul_transa_slices",
            )?;
            out.fill(f32::NAN);
            matmul_transb_slices(a.as_slice(), bt.as_slice(), m, k, n, &mut out).unwrap();
            ensure(
                out == matmul_transb(&a, &bt).unwrap().as_slice(),
                "matmul_transb_slices",
            )
        });
    }

    #[test]
    fn conv_lowering_slices_match_tensor_wrappers_bitwise() {
        check::cases(64).run("ops::conv_slices_equivalence", |g| {
            let kernel = g.usize_in("kernel", 1, 6);
            let geo = ConvGeometry {
                channels: g.usize_in("channels", 1, 4),
                height: g.usize_in("height", 1, 10),
                width: g.usize_in("width", 1, 10),
                kernel,
                stride: g.usize_in("stride", 1, 4),
                padding: g.usize_in("padding", 0, kernel),
            };
            check::assume(geo.validate().is_ok())?;
            let seed = g.seed("seed");
            let mut r = crate::rng::seeded(seed);
            let x = crate::rng::uniform(&[geo.channels, geo.height, geo.width], -1.0, 1.0, &mut r);
            let span = geo.out_height() * geo.out_width();
            let cols = crate::rng::uniform(&[geo.patch_len(), span], -1.0, 1.0, &mut r);
            let mut cbuf = vec![f32::NAN; geo.patch_len() * span];
            im2col_slices(x.as_slice(), 1, &geo, &mut cbuf).unwrap();
            ensure(
                cbuf == im2col(&x, &geo).unwrap().as_slice(),
                "im2col_slices",
            )?;
            let mut ibuf = vec![f32::NAN; geo.channels * geo.height * geo.width];
            col2im_slices(cols.as_slice(), 1, &geo, &mut ibuf).unwrap();
            ensure(
                ibuf == col2im(&cols, &geo).unwrap().as_slice(),
                "col2im_slices",
            )
        });
    }

    #[test]
    fn cross_entropy_slices_match_tensor_wrapper_bitwise() {
        check::cases(32).run("ops::cross_entropy_slices_equivalence", |g| {
            let rows = g.usize_in("rows", 1, 8);
            let cols = g.usize_in("cols", 1, 12);
            let seed = g.seed("seed");
            let mut r = crate::rng::seeded(seed);
            let logits = crate::rng::uniform(&[rows, cols], -4.0, 4.0, &mut r);
            let labels: Vec<usize> = (0..rows).map(|i| (seed as usize + i) % cols).collect();
            let (loss, grad) = cross_entropy_with_grad(&logits, &labels).unwrap();
            let mut gbuf = vec![f32::NAN; rows * cols];
            let loss2 = cross_entropy_with_grad_slices(logits.as_slice(), &labels, cols, &mut gbuf)
                .unwrap();
            ensure(loss.to_bits() == loss2.to_bits(), "loss bits")?;
            ensure(gbuf == grad.as_slice(), "grad bits")
        });
    }

    #[test]
    fn slice_cores_reject_wrong_output_length() {
        let a = rand_tensor(&[2, 3], 61);
        let b = rand_tensor(&[3, 4], 62);
        let mut short = vec![0.0f32; 7];
        assert!(matches!(
            matmul_slices(a.as_slice(), b.as_slice(), 2, 3, 4, &mut short),
            Err(TensorError::LengthMismatch { expected: 8, .. })
        ));
        assert!(matmul_transa_slices(a.as_slice(), b.as_slice(), 2, 3, 4, &mut short).is_err());
        let g = ConvGeometry {
            channels: 1,
            height: 4,
            width: 4,
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        // a two-image panel of 9 patch rows × 2·4 columns
        let x = rand_tensor(&[2, 1, 4, 4], 63);
        let mut panel = vec![0.0f32; 9 * 8];
        let mut cols = vec![0.0f32; 9 * 4];
        let one_image = &x.as_slice()[..16];
        assert!(matches!(
            im2col_slices(one_image, 2, &g, &mut panel),
            Err(TensorError::LengthMismatch { expected: 32, .. })
        ));
        for wrong in [&mut cols[..], &mut vec![0.0f32; 9 * 8 + 1][..]] {
            assert!(matches!(
                im2col_slices(x.as_slice(), 2, &g, wrong),
                Err(TensorError::LengthMismatch { expected: 72, .. })
            ));
        }
        assert!(matches!(
            col2im_slices(&cols, 2, &g, &mut [0.0; 32]),
            Err(TensorError::LengthMismatch { expected: 72, .. })
        ));
        assert!(matches!(
            col2im_slices(&panel, 2, &g, &mut [0.0; 16]),
            Err(TensorError::LengthMismatch { expected: 32, .. })
        ));
        assert!(matmul_transb_slices(a.as_slice(), &cols, 2, 3, 4, &mut short).is_err());
        // the fold reads 2 images of (2×3) and (4×3) blocks into a (2×4)
        // output, and a panel must hold an image
        let (a2, b2) = (vec![0.0f32; 12], vec![0.0f32; 24]);
        assert!(matches!(
            matmul_transb_fold_slices(&a2, &b2, 2, 0, 2, 3, 4, &mut [0.0; 8]),
            Err(TensorError::InvalidArgument(_))
        ));
        assert!(matches!(
            matmul_transb_fold_slices(&a2, &b2[1..], 2, 1, 2, 3, 4, &mut [0.0; 8]),
            Err(TensorError::LengthMismatch { expected: 24, .. })
        ));
        assert!(matches!(
            matmul_transb_fold_slices(&a2, &b2, 2, 2, 2, 3, 4, &mut short),
            Err(TensorError::LengthMismatch { expected: 8, .. })
        ));
        assert!(cross_entropy_with_grad_slices(a.as_slice(), &[0, 1], 3, &mut short).is_err());
    }

    #[test]
    fn conv_geometry_output_dims() {
        let g = ConvGeometry {
            channels: 3,
            height: 32,
            width: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(g.out_height(), 32);
        assert_eq!(g.out_width(), 32);
        assert_eq!(g.patch_len(), 27);
    }

    #[test]
    fn conv_geometry_validation() {
        let g = ConvGeometry {
            channels: 1,
            height: 2,
            width: 2,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is a reshape.
        let x = rand_tensor(&[2, 3, 3], 9);
        let g = ConvGeometry {
            channels: 2,
            height: 3,
            width: 3,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.dims(), &[2, 9]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn lowering_skips_taps_that_only_read_padding() {
        // A 1-pixel-wide input under a 5-wide kernel with padding 2: taps
        // kx = 3, 4 never reach a real column. The stride-1 span used to
        // compute `width + padding - kx`, which underflowed for kx = 4.
        for (h, w) in [(1usize, 1usize), (3, 1), (1, 2), (2, 3)] {
            let g = ConvGeometry {
                channels: 2,
                height: h,
                width: w,
                kernel: 5,
                stride: 1,
                padding: 2,
            };
            let x = rand_tensor(&[2, h, w], 71);
            let (oh, ow) = (g.out_height(), g.out_width());
            let c = rand_tensor(&[g.patch_len(), oh * ow], 72);
            let cols = im2col(&x, &g).unwrap();
            let img = col2im(&c, &g).unwrap();
            // naive gather and scatter, in col2im's (ky, kx) tap order
            let mut dense = vec![0.0f32; g.patch_len() * oh * ow];
            let mut scatter = vec![0.0f32; 2 * h * w];
            for ch in 0..2 {
                for ky in 0..5 {
                    for kx in 0..5 {
                        let row = (ch * 5 + ky) * 5 + kx;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let iy = (oy + ky) as isize - 2;
                                let ix = (ox + kx) as isize - 2;
                                if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                                    let px = (ch * h + iy as usize) * w + ix as usize;
                                    let at = row * oh * ow + oy * ow + ox;
                                    dense[at] = x.as_slice()[px];
                                    scatter[px] += c.as_slice()[at];
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(cols.as_slice(), &dense[..], "im2col {h}x{w}");
            assert_eq!(img.as_slice(), &scatter[..], "col2im {h}x{w}");
        }
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let x = Tensor::ones(&[1, 2, 2]);
        let g = ConvGeometry {
            channels: 1,
            height: 2,
            width: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let cols = im2col(&x, &g).unwrap();
        // top-left output position, kernel element (0,0) reads padded zero
        assert_eq!(cols.at(&[0, 0]).unwrap(), 0.0);
        // center kernel element always reads a real pixel
        assert_eq!(cols.at(&[4, 0]).unwrap(), 1.0);
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // direct 2D convolution vs im2col+GEMM on a small case
        let x = rand_tensor(&[2, 5, 5], 11);
        let w = rand_tensor(&[3, 2 * 3 * 3], 12); // 3 output channels
        let g = ConvGeometry {
            channels: 2,
            height: 5,
            width: 5,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let cols = im2col(&x, &g).unwrap();
        let y = matmul(&w, &cols).unwrap();
        // direct computation for output channel 1, position (1,1)
        let (oy, ox) = (1usize, 1usize);
        let mut acc = 0.0f32;
        for c in 0..2 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let iy = (oy * 2 + ky) as isize - 1;
                    let ix = (ox * 2 + kx) as isize - 1;
                    if (0..5).contains(&iy) && (0..5).contains(&ix) {
                        acc += x.at(&[c, iy as usize, ix as usize]).unwrap()
                            * w.at(&[1, c * 9 + ky * 3 + kx]).unwrap();
                    }
                }
            }
        }
        let got = y.at(&[1, oy * g.out_width() + ox]).unwrap();
        assert!((acc - got).abs() < 1e-4, "{acc} vs {got}");
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        // dlogits = (softmax - onehot) / rows and softmax rows sum to one
        let t = rand_tensor(&[4, 10], 31);
        let (_, grad) = cross_entropy_with_grad(&t, &[0, 3, 9, 3]).unwrap();
        for r in 0..4 {
            let sum: f32 = grad.as_slice()[r * 10..(r + 1) * 10].iter().sum();
            assert!(sum.abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn cross_entropy_is_shift_invariant() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -4.0, 0.5, 2.0], &[2, 3]).unwrap();
        let mut shifted = t.clone();
        for (i, v) in shifted.as_mut_slice().iter_mut().enumerate() {
            *v += if i < 3 { 100.0 } else { -37.0 };
        }
        let (loss, grad) = cross_entropy_with_grad(&t, &[2, 0]).unwrap();
        let (loss_s, grad_s) = cross_entropy_with_grad(&shifted, &[2, 0]).unwrap();
        assert!((loss - loss_s).abs() < 1e-5, "{loss} vs {loss_s}");
        assert_close(&grad, &grad_s, 1e-6);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![20.0, 0.0, 0.0, 0.0, 20.0, 0.0], &[2, 3]).unwrap();
        let (loss, _) = cross_entropy_with_grad(&logits, &[0, 1]).unwrap();
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = rand_tensor(&[2, 4], 41);
        let labels = [3usize, 0];
        let (_, grad) = cross_entropy_with_grad(&logits, &labels).unwrap();
        let eps = 1e-3;
        for idx in 0..logits.len() {
            let mut plus = logits.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = logits.clone();
            minus.as_mut_slice()[idx] -= eps;
            let (lp, _) = cross_entropy_with_grad(&plus, &labels).unwrap();
            let (lm, _) = cross_entropy_with_grad(&minus, &labels).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[idx]).abs() < 1e-3,
                "idx {idx}: fd {fd} vs grad {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy_with_grad(&logits, &[0]).is_err());
        assert!(cross_entropy_with_grad(&logits, &[0, 3]).is_err());
    }
}
