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
//! The exceptions are cores whose only callers are layers, so they have no
//! wrapper. [`matmul_transa_slices`] and the padded-plane convolution
//! kernels run on the same accumulating GEMM core as [`matmul_slices`],
//! which works on any block of output rows, reads its left operand through
//! a (row stride, column stride) pair and its right operand's rows through
//! an accessor; [`conv_weight_grad_slices`] runs on the same dot-product
//! core as [`matmul_transb_slices`].
//!
//! The lowering cores take a count of consecutive images: [`im2col_slices`]
//! writes their dense `(C·K·K) × (images·span)` column panel, image `j` in
//! columns `j·span..(j + 1)·span`, and [`col2im_slices`] scatters such a
//! panel back to the images. [`conv_weight_grad_slices`] takes a
//! convolution's weight gradient from its input, in one call per layer that
//! lowers the batch block by block into one slot, takes every image's
//! `dot4` over its own column block and folds the images in fixed chunks.
//! Its output rows partition over the pool, four at a time, each task
//! lowering the four patch rows it folds just before it folds them, on one
//! of two lane-packed microkernels chosen by the shape, each giving the
//! bits of `dot4` calls. Pair lanes hold four rows' four partial sums against one
//! `b` row at a time, sixteen `dot4`s per block. Column lanes, for short
//! spans (`k ≤ 16`) and at least eight output columns, hold eight output
//! columns (a convolution's output channels): each image's `b` block is
//! transposed once, every `a` element is one broadcast, and lane `c` of
//! partial sum `t` adds `a[r][4q + t] · bᵀ[4q + t][c]`, the very terms
//! `dot4`'s `acc[t]` adds, in its order.
//!
//! A stride-1 convolution needs no column panel: [`pad_planes_slices`]
//! copies the images once into zero-padded planes whose windows are the
//! panel's rows, [`matmul_planes_slices`] multiplies the weights by those
//! windows in place, and [`conv_input_grad_slices`] adds each row of
//! `Wᵀ·dY` into a padded plane as soon as it is computed, with no `dcols`
//! panel. Each gives the bits of its panel counterpart
//! ([`ConvGeometry::padded_planes`] has the layout).

use crate::{pool, Tensor, TensorError};
use ahw_telemetry as telemetry;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

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
/// The accumulators are locals and the eight rows are walked as zipped
/// arrays of quads, so the step loop keeps them in registers and checks no
/// bounds; they are stored once, on return. Out of line on purpose:
/// inlined into the image loops that call it, the compiler keeps the
/// accumulators in memory and the loop runs at a third of the speed.
#[inline(never)]
fn dot4x4_steps(a: &[&[f32]; 4], b: &[&[f32]; 4], q: usize) -> [[f32; 16]; 4] {
    let (a0, _) = a[0][..q].as_chunks::<4>();
    let (a1, _) = a[1][..q].as_chunks::<4>();
    let (a2, _) = a[2][..q].as_chunks::<4>();
    let (a3, _) = a[3][..q].as_chunks::<4>();
    let (b0, _) = b[0][..q].as_chunks::<4>();
    let (b1, _) = b[1][..q].as_chunks::<4>();
    let (b2, _) = b[2][..q].as_chunks::<4>();
    let (b3, _) = b[3][..q].as_chunks::<4>();
    let rows = a0.iter().zip(a1).zip(a2).zip(a3);
    let cols = b0.iter().zip(b1).zip(b2).zip(b3);
    let [mut acc0, mut acc1, mut acc2, mut acc3] = [[0.0f32; 16]; 4];
    for ((((x0, x1), x2), x3), (((y0, y1), y2), y3)) in rows.zip(cols) {
        let mut x = [0.0f32; 16];
        x[..4].copy_from_slice(x0);
        x[4..8].copy_from_slice(x1);
        x[8..12].copy_from_slice(x2);
        x[12..].copy_from_slice(x3);
        mul_add_quads(&mut acc0, &x, y0);
        mul_add_quads(&mut acc1, &x, y1);
        mul_add_quads(&mut acc2, &x, y2);
        mul_add_quads(&mut acc3, &x, y3);
    }
    [acc0, acc1, acc2, acc3]
}

/// `acc[l] += x[l] · y[l % 4]` in every lane.
#[inline(always)]
fn mul_add_quads(acc: &mut [f32; 16], x: &[f32; 16], y: &[f32; 4]) {
    for l in 0..16 {
        acc[l] += x[l] * y[l % 4];
    }
}

/// Output columns one lane vector of [`dot4_lanes`] holds.
const LANES: usize = 8;

/// Whether [`conv_weight_grad_slices`] folds on the column-lane core
/// ([`dot4_lanes`]) rather than the pair-lane one ([`dot4x4`]): at least
/// `LANES` output columns and a span of 1 to 16.
///
/// Measured on the fold shapes VGG19 trains (`m×k×n`, 32 images, best of
/// 5 rounds interleaved with the pair lanes, 1 and 2 threads, 2-vCPU
/// AVX-512 host), the column lanes are 2.8–4.9× faster at `k ≤ 16`
/// (144×16×32, 288×16×32, 288×4×32). Forced onto every shape, they were
/// still 18–45 % faster at `k = 64` (72×64×16, 144×64×16), but lost at `k =
/// 256` on two threads (36×256×8 +27 %), where the serial transpose of `b`
/// no longer hides behind the products, and at `n = 4` (27×1024×4,
/// 36×1024×4: 1.6–2.6× slower), where half their lanes idle. The bound
/// stops at 16 so that VGG8's convolutions (spans 64–1024) keep the pair
/// lanes.
fn column_lanes(k: usize, n: usize) -> bool {
    n >= LANES && (1..=16).contains(&k)
}

/// Transposes one image's `(n×k)` block of `b` into the `n.div_ceil(LANES)`
/// panels of `(k × LANES)` that fill `panels`: row `kk` of panel `cb`
/// holds element `kk` of columns `cb·LANES..(cb + 1)·LANES`, +0.0 past `n`.
fn lane_panels(b: &[f32], k: usize, panels: &mut [f32]) {
    // the image's columns cb·LANES.., `w` of them (fewer in the last panel)
    for (cols, panel) in b.chunks(LANES * k).zip(panels.chunks_exact_mut(LANES * k)) {
        let w = cols.len() / k;
        for (kk, row) in panel.chunks_exact_mut(LANES).enumerate() {
            for (l, v) in row.iter_mut().enumerate() {
                *v = if l < w { cols[l * k + kk] } else { 0.0 };
            }
        }
    }
}

/// Row `i` of a panel of `LANES`-wide rows.
#[inline(always)]
fn lane_row(panel: &[f32], i: usize) -> &[f32; LANES] {
    panel[i * LANES..(i + 1) * LANES]
        .try_into()
        .expect("a row of LANES elements")
}

/// `acc[l] += x · b[l]` in every lane.
#[inline(always)]
fn mul_add_lanes(acc: &mut [f32; LANES], x: f32, b: &[f32; LANES]) {
    for (o, &y) in acc.iter_mut().zip(b) {
        *o += x * y;
    }
}

/// The [`dot4`]s of four `a` rows (all of one length `k`) with `LANES`
/// columns, bit for bit: `bt` holds the columns transposed, its row `kk`
/// being element `kk` of every column, and element `r·LANES + l` of the
/// result is `dot4(a[r], column l)`.
///
/// Lane `l` of `acc_t[r]` adds `a[r][4q + t] · bt[4q + t][l]` from +0.0 in
/// ascending `q`, which is `dot4`'s `acc[t]` for that pair, and the lanes
/// combine as `dot4` combines, `((acc0 + acc1) + (acc2 + acc3)) + tail`
/// with the tail a serial sum from +0.0. No lane reads another, so nothing
/// moves across lanes: the sixteen accumulators are sixteen vector
/// registers, and each `a` element is one broadcast. Inlined on purpose:
/// inside the fold's image loop the accumulators and the chunk sums stay
/// in registers, where a call per image returns its lanes through memory.
#[inline(always)]
fn dot4_lanes(a: [&[f32]; 4], bt: &[f32]) -> [f32; 4 * LANES] {
    let k = a[0].len();
    let q = k - k % 4;
    let a = a.map(|row| &row[..k]);
    let bt = &bt[..k * LANES];
    let mut acc0 = [[0.0f32; LANES]; 4];
    let mut acc1 = [[0.0f32; LANES]; 4];
    let mut acc2 = [[0.0f32; LANES]; 4];
    let mut acc3 = [[0.0f32; LANES]; 4];
    for (j, quad) in bt[..q * LANES].chunks_exact(4 * LANES).enumerate() {
        let (b0, b1) = (lane_row(quad, 0), lane_row(quad, 1));
        let (b2, b3) = (lane_row(quad, 2), lane_row(quad, 3));
        for r in 0..4 {
            let x: &[f32; 4] = a[r][4 * j..4 * j + 4].try_into().expect("4 elements");
            mul_add_lanes(&mut acc0[r], x[0], b0);
            mul_add_lanes(&mut acc1[r], x[1], b1);
            mul_add_lanes(&mut acc2[r], x[2], b2);
            mul_add_lanes(&mut acc3[r], x[3], b3);
        }
    }
    let mut out = [0.0f32; 4 * LANES];
    for (r, out) in out.chunks_exact_mut(LANES).enumerate() {
        let mut tail = [0.0f32; LANES];
        for (kk, &x) in a[r].iter().enumerate().skip(q) {
            mul_add_lanes(&mut tail, x, lane_row(bt, kk));
        }
        for (l, o) in out.iter_mut().enumerate() {
            *o = (acc0[r][l] + acc1[r][l]) + (acc2[r][l] + acc3[r][l]) + tail[l];
        }
    }
    out
}

/// Upper bound on the chunks [`fold_images`] folds images into.
const FOLD_CHUNKS: usize = 16;

/// Images per [`fold_images`] chunk of a batch of `images`.
fn fold_len(images: usize) -> usize {
    images.div_ceil(FOLD_CHUNKS).max(1)
}

/// Folds `value(i)` over `images` images in fixed chunks: chunk `j` holds
/// images `j·len..(j + 1)·len` with `len = images.div_ceil(16)` (the last
/// chunk may be shorter), each chunk's sum starts at +0.0 and adds its
/// images' values in ascending image order, chunk 0's sum is the running
/// total, and later chunks' sums are added to it left to right (+0.0 for
/// no images). The order depends only on `images`, never on the thread
/// count. [`conv_weight_grad_slices`] folds its output blocks this way; a
/// conv bias gradient folds its per-image sums by the same rule.
#[inline]
pub fn fold_images<const L: usize>(
    images: usize,
    value: impl FnMut(usize) -> [f32; L],
) -> [f32; L] {
    fold_chunks(fold_len(images), 0..images, [0.0; L], value)
}

/// Continues a [`fold_images`] fold of chunks of `len` images: adds the
/// chunks that start in `images` (which starts on a chunk boundary) onto
/// `total`, the fold of the chunks before them. Chunk 0's sum replaces
/// `total`, and every later chunk's sum is added to it. So folding a
/// batch's chunks in blocks, each block continuing the total the one before
/// it left, gives the bits of folding them all at once.
#[inline]
fn fold_chunks<const L: usize>(
    len: usize,
    images: Range<usize>,
    mut total: [f32; L],
    mut value: impl FnMut(usize) -> [f32; L],
) -> [f32; L] {
    for start in images.clone().step_by(len) {
        let mut sum = [0.0f32; L];
        for i in start..(start + len).min(images.end) {
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

/// Opens the span of a GEMM entry point and counts its work, one
/// `(m×k)·(k×n)` product, so every entry point counts alike.
fn gemm_span(name: &'static str, m: usize, k: usize, n: usize) -> telemetry::SpanGuard {
    count_gemm(1, m, n, k);
    telemetry::span_labeled(name, || format!("{m}x{k}x{n}"))
}

/// The accumulating GEMM core, on one block of output rows: adds rows
/// `first..first + orows.len() / n` of `A · B` into `orows`, reading
/// `A(i, kk)` at `av[i·rs + kk·cs]` — `(rs, cs) = (k, 1)` for a row-major
/// `a`, `(1, m)` for one stored transposed as `(k×m)` — and row `kk` of
/// `B` as `brow(kk)`, `n` elements: a row of a dense matrix, or a window
/// of a convolution's zero-padded plane ([`matmul_planes_slices`]).
/// Dimensions are trusted (checked by the entry points).
///
/// Row-partitioned i-k-j order with k-blocking and 4-row register
/// blocking: the block's rows stream the same block of `B` rows (L2
/// resident) while every element's accumulation order stays fixed — `kb`
/// blocks ascending, `kk` ascending 4 at a time, products folded left to
/// right — and depends on `k` alone: not on `n`, the block, the strides,
/// where `B`'s rows live, or whether a row went through the 4-row block or
/// the single-row tail. So any block of rows has the bits of the same rows
/// of the whole product.
fn gemm_kernel<'b>(
    (av, rs, cs): (&[f32], usize, usize),
    brow: &impl Fn(usize) -> &'b [f32],
    first: usize,
    k: usize,
    n: usize,
    orows: &mut [f32],
) {
    if n == 0 {
        return;
    }
    let a = |i: usize, kk: usize| av[i * rs + kk * cs];
    let quad = |i: usize, kk: usize| [a(i, kk), a(i, kk + 1), a(i, kk + 2), a(i, kk + 3)];
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
}

/// [`gemm_kernel`] over every row of `out` (`m × n`, zeroed by the
/// caller), the rows partitioned over the pool.
fn gemm_parallel<'b>(
    a: (&[f32], usize, usize),
    brow: impl Fn(usize) -> &'b [f32] + Sync,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    pool::par_row_chunks_mut(out, n, pool::min_rows(k * n), |first, orows| {
        gemm_kernel(a, &brow, first, k, n, orows);
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
    let _span = gemm_span("tensor.ops.matmul", m, k, n);
    gemm_parallel((a, k, 1), |kk| &b[kk * n..][..n], k, n, out);
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
/// product of `k` terms. It runs [`conv_weight_grad_slices`]' pair-lane
/// core on a single image, whose fold of one value is that value.
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
    require_len(a.len(), m * k)?;
    require_len(b.len(), n * k)?;
    require_len(out.len(), m * n)?;
    let _span = gemm_span("tensor.ops.matmul_transb", m, k, n);
    let a_row = |_: usize, r: usize| &a[r * k..][..k];
    let b_row = |_: usize, c: usize| &b[c * k..][..k];
    pool::par_row_chunks_mut(out, 4 * n, pool::min_rows(4 * k * n), |first, blocks| {
        for (bi, block) in blocks.chunks_mut(4 * n).enumerate() {
            pair_lanes_block(block, 4 * (first + bi), &a_row, &b_row, (0..1, 1), n);
        }
    });
    Ok(())
}

/// Slot elements [`ConvGeometry::weight_grad_slot`] asks for at least
/// (1 MiB): every convolution whose fold chunk fits asks for this one
/// length, so a network's layers share one workspace buffer. Each fold
/// task reads back only the rows it has just lowered, so the length does
/// not decide cache reuse; it sets how many blocks a batch folds in, each
/// one pool dispatch and one `dY` transpose pass. No other length was
/// measured.
const FOLD_SLOT: usize = 1 << 18;

/// The weight gradient of a convolution over `images` images, `(dL/dW)ᵀ =
/// Σᵢ colsᵢ · dYᵢᵀ` with `colsᵢ` image `i`'s [`im2col`] lowering, with no
/// batch-sized lowering: `x` holds the images' `(C, H, W)` inputs and `dy`
/// their `(oc, OH, OW)` output gradients, one after another, and `out` is
/// fully overwritten with the `(C·K·K × oc)` fold. `slot` is scratch of at
/// least one fold chunk's lowering ([`ConvGeometry::weight_grad_slot`]);
/// its prior contents do not matter.
///
/// The images run in blocks of whole [`fold_images`] chunks, as many as the
/// slot holds, and each block's chunks fold onto the total the blocks
/// before it left in `out`. Element `(r, c)` is image `i`'s `dot4(cols row
/// r, dY row c)` folded over the images: each chunk of `images.div_ceil(16)`
/// images sums from +0.0 in ascending order, and the chunk sums add left to
/// right onto chunk 0's. So the bits depend neither on the slot's length
/// nor on the thread count. The output rows partition over the pool, four
/// at a time, and each task lowers its own four patch rows of the block
/// into their rows of the slot's column panel just before it folds them,
/// so the rows it reads are still in its cache. The shape picks the lanes:
///
/// - **Column lanes** (`oc ≥ 8` and a span of 1 to 16: a convolution's 4×4
///   and 2×2 maps). Each image's `dY` block is transposed into panels of
///   eight channels in the slot, on the calling thread before the block's
///   fold, and a block of four rows runs against each panel with
///   one output channel per vector lane: lane `c` of partial sum `t` adds
///   `a[r][4q + t] · bᵀ[4q + t][c]` from +0.0 in ascending `q`, the lanes
///   combine as `((acc0 + acc1) + (acc2 + acc3)) + tail`, and the result
///   adds to its fold chunk's sum. Those are exactly `dot4`'s and
///   `fold_images`' IEEE operations, in their order.
/// - **Pair lanes** (every other shape). A block of four rows by four
///   channels runs through a 4×4 microkernel whose lanes hold each row's
///   four partial sums, with one `dot4` per element on the ragged edges.
///
/// Each block records under `tensor.ops.matmul_transb`, its lowering
/// included, with the GEMM work of its images. The lowering counts no
/// `tensor.ops.im2col_elems`, whose rate is taken over `tensor.ops.im2col`
/// spans alone.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a degenerate geometry, and
/// [`TensorError::LengthMismatch`] if a slice disagrees with `(images, g,
/// oc)` or `slot` is shorter than one fold chunk's lowering.
#[allow(clippy::too_many_arguments)]
pub fn conv_weight_grad_slices(
    x: &[f32],
    dy: &[f32],
    images: usize,
    g: &ConvGeometry,
    oc: usize,
    slot: &mut [f32],
    out: &mut [f32],
) -> Result<(), TensorError> {
    g.validate()?;
    let (patch, span) = (g.patch_len(), g.out_height() * g.out_width());
    let item_in = g.channels * g.height * g.width;
    require_len(x.len(), images * item_in)?;
    require_len(dy.len(), images * oc * span)?;
    require_len(out.len(), patch * oc)?;
    let (len, item) = (fold_len(images), g.weight_grad_item(oc));
    if slot.len() < len * item {
        return Err(TensorError::LengthMismatch {
            expected: len * item,
            actual: slot.len(),
        });
    }
    // what an empty batch folds to; a batch's chunk 0 replaces it
    out.fill(0.0);
    let (block_len, lane_len) = (slot.len() / (len * item) * len, item - patch * span);
    for start in (0..images).step_by(block_len) {
        let block = start..(start + block_len).min(images);
        let width = block.len() * span;
        let xb = &x[start * item_in..block.end * item_in];
        let (cols, panels) = slot.split_at_mut(patch * width);
        let panels = &mut panels[..block.len() * lane_len];
        // serial: a block's panels, about `oc/(C·K·K + oc)` of the slot,
        // are less work than the pool hands one task
        if lane_len > 0 {
            for (i, p) in (start..).zip(panels.chunks_exact_mut(lane_len)) {
                lane_panels(&dy[i * oc * span..][..oc * span], span, p);
            }
        }
        let panels: &[f32] = panels;
        let _span = telemetry::span_labeled("tensor.ops.matmul_transb", || {
            format!("{patch}x{span}x{oc}, {} images", block.len())
        });
        count_gemm(block.len(), patch, oc, span);
        let min_rows = pool::min_rows(4 * width * oc);
        pool::par_row_pairs_mut(
            out,
            4 * oc,
            cols,
            4 * width,
            min_rows,
            |first, outs, rows| {
                let blocks = outs.chunks_mut(4 * oc).zip(rows.chunks_mut(4 * width));
                for (bi, (oblock, rows)) in blocks.enumerate() {
                    let r0 = 4 * (first + bi);
                    for (r, row) in rows.chunks_exact_mut(width).enumerate() {
                        lower_row(xb, g, r0 + r, row);
                    }
                    let rows: &[f32] = rows;
                    let a_row =
                        |i: usize, r: usize| &rows[(r - r0) * width + (i - start) * span..][..span];
                    let images = (block.clone(), len);
                    if lane_len == 0 {
                        let b_row = |i: usize, c: usize| &dy[(i * oc + c) * span..][..span];
                        pair_lanes_block(oblock, r0, &a_row, &b_row, images, oc);
                    } else {
                        let a_rows = |i: usize, rows: [usize; 4]| rows.map(|r| a_row(i, r));
                        let panel = |i: usize, cb: usize| {
                            &panels[(i - start) * lane_len + cb * span * LANES..]
                        };
                        column_lanes_block(oblock, r0, &a_rows, &panel, images, oc);
                    }
                }
            },
        );
    }
    Ok(())
}

/// Adds the fold chunks of `images` (chunks of `len` images, the range
/// starting on a chunk boundary) of `Σᵢ aᵢ · bᵢᵀ` onto the rows `r0..` of
/// an `(m×n)` fold that `block` holds (up to four rows of `n`, the total
/// the chunks before them left), on the pair-lane core: `a_row(i, r)` and
/// `b_row(i, c)` are row `r` of image `i`'s `(m×k)` block of `a` and row
/// `c` of its `(n×k)` block of `b`. Four rows take their columns four at a
/// time through [`dot4x4`], and the ragged edges one [`dot4`] per element.
fn pair_lanes_block<'a>(
    block: &mut [f32],
    r0: usize,
    a_row: &impl Fn(usize, usize) -> &'a [f32],
    b_row: &impl Fn(usize, usize) -> &'a [f32],
    (images, len): (Range<usize>, usize),
    n: usize,
) {
    let mut c0 = 0;
    while block.len() == 4 * n && c0 + 4 <= n {
        let mut t = [0.0f32; 16];
        for (r, orow) in block.chunks_exact(n).enumerate() {
            for (c, &o) in orow[c0..c0 + 4].iter().enumerate() {
                t[4 * c + r] = o;
            }
        }
        let t = fold_chunks(len, images.clone(), t, |i| {
            dot4x4(
                [r0, r0 + 1, r0 + 2, r0 + 3].map(|r| a_row(i, r)),
                [c0, c0 + 1, c0 + 2, c0 + 3].map(|c| b_row(i, c)),
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
            [*o] = fold_chunks(len, images.clone(), [*o], |i| {
                [dot4(a_row(i, r0 + r), b_row(i, c))]
            });
        }
    }
}

/// [`pair_lanes_block`] on the column-lane core: `a_rows(i, rows)` gives
/// four rows of image `i`'s block of `a`, and `panel(i, cb)` its `b`
/// block's [`lane_panels`] from column `cb·LANES` on. The block's rows
/// take their columns `LANES` at a time, folding the images'
/// [`dot4_lanes`]. A short block of rows repeats its last row and drops
/// the copies' results, and the columns past `n` of the last lane block
/// read +0.0 and are dropped too.
fn column_lanes_block<'a>(
    block: &mut [f32],
    r0: usize,
    a_rows: &impl Fn(usize, [usize; 4]) -> [&'a [f32]; 4],
    panel: &impl Fn(usize, usize) -> &'a [f32],
    (images, len): (Range<usize>, usize),
    n: usize,
) {
    let last = r0 + block.len() / n - 1;
    let rows = [r0, r0 + 1, r0 + 2, r0 + 3].map(|r| r.min(last));
    for (cb, c0) in (0..n).step_by(LANES).enumerate() {
        let width = LANES.min(n - c0);
        let mut t = [0.0f32; 4 * LANES];
        for (orow, t) in block.chunks_exact(n).zip(t.chunks_exact_mut(LANES)) {
            t[..width].copy_from_slice(&orow[c0..c0 + width]);
        }
        let t = fold_chunks(len, images.clone(), t, |i| {
            dot4_lanes(a_rows(i, rows), panel(i, cb))
        });
        for (orow, t) in block.chunks_exact_mut(n).zip(t.chunks_exact(LANES)) {
            orow[c0..c0 + width].copy_from_slice(&t[..width]);
        }
    }
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
    let _span = gemm_span("tensor.ops.matmul_transa", m, k, n);
    gemm_parallel((a, 1, m), |kk| &b[kk * n..][..n], k, n, out);
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

    /// Where a panel of `images` images sits in [`pad_planes_slices`]'
    /// zero-padded planes, for a valid stride-1 geometry: rows of pitch
    /// `W + b` with `b = max(p, 2p + 1 − K)`, `H + b` plane rows per image.
    /// `b ≥ p` makes the band between two rows' pixels (and between two
    /// images' rows) wide enough for both neighbours' padding, and
    /// `b ≥ 2p + 1 − K` makes an output row fit within one pitch.
    pub fn padded_planes(&self, images: usize) -> PaddedPlanes {
        let (k, p) = (self.kernel, self.padding);
        let band = p.max((2 * p + 1).saturating_sub(k));
        let (pitch, rows) = (self.width + band, self.height + band);
        let (grid, len) = match images {
            0 => (0, 0),
            _ => {
                let grid = ((images - 1) * rows + self.out_height() - 1) * pitch + self.out_width();
                (grid, grid + (k - 1) * (pitch + 1))
            }
        };
        PaddedPlanes {
            pitch,
            rows,
            grid,
            len,
        }
    }

    /// Elements of the slot [`conv_weight_grad_slices`] takes for `images`
    /// images of `oc` output channels: 1 MiB of them, or one fold chunk's
    /// lowering where that is more. Every convolution whose chunk fits asks
    /// for the same length, so one workspace buffer serves them all.
    pub fn weight_grad_slot(&self, images: usize, oc: usize) -> usize {
        FOLD_SLOT.max(fold_len(images) * self.weight_grad_item(oc))
    }

    /// Slot elements [`conv_weight_grad_slices`] lowers one image into: its
    /// patch matrix and, on the column lanes, its `dY` block's lane panels.
    fn weight_grad_item(&self, oc: usize) -> usize {
        let span = self.out_height() * self.out_width();
        let lanes = if column_lanes(span, oc) {
            oc.div_ceil(LANES) * LANES * span
        } else {
            0
        };
        self.patch_len() * span + lanes
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

/// The layout of a panel of stride-1 images in zero-padded planes, one
/// plane per channel ([`ConvGeometry::padded_planes`]).
///
/// Output `(j, oy, ox)` of the panel's image `j` is grid column
/// `(j·rows + oy)·pitch + ox`; the grid runs from column 0 to the last
/// image's last output. Tap `(ky, kx)` of every grid column reads the
/// plane element `ky·pitch + kx` further on, so row `(c, ky, kx)` of the
/// convolution's patch matrix is the window of channel `c`'s plane that
/// starts there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddedPlanes {
    /// Elements per plane row: the image width plus the zero band.
    pub pitch: usize,
    /// Plane rows per image: the image height plus the zero band.
    pub rows: usize,
    /// Grid columns, i.e. the width of the panel's product.
    pub grid: usize,
    /// Elements of one channel's plane.
    pub len: usize,
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
    let width = images * g.out_height() * g.out_width();
    require_len(inp.len(), images * g.channels * g.height * g.width)?;
    require_len(out.len(), g.patch_len() * width)?;
    let _span = telemetry::span("tensor.ops.im2col");
    IM2COL_ELEMS.add((g.patch_len() * width) as u64);
    // Each patch row gathers into a disjoint panel row, so the rows
    // partition freely over the pool.
    pool::par_row_chunks_mut(out, width, pool::min_rows(width), |first, orows| {
        for (r, orow) in orows.chunks_mut(width).enumerate() {
            lower_row(inp, g, first + r, orow);
        }
    });
    Ok(())
}

/// Writes patch row `row`, i.e. tap `(c, ky, kx)`, of the consecutive
/// `(C, H, W)` images in `inp` into `orow`, image `j`'s `span` columns at
/// `j·span`: row `row` of their [`im2col_slices`] panel. Every element is
/// overwritten, padding taps with zero. The tap and its valid ranges are
/// worked out once and serve every image's column block.
fn lower_row(inp: &[f32], g: &ConvGeometry, row: usize, orow: &mut [f32]) {
    let (oh, ow) = (g.out_height(), g.out_width());
    let span = oh * ow;
    let plane_len = g.height * g.width;
    let c = row / (g.kernel * g.kernel);
    let ky = (row / g.kernel) % g.kernel;
    let kx = row % g.kernel;
    let ys = tap_range(ky, g.height, oh, g);
    let xs = tap_range(kx, g.width, ow, g);
    // padding taps read zero: clear the row, then copy the taps that read
    // real pixels
    orow.fill(0.0);
    if xs.is_empty() {
        return;
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

fn require_stride1(g: &ConvGeometry) -> Result<(), TensorError> {
    g.validate()?;
    if g.stride != 1 {
        return Err(TensorError::InvalidArgument(format!(
            "padded planes serve stride-1 convolutions, not stride {}",
            g.stride
        )));
    }
    Ok(())
}

/// Copies `images` consecutive `(C, H, W)` images of a stride-1 geometry
/// into zero-padded planes, channel after channel, each
/// [`PaddedPlanes::len`] elements long; every element of `planes` is
/// overwritten. A plane holds the images stacked in rows of
/// [`PaddedPlanes::pitch`]: pixel `(y, x)` of image `j` at
/// `(p + j·rows + y)·pitch + p + x`, and +0.0 everywhere else. One band of
/// zeros serves as the right pad of a row and the left pad of the next,
/// and as the bottom pad of an image and the top pad of the next.
///
/// The window of channel `c`'s plane from `ky·pitch + kx` then holds at
/// grid column `(j·rows + oy)·pitch + ox` what [`im2col_slices`] writes at
/// patch row `(c, ky, kx)`, column `j·span + oy·OW + ox`: the pixel the tap
/// reads, or +0.0 where it reads padding. The copy is at most
/// `(H + b)(W + b)/(H·W)` times the images, against im2col's `K²`.
///
/// Records under `tensor.ops.im2col` and counts the plane elements written
/// in `tensor.ops.im2col_elems`; the planes partition over the pool.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a degenerate or strided
/// geometry, and [`TensorError::LengthMismatch`] if `inp` does not hold
/// `images` images or `planes` is not `C` planes long.
pub fn pad_planes_slices(
    inp: &[f32],
    images: usize,
    g: &ConvGeometry,
    planes: &mut [f32],
) -> Result<(), TensorError> {
    require_stride1(g)?;
    let pp = g.padded_planes(images);
    let (w, p) = (g.width, g.padding);
    let plane_len = g.height * w;
    require_len(inp.len(), images * g.channels * plane_len)?;
    require_len(planes.len(), g.channels * pp.len)?;
    let _span = telemetry::span("tensor.ops.im2col");
    IM2COL_ELEMS.add(planes.len() as u64);
    pool::par_row_chunks_mut(planes, pp.len, pool::min_rows(pp.len), |first, chunk| {
        for (plane, c) in chunk.chunks_mut(pp.len).zip(first..) {
            // one pass: the zeros before each pixel row, then the row
            let mut at = 0;
            for j in 0..images {
                let img = &inp[(j * g.channels + c) * plane_len..][..plane_len];
                for y in 0..g.height {
                    let start = (p + j * pp.rows + y) * pp.pitch + p;
                    plane[at..start].fill(0.0);
                    plane[start..start + w].copy_from_slice(&img[y * w..(y + 1) * w]);
                    at = start + w;
                }
            }
            plane[at..].fill(0.0);
        }
    });
    Ok(())
}

/// The stride-1 convolution product over [`pad_planes_slices`]' planes of
/// `images` images: writes `w (oc × C·K·K) · B` into `out`
/// (`oc × grid`, [`PaddedPlanes::grid`]), where row `(c, ky, kx)` of `B`
/// is the window of channel `c`'s plane from `ky·pitch + kx`. Prior
/// contents of `out` are discarded.
///
/// It runs [`matmul_slices`]' core with `B`'s rows read in place, so grid
/// column `(j·rows + oy)·pitch + ox` holds the bits [`matmul_slices`]
/// writes at column `j·span + oy·OW + ox` of the weights times
/// [`im2col_slices`]' panel. The other grid columns, past a row's `OW`
/// outputs or between images, hold values no output reads. The output
/// rows partition over the pool. Records under `tensor.ops.matmul` and
/// counts the convolution's useful work, `2·oc·C·K²·OH·OW` FLOPs per image,
/// as the panel GEMM does.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a degenerate or strided
/// geometry, and [`TensorError::LengthMismatch`] if a slice disagrees with
/// `(images, g, oc)`.
pub fn matmul_planes_slices(
    w: &[f32],
    planes: &[f32],
    images: usize,
    g: &ConvGeometry,
    oc: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    require_stride1(g)?;
    let pp = g.padded_planes(images);
    let (patch, taps) = (g.patch_len(), g.kernel * g.kernel);
    require_len(w.len(), oc * patch)?;
    require_len(planes.len(), g.channels * pp.len)?;
    require_len(out.len(), oc * pp.grid)?;
    out.fill(0.0);
    let span = g.out_height() * g.out_width();
    let _span = gemm_span("tensor.ops.matmul", oc, patch, images * span);
    let window = |kk: usize| {
        let (c, t) = (kk / taps, kk % taps);
        let at = c * pp.len + t / g.kernel * pp.pitch + t % g.kernel;
        &planes[at..at + pp.grid]
    };
    gemm_parallel((w, patch, 1), window, patch, pp.grid, out);
    Ok(())
}

thread_local! {
    /// Four rows of [`conv_input_grad_slices`]' patch gradient: grown to
    /// the widest panel the thread has run, then reused, so a steady-state
    /// loop allocates nothing.
    static GRAD_ROWS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Times a call that interleaves GEMM blocks with scatters of them. Each
/// task adds the time it spent in either part to a total; when the GEMMs
/// and scatters end, their wall time records as a
/// `tensor.ops.matmul_transa` span followed by a `tensor.ops.col2im` span,
/// split in proportion to the two totals. Without telemetry it reads no
/// clock.
struct SplitTimer {
    start: Option<u64>,
    parts: [AtomicU64; 2],
}

impl SplitTimer {
    fn start() -> SplitTimer {
        SplitTimer {
            start: telemetry::enabled().then(telemetry::now_ns),
            parts: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// The clock now, if the call is timed.
    fn now(&self) -> Option<u64> {
        self.start.map(|_| telemetry::now_ns())
    }

    /// Adds a task's time in each part.
    fn add(&self, spent: [u64; 2]) {
        for (part, ns) in self.parts.iter().zip(spent) {
            part.fetch_add(ns, Ordering::Relaxed);
        }
    }

    fn finish(self, label: impl FnOnce() -> String) {
        let Some(start) = self.start else { return };
        let wall = telemetry::now_ns().saturating_sub(start);
        let [gemm, scatter] = self.parts.map(AtomicU64::into_inner);
        let gemm_ns = match gemm + scatter {
            0 => wall,
            total => (u128::from(wall) * u128::from(gemm) / u128::from(total)) as u64,
        };
        telemetry::record_span("tensor.ops.matmul_transa", Some(label()), start, gemm_ns);
        telemetry::record_span("tensor.ops.col2im", None, start + gemm_ns, wall - gemm_ns);
    }
}

/// The input gradient of a stride-1 convolution over a panel of `images`
/// images, with no patch-gradient panel: `dy` holds the images'
/// `(oc, OH, OW)` output gradients one after another and `w` the
/// `(oc × C·K·K)` weights. Writes every image's `(C, H, W)` gradient into
/// `dx`, prior contents discarded. `scratch` holds `oc` grid rows and `C`
/// padded planes ([`PaddedPlanes::grid`], [`PaddedPlanes::len`]); its
/// prior contents do not matter.
///
/// `dy` is copied onto the grid of [`matmul_planes_slices`], +0.0 in every
/// column no output owns, and `Wᵀ · dy` runs there four patch rows at a
/// time on [`matmul_slices`]' core. Each row `(c, ky, kx)` is added, while
/// still in L1, into a zero-padded plane of channel `c` laid out as
/// [`pad_planes_slices`]' planes, at offset `ky·pitch + kx` — the window
/// the forward reads — and the planes' pixels are copied out to `dx`.
///
/// The bits are those of [`matmul_transa_slices`] followed by
/// [`col2im_slices`]. A product element depends only on its column of
/// `dy`, so every output's column has [`matmul_transa_slices`]' bits; rows
/// are added in ascending order, so each pixel adds its taps in
/// col2im's ascending `(ky, kx)` order from +0.0; and a column whose tap
/// reads padding lands in the planes' zero band, which is never copied
/// out. The columns no output owns hold `Σ w·(+0.0) = ±0.0` when every
/// weight is finite, and a sum that starts at +0.0 never becomes −0.0, so
/// adding them changes no pixel and each row is added as one contiguous
/// run. A non-finite weight would make them NaN: then only the output
/// columns are added, one output row at a time.
///
/// The grid copy records under `tensor.ops.im2col` (its elements in
/// `tensor.ops.im2col_elems`), the GEMM blocks under
/// `tensor.ops.matmul_transa` and the row adds and the copy out under
/// `tensor.ops.col2im`; GEMM and scatter work are counted as the panel
/// route counts them. Input channels partition over the pool: a
/// channel's `K²` rows add into its own plane only, so each pixel keeps
/// its tap order at any thread count (inside a pool task the call runs
/// inline).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a degenerate or strided
/// geometry, and [`TensorError::LengthMismatch`] if a slice disagrees with
/// `(images, g, oc)`.
#[allow(clippy::too_many_arguments)]
pub fn conv_input_grad_slices(
    w: &[f32],
    dy: &[f32],
    images: usize,
    g: &ConvGeometry,
    oc: usize,
    scratch: &mut [f32],
    dx: &mut [f32],
) -> Result<(), TensorError> {
    require_stride1(g)?;
    let pp = g.padded_planes(images);
    let (oh, ow) = (g.out_height(), g.out_width());
    let (patch, taps, span) = (g.patch_len(), g.kernel * g.kernel, oh * ow);
    let plane_len = g.height * g.width;
    require_len(w.len(), oc * patch)?;
    require_len(dy.len(), images * oc * span)?;
    require_len(scratch.len(), oc * pp.grid + g.channels * pp.len)?;
    require_len(dx.len(), images * g.channels * plane_len)?;
    let (grid, planes) = scratch.split_at_mut(oc * pp.grid);
    {
        let _span = telemetry::span("tensor.ops.im2col");
        IM2COL_ELEMS.add(grid.len() as u64);
        pool::par_row_chunks_mut(grid, pp.grid, pool::min_rows(pp.grid), |first, rows| {
            for (grow, o) in rows.chunks_mut(pp.grid).zip(first..) {
                let mut at = 0;
                for j in 0..images {
                    let src = &dy[(j * oc + o) * span..][..span];
                    for (oy, srow) in src.chunks_exact(ow).enumerate() {
                        let start = (j * pp.rows + oy) * pp.pitch;
                        grow[at..start].fill(0.0);
                        grow[start..start + ow].copy_from_slice(srow);
                        at = start + ow;
                    }
                }
            }
        });
    }
    count_gemm(1, patch, images * span, oc);
    COL2IM_ELEMS.add((patch * images * span) as u64);
    let finite = w.iter().all(|v| v.is_finite());
    let grid: &[f32] = grid;
    let dyrow = |kk: usize| &grid[kk * pp.grid..][..pp.grid];
    let timer = SplitTimer::start();
    let work = pool::min_rows(taps * oc * pp.grid);
    pool::par_row_chunks_mut(planes, pp.len, work, |first, chunk| {
        GRAD_ROWS.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            if scratch.len() < 4 * pp.grid {
                scratch.resize(4 * pp.grid, 0.0);
            }
            chunk.fill(0.0);
            let mut spent = [0u64; 2];
            let rows = first * taps..(first + chunk.len() / pp.len) * taps;
            for r0 in rows.clone().step_by(4) {
                let block = &mut scratch[..(rows.end - r0).min(4) * pp.grid];
                block.fill(0.0);
                let t0 = timer.now();
                gemm_kernel((w, 1, patch), &dyrow, r0, oc, pp.grid, block);
                let t1 = timer.now();
                for (r, row) in (r0..).zip(block.chunks_exact(pp.grid)) {
                    let (c, t) = (r / taps - first, r % taps);
                    let at = c * pp.len + t / g.kernel * pp.pitch + t % g.kernel;
                    let window = &mut chunk[at..at + pp.grid];
                    if finite {
                        for (d, &v) in window.iter_mut().zip(row) {
                            *d += v;
                        }
                        continue;
                    }
                    for j in 0..images {
                        for oy in 0..oh {
                            let col = (j * pp.rows + oy) * pp.pitch;
                            for (d, &v) in window[col..col + ow].iter_mut().zip(&row[col..]) {
                                *d += v;
                            }
                        }
                    }
                }
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    spent[0] += t1 - t0;
                    spent[1] += telemetry::now_ns() - t1;
                }
            }
            timer.add(spent);
        });
    });
    timer.finish(|| format!("{patch}x{oc}x{}", images * span));
    let _span = telemetry::span("tensor.ops.col2im");
    let p = g.padding;
    pool::par_row_chunks_mut(dx, plane_len, pool::min_rows(plane_len), |first, out| {
        for (dplane, jc) in out.chunks_mut(plane_len).zip(first..) {
            let (j, c) = (jc / g.channels, jc % g.channels);
            let plane = &planes[c * pp.len..][..pp.len];
            for (y, drow) in dplane.chunks_exact_mut(g.width).enumerate() {
                drow.copy_from_slice(&plane[(p + j * pp.rows + y) * pp.pitch + p..][..g.width]);
            }
        }
    });
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
        // planes big enough that the padded copy splits its channels
        let big = ConvGeometry {
            channels: 4,
            height: 128,
            width: 128,
            ..g
        };
        let xb = rand_tensor(&[4, 128, 128], 54);
        let planes = || {
            let mut p = vec![f32::NAN; 4 * big.padded_planes(1).len];
            pad_planes_slices(xb.as_slice(), 1, &big, &mut p).unwrap();
            p.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let reference = {
            crate::pool::set_thread_override(Some(1));
            let r = (matmul(&a, &b).unwrap(), im2col(&x, &g).unwrap(), planes());
            crate::pool::set_thread_override(None);
            r
        };
        for threads in [2usize, 4, 7] {
            crate::pool::set_thread_override(Some(threads));
            let m = matmul(&a, &b).unwrap();
            let c = im2col(&x, &g).unwrap();
            let p = planes();
            crate::pool::set_thread_override(None);
            assert_eq!(m, reference.0, "matmul differs at {threads} threads");
            assert_eq!(c, reference.1, "im2col differs at {threads} threads");
            assert!(
                p == reference.2,
                "padded planes differ at {threads} threads"
            );
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
        // the weight gradient of the two images with 4 output channels:
        // dY of 2·4·(2×2), a (9×4) output, and a slot that holds at least
        // one fold chunk (one image's 9×4 patch matrix)
        let dy4 = vec![0.0f32; 32];
        let mut slot = vec![0.0f32; 36];
        assert!(
            conv_weight_grad_slices(x.as_slice(), &dy4, 2, &g, 4, &mut slot, &mut [0.0; 36])
                .is_ok()
        );
        assert!(matches!(
            conv_weight_grad_slices(x.as_slice(), &dy4, 2, &g, 4, &mut slot[1..], &mut [0.0; 36]),
            Err(TensorError::LengthMismatch { expected: 36, .. })
        ));
        assert!(matches!(
            conv_weight_grad_slices(x.as_slice(), &dy4[1..], 2, &g, 4, &mut slot, &mut [0.0; 36]),
            Err(TensorError::LengthMismatch { expected: 32, .. })
        ));
        assert!(matches!(
            conv_weight_grad_slices(x.as_slice(), &dy4, 2, &g, 4, &mut slot, &mut [0.0; 35]),
            Err(TensorError::LengthMismatch { expected: 36, .. })
        ));
        assert_eq!(g.weight_grad_slot(2, 4), FOLD_SLOT);
        assert!(cross_entropy_with_grad_slices(a.as_slice(), &[0, 1], 3, &mut short).is_err());
        // padded planes: two images of 1×4×4 under a 3×3 kernel, padding 1
        let g = ConvGeometry { padding: 1, ..g };
        let pp = g.padded_planes(2);
        let (w, dy) = (vec![0.0f32; 9], vec![0.0f32; 32]);
        let mut planes = vec![0.0f32; pp.len];
        assert!(matches!(
            pad_planes_slices(one_image, 2, &g, &mut planes),
            Err(TensorError::LengthMismatch { expected: 32, .. })
        ));
        assert!(matches!(
            matmul_planes_slices(&w, &planes, 2, &g, 1, &mut short),
            Err(TensorError::LengthMismatch { .. })
        ));
        let mut scratch = vec![0.0f32; pp.grid + pp.len];
        assert!(matches!(
            conv_input_grad_slices(&w, &dy, 2, &g, 1, &mut scratch[1..], &mut [0.0; 32]),
            Err(TensorError::LengthMismatch { .. })
        ));
        let strided = ConvGeometry { stride: 2, ..g };
        assert!(matches!(
            pad_planes_slices(x.as_slice(), 2, &strided, &mut planes),
            Err(TensorError::InvalidArgument(_))
        ));
        assert!(matches!(
            conv_input_grad_slices(&w, &dy[..8], 2, &strided, 1, &mut scratch, &mut [0.0; 32]),
            Err(TensorError::InvalidArgument(_))
        ));
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
