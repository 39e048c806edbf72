//! Property-based tests for the tensor substrate, running on the in-house
//! deterministic harness ([`ahw_tensor::check`]).

use ahw_tensor::check::{self, ensure};
use ahw_tensor::ops::{self, ConvGeometry};
use ahw_tensor::rng::Rng;
use ahw_tensor::{io, rng, Shape, Tensor};

/// Row-major offsets are a bijection onto 0..volume.
#[test]
fn shape_offsets_are_bijective() {
    check::cases(64).run("shape_offsets_are_bijective", |g| {
        let dims = g.dims("dims", 4, 5);
        let shape = Shape::new(&dims);
        let volume = shape.volume();
        let mut seen = vec![false; volume];
        let mut index = vec![0usize; dims.len()];
        'outer: loop {
            let off = shape.offset(&index).unwrap();
            ensure(!seen[off], format!("offset {off} visited twice"))?;
            seen[off] = true;
            // odometer increment
            let mut d = dims.len();
            loop {
                if d == 0 {
                    break 'outer;
                }
                d -= 1;
                index[d] += 1;
                if index[d] < dims[d] {
                    break;
                }
                index[d] = 0;
            }
        }
        ensure(seen.iter().all(|&s| s), "not all offsets reached")
    });
}

/// Transpose is an involution.
#[test]
fn transpose_involution() {
    check::cases(64).run("transpose_involution", |g| {
        let rows = g.usize_in("rows", 1, 8);
        let cols = g.usize_in("cols", 1, 8);
        let seed = g.seed("seed");
        let t = rng::uniform(&[rows, cols], -1.0, 1.0, &mut rng::seeded(seed));
        ensure(
            t.transpose().unwrap().transpose().unwrap() == t,
            "transpose twice is not the identity",
        )
    });
}

/// (AB)ᵀ = BᵀAᵀ.
#[test]
fn matmul_transpose_identity() {
    check::cases(64).run("matmul_transpose_identity", |g| {
        let seed = g.seed("seed");
        let a = rng::uniform(&[3, 4], -1.0, 1.0, &mut rng::seeded(seed));
        let b = rng::uniform(&[4, 5], -1.0, 1.0, &mut rng::seeded(seed.wrapping_add(1)));
        let lhs = ops::matmul(&a, &b).unwrap().transpose().unwrap();
        let rhs = ops::matmul(&b.transpose().unwrap(), &a.transpose().unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            ensure((x - y).abs() < 1e-4, format!("{x} vs {y}"))?;
        }
        Ok(())
    });
}

/// Serialization round-trips arbitrary shapes bit-exactly.
#[test]
fn io_round_trip() {
    check::cases(64).run("io_round_trip", |g| {
        let dims = g.dims("dims", 4, 5);
        let seed = g.seed("seed");
        let t = rng::normal(&dims, 0.0, 10.0, &mut rng::seeded(seed));
        let mut buf = Vec::new();
        io::write_tensor(&mut buf, &t).unwrap();
        let back = io::read_tensor(&mut buf.as_slice()).unwrap();
        ensure(t == back, "serialization round trip changed the tensor")
    });
}

/// im2col followed by col2im applied to a ones-matrix counts how many
/// patches cover each pixel — every interior pixel of a stride-1 padded
/// conv is covered exactly k² times.
#[test]
fn conv_coverage_count() {
    check::cases(16).run("conv_coverage_count", |g| {
        let k = g.usize_in("k", 1, 4);
        let size = 6usize;
        let geom = ConvGeometry {
            channels: 1,
            height: size,
            width: size,
            kernel: k,
            stride: 1,
            padding: k / 2,
        };
        let ones = Tensor::ones(&[geom.patch_len(), geom.out_height() * geom.out_width()]);
        let cover = ops::col2im(&ones, &geom).unwrap();
        // interior pixel
        let mid = cover.at(&[0, size / 2, size / 2]).unwrap();
        ensure(
            (mid - (k * k) as f32).abs() < 1e-5,
            format!("coverage {mid} vs {}", k * k),
        )
    });
}

/// Cross-entropy's softmax rows are probability vectors for any finite
/// input: `rows · dlogits + onehot` recovers them.
#[test]
fn cross_entropy_softmax_rows_are_distributions() {
    check::cases(64).run("cross_entropy_softmax_rows_are_distributions", |g| {
        let rows = g.usize_in("rows", 1, 5);
        let cols = g.usize_in("cols", 1, 8);
        let seed = g.seed("seed");
        let mut r = rng::seeded(seed);
        let t = rng::uniform(&[rows, cols], -50.0, 50.0, &mut r);
        let labels: Vec<usize> = (0..rows).map(|_| r.gen_range(0..cols)).collect();
        let (_, grad) = ops::cross_entropy_with_grad(&t, &labels).unwrap();
        for (i, &label) in labels.iter().enumerate() {
            let mut row: Vec<f32> = grad.as_slice()[i * cols..(i + 1) * cols]
                .iter()
                .map(|&d| d * rows as f32)
                .collect();
            row[label] += 1.0;
            let sum: f32 = row.iter().sum();
            ensure((sum - 1.0).abs() < 1e-4, format!("row {i} sums to {sum}"))?;
            ensure(
                row.iter().all(|&p| (-1e-6..=1.0 + 1e-6).contains(&p)),
                format!("row {i} has a value outside [0, 1]"),
            )?;
        }
        Ok(())
    });
}

/// A random convolution geometry that `validate` accepts: sides from 1 to
/// `max_side`, kernels up to 5, strides up to 3 and padding below the
/// kernel — wide enough to reach taps that only ever read padding.
fn geometry(
    g: &mut check::Gen,
    max_channels: usize,
    max_side: usize,
) -> Result<ConvGeometry, check::Failure> {
    let kernel = g.usize_in("kernel", 1, 6);
    let geom = ConvGeometry {
        channels: g.usize_in("channels", 1, max_channels + 1),
        height: g.usize_in("height", 1, max_side + 1),
        width: g.usize_in("width", 1, max_side + 1),
        kernel,
        stride: g.usize_in("stride", 1, 4),
        padding: g.usize_in("padding", 0, kernel),
    };
    check::assume(geom.validate().is_ok())?;
    Ok(geom)
}

/// Bit patterns, so NaN sentinels compare equal to themselves.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// <im2col x, c> = <x, col2im c> for random `x` and `c` drawn from `seed`.
fn adjoint_holds(geom: &ConvGeometry, seed: u64) -> check::CaseResult {
    let mut r = rng::seeded(seed);
    let span = geom.out_height() * geom.out_width();
    let x = rng::uniform(&[geom.channels, geom.height, geom.width], -1.0, 1.0, &mut r);
    let c = rng::uniform(&[geom.patch_len(), span], -1.0, 1.0, &mut r);
    let dot = |a: &[f32], b: &[f32]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(&u, &v)| f64::from(u) * f64::from(v))
            .sum()
    };
    let lhs = dot(ops::im2col(&x, geom).unwrap().as_slice(), c.as_slice());
    let rhs = dot(x.as_slice(), ops::col2im(&c, geom).unwrap().as_slice());
    ensure(
        (lhs - rhs).abs() <= 1e-4 * (1.0 + lhs.abs()),
        format!("<im2col x, c> = {lhs} vs <x, col2im c> = {rhs}"),
    )
}

/// `col2im` is the adjoint of `im2col` — the defining property of the pair,
/// which backprop relies on — for every geometry, including taps that only
/// read padding. The 3×3 same-padded geometry of a CIFAR conv is pinned.
#[test]
fn lowering_is_adjoint() {
    let same_3x3 = ConvGeometry {
        channels: 2,
        height: 4,
        width: 4,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    adjoint_holds(&same_3x3, 21).unwrap();
    check::cases(128).run("lowering_is_adjoint", |g| {
        let geom = geometry(g, 3, 7)?;
        let seed = g.seed("seed");
        adjoint_holds(&geom, seed)
    });
}

/// A column panel is its images' one-image lowerings side by side, bit for
/// bit: `im2col_slices` of `images` images is the column-wise concatenation
/// of their `im2col`s, `col2im_slices` of a panel is the `col2im` of each
/// image's column block, and `conv_weight_grad_slices`, which lowers the
/// images block by block into its slot, gives the bits of the serial fold
/// over their one-image lowerings, with a slot of one image or of the
/// whole batch.
#[test]
fn a_panel_is_its_images_lowered_side_by_side() {
    check::cases(128).run("a_panel_is_its_images_lowered_side_by_side", |g| {
        let geom = geometry(g, 3, 7)?;
        let images = g.usize_in("images", 1, 5);
        let m = g.usize_in("m", 1, 5);
        let seed = g.seed("seed");
        let mut r = rng::seeded(seed);
        let (patch, span) = (geom.patch_len(), geom.out_height() * geom.out_width());
        let width = images * span;
        let image = [geom.channels, geom.height, geom.width];
        let item: usize = image.iter().product();
        let x = rng::uniform(&[images * item], -1.0, 1.0, &mut r);
        let c = rng::uniform(&[patch, width], -1.0, 1.0, &mut r);
        let mut panel = vec![f32::NAN; patch * width];
        ops::im2col_slices(x.as_slice(), images, &geom, &mut panel).unwrap();
        let mut grads = vec![f32::NAN; images * item];
        ops::col2im_slices(c.as_slice(), images, &geom, &mut grads).unwrap();
        let mut dense = Vec::new();
        for j in 0..images {
            // image j's (patch × span) column block of a panel
            let block = |p: &[f32]| -> Vec<f32> {
                p.chunks(width)
                    .flat_map(|row| row[j * span..(j + 1) * span].iter().copied())
                    .collect()
            };
            let xj = Tensor::from_vec(x.as_slice()[j * item..(j + 1) * item].to_vec(), &image);
            let lowered = ops::im2col(&xj.unwrap(), &geom).unwrap();
            ensure(
                bits(&block(&panel)) == bits(lowered.as_slice()),
                format!("im2col block {j} of a {images}-image panel"),
            )?;
            let cj = Tensor::from_vec(block(c.as_slice()), &[patch, span]).unwrap();
            ensure(
                bits(&grads[j * item..(j + 1) * item])
                    == bits(ops::col2im(&cj, &geom).unwrap().as_slice()),
                format!("col2im image {j} of a {images}-image panel"),
            )?;
            dense.extend_from_slice(lowered.as_slice());
        }
        let dy = rng::uniform(&[images * m * span], -1.0, 1.0, &mut r);
        let expect = bits(&folded_reference(
            &dense,
            dy.as_slice(),
            images,
            (patch, span, m),
        ));
        // one image's share of the slot: its patch matrix, and on the
        // column lanes its dY block's panels of eight channels
        let one = patch * span
            + if m >= 8 && span <= 16 {
                m.div_ceil(8) * 8 * span
            } else {
                0
            };
        for slot_len in [one, geom.weight_grad_slot(images, m)] {
            let mut out = vec![f32::NAN; patch * m];
            let mut slot = vec![f32::NAN; slot_len];
            ops::conv_weight_grad_slices(
                x.as_slice(),
                dy.as_slice(),
                images,
                &geom,
                m,
                &mut slot,
                &mut out,
            )
            .unwrap();
            ensure(
                bits(&out) == expect,
                format!("the weight gradient of {images} images in a slot of {slot_len} differs"),
            )?;
        }
        Ok(())
    });
}

/// `dot4` as the kernels define it: four interleaved partial sums, each
/// from +0.0 in ascending order, combined as `((acc0 + acc1) + (acc2 +
/// acc3)) + tail`, the tail a serial sum from +0.0.
fn dot4(x: &[f32], y: &[f32]) -> f32 {
    let q = x.len() / 4 * 4;
    let mut acc = [0.0f32; 4];
    for j in (0..q).step_by(4) {
        for t in 0..4 {
            acc[t] += x[j + t] * y[j + t];
        }
    }
    let mut tail = 0.0f32;
    for j in q..x.len() {
        tail += x[j] * y[j];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `conv_weight_grad_slices` by its definition, on the images' dense
/// `(m×k)` lowerings in `a`: image `i`'s product element `(r, c)` is
/// `dot4(row r of its block of a, row c of its block of b)`; each chunk of
/// `images.div_ceil(16)` consecutive images sums its images' products from
/// +0.0 in image order, and the chunk sums fold left to right onto chunk
/// 0's.
fn folded_reference(
    a: &[f32],
    b: &[f32],
    images: usize,
    (m, k, n): (usize, usize, usize),
) -> Vec<f32> {
    let chunk = images.div_ceil(16).max(1);
    let chunk_sums = (0..images).step_by(chunk).map(|start| {
        let mut sum = vec![0.0f32; m * n];
        for i in start..(start + chunk).min(images) {
            for (e, s) in sum.iter_mut().enumerate() {
                let (r, c) = (e / n, e % n);
                *s += dot4(&a[(i * m + r) * k..][..k], &b[(i * n + c) * k..][..k]);
            }
        }
        sum
    });
    chunk_sums
        .reduce(|mut total, sum| {
            for (t, s) in total.iter_mut().zip(&sum) {
                *t += s;
            }
            total
        })
        .unwrap_or_else(|| vec![0.0; m * n])
}

/// Bit patterns with every NaN mapped to one pattern: IEEE arithmetic does
/// not pin which NaN payload an operation on NaNs returns.
fn value_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// `len` uniform draws in [-1, 1), about one in eight replaced by ±0.0 and,
/// when `specials` is set, a few by ±∞ or NaN.
fn operand(r: &mut impl Rng, len: usize, specials: bool) -> Vec<f32> {
    let mut v = rng::uniform(&[len], -1.0, 1.0, r).as_slice().to_vec();
    for x in v.iter_mut() {
        if r.gen_range(0..8) == 0 {
            *x = if r.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
        }
    }
    if specials && len > 0 {
        for s in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            v[r.gen_range(0..len)] = s;
        }
    }
    v
}

/// The folded weight-gradient kernel gives its serial definition's bits
/// (NaN payloads aside) at 1, 2, 4 and 7 threads, on both of its cores:
/// `conv_weight_grad_slices` of a 1×1 convolution over `m` channels of
/// `1 × k` images, whose lowering is each image itself, so the fold reads
/// arbitrary `(m×k)` blocks. `m` up to 300 and `n` up to 40, so every
/// residue of the four-row blocks and of the pair-lane (4) and column-lane
/// (8) column blocks comes up, with several full blocks of each; `k` from
/// 1 to 39 (every residue mod 4, both sides of the column-lane rule's `k ≤
/// 16`) or a VGG span of 4, 16 or 64; 1–37 images, batches whose last fold
/// chunk is short, slots of one fold chunk to the whole batch (so the last
/// block may be short, and a slot may end in part of a chunk), and operands
/// holding ±0.0, ±∞ and NaN. `matmul_transb_slices` is still one `dot4` per
/// element.
#[test]
fn folded_weight_gradient_matches_its_serial_definition() {
    use ahw_tensor::pool;
    check::cases(96).run("folded_weight_gradient", |g| {
        let m = g.usize_in("m", 1, 301);
        let k = match g.usize_in("k_kind", 0, 3) {
            0 => [4, 16, 64][g.usize_in("span_at", 0, 3)],
            _ => g.usize_in("k", 1, 40),
        };
        let n = g.usize_in("n", 1, 41);
        let images: usize = [1, 2, 3, 4, 5, 6, 7, 17, 19, 23, 35, 37][g.usize_in("images_at", 0, 12)];
        let len = images.div_ceil(16);
        // one image's share of the slot: its patch matrix, and on the
        // column lanes its dY block's panels of eight channels
        let one = m * k + if n >= 8 && k <= 16 { n.div_ceil(8) * 8 * k } else { 0 };
        let chunks = g.usize_in("chunks", 1, images.div_ceil(len) + 1);
        let slot_len = chunks * len * one + g.usize_in("extra", 0, len * one);
        let specials = g.usize_in("specials", 0, 2) == 1;
        let mut r = rng::seeded(g.seed("seed"));
        let a = operand(&mut r, images * m * k, specials);
        let b = operand(&mut r, images * n * k, specials);
        let expect = value_bits(&folded_reference(&a, &b, images, (m, k, n)));
        let geom = ConvGeometry {
            channels: m,
            height: 1,
            width: k,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        for threads in [1usize, 2, 4, 7] {
            let mut out = vec![f32::NAN; m * n];
            let mut slot = vec![f32::NAN; slot_len];
            pool::set_thread_override(Some(threads));
            let res = ops::conv_weight_grad_slices(&a, &b, images, &geom, n, &mut slot, &mut out);
            pool::set_thread_override(None);
            res.unwrap();
            ensure(
                value_bits(&out) == expect,
                format!("fold of {images} images ({chunks} chunks per block) differs at {threads} threads"),
            )?;
        }
        let (x, w) = (&a[..m * k], &b[..n * k]);
        let mut out = vec![f32::NAN; m * n];
        ops::matmul_transb_slices(x, w, m, k, n, &mut out).unwrap();
        let dots: Vec<f32> = (0..m * n)
            .map(|e| dot4(&x[e / n * k..][..k], &w[e % n * k..][..k]))
            .collect();
        ensure(
            value_bits(&out) == value_bits(&dots),
            "matmul_transb_slices is not one dot4 per element",
        )
    });
}

/// A stride-1 convolution on padded planes gives the panel route's bits.
/// `matmul_planes_slices` over `pad_planes_slices`' planes holds, at each
/// output's grid column, what `matmul_slices` over `im2col_slices`' panel
/// holds at its panel column, and `conv_input_grad_slices` writes what
/// `matmul_transa_slices` followed by `col2im_slices` write, bit for bit
/// (NaN payloads included). Kernels 1–5 with padding up to two past the
/// kernel (outputs that read only padding), 1–12 pixels a side, 1–6
/// images, channel counts off multiples of 4, operands holding ±0.0 and,
/// in half the cases, ±∞ and NaN; at 1, 2, 4 and 7 threads, with every
/// output and scratch buffer starting as NaN.
#[test]
fn padded_planes_give_the_panel_routes_bits() {
    use ahw_tensor::pool;
    check::cases(64).run("padded_planes", |g| {
        let kernel = g.usize_in("kernel", 1, 6);
        let geom = ConvGeometry {
            channels: g.usize_in("channels", 1, 10),
            height: g.usize_in("height", 1, 13),
            width: g.usize_in("width", 1, 13),
            kernel,
            stride: 1,
            padding: g.usize_in("padding", 0, kernel + 2),
        };
        check::assume(geom.validate().is_ok())?;
        let images = g.usize_in("images", 1, 7);
        let oc = g.usize_in("oc", 1, 8);
        let specials = g.usize_in("specials", 0, 2) == 1;
        let mut r = rng::seeded(g.seed("seed"));
        let (oh, ow) = (geom.out_height(), geom.out_width());
        let (patch, span) = (geom.patch_len(), oh * ow);
        let width = images * span;
        let item = geom.channels * geom.height * geom.width;
        let x = operand(&mut r, images * item, specials);
        let w = operand(&mut r, oc * patch, specials);
        let dy = operand(&mut r, images * oc * span, specials);
        // the panel route, with dY gathered into the panel's layout
        let mut panel = vec![f32::NAN; patch * width];
        ops::im2col_slices(&x, images, &geom, &mut panel).unwrap();
        let mut prod = vec![f32::NAN; oc * width];
        ops::matmul_slices(&w, &panel, oc, patch, width, &mut prod).unwrap();
        let mut dyp = vec![f32::NAN; oc * width];
        for (e, v) in dy.iter().enumerate() {
            let (j, o, col) = (e / (oc * span), e / span % oc, e % span);
            dyp[o * width + j * span + col] = *v;
        }
        ops::matmul_transa_slices(&w, &dyp, patch, oc, width, &mut panel).unwrap();
        let mut dx_panel = vec![f32::NAN; images * item];
        ops::col2im_slices(&panel, images, &geom, &mut dx_panel).unwrap();
        let pp = geom.padded_planes(images);
        for threads in [1usize, 2, 4, 7] {
            let mut planes = vec![f32::NAN; geom.channels * pp.len];
            let mut grid = vec![f32::NAN; oc * pp.grid];
            let mut scratch = vec![f32::NAN; oc * pp.grid + geom.channels * pp.len];
            let mut dx = vec![f32::NAN; images * item];
            pool::set_thread_override(Some(threads));
            ops::pad_planes_slices(&x, images, &geom, &mut planes).unwrap();
            ops::matmul_planes_slices(&w, &planes, images, &geom, oc, &mut grid).unwrap();
            ops::conv_input_grad_slices(&w, &dy, images, &geom, oc, &mut scratch, &mut dx).unwrap();
            pool::set_thread_override(None);
            for (o, j, oy) in (0..oc)
                .flat_map(|o| (0..images).flat_map(move |j| (0..oh).map(move |oy| (o, j, oy))))
            {
                let at = o * pp.grid + (j * pp.rows + oy) * pp.pitch;
                let want = &prod[o * width + j * span + oy * ow..][..ow];
                ensure(
                    bits(&grid[at..at + ow]) == bits(want),
                    format!("output ({j}, {o}, {oy}) differs at {threads} threads"),
                )?;
            }
            ensure(
                bits(&dx) == bits(&dx_panel),
                format!("input gradient differs at {threads} threads"),
            )?;
        }
        Ok(())
    });
}

/// Parallel `matmul`, `matmul_transa` and the panel cores (`im2col` and
/// `col2im` of a multi-image panel, the weight gradient of its images) are
/// bit-identical to their serial runs for arbitrary shapes across worker
/// counts 1, 2, 4 and 7 (shapes range from pool-bypassing tiny to large
/// enough that the row partition engages).
#[test]
fn kernels_thread_count_invariant() {
    use ahw_tensor::pool;
    check::cases(24).run("kernels_thread_count_invariant", |g| {
        let m = g.usize_in("m", 1, 96);
        let k = g.usize_in("k", 1, 48);
        let n = g.usize_in("n", 1, 48);
        let seed = g.seed("seed");
        let a = rng::uniform(&[m, k], -1.0, 1.0, &mut rng::seeded(seed));
        let b = rng::uniform(&[k, n], -1.0, 1.0, &mut rng::seeded(seed ^ 1));
        let at = rng::uniform(&[k, m], -1.0, 1.0, &mut rng::seeded(seed ^ 5));
        let geom = geometry(g, 8, 24)?;
        let images = g.usize_in("images", 1, 4);
        let (patch, span) = (geom.patch_len(), geom.out_height() * geom.out_width());
        let width = images * span;
        let item = geom.channels * geom.height * geom.width;
        let x = rng::normal(&[images * item], 0.0, 1.0, &mut rng::seeded(seed ^ 2));
        let c = rng::normal(&[patch, width], 0.0, 1.0, &mut rng::seeded(seed ^ 3));
        let dy = rng::normal(&[images, m, span], 0.0, 1.0, &mut rng::seeded(seed ^ 4));
        let run = || {
            let mut ta = vec![0.0f32; m * n];
            ops::matmul_transa_slices(at.as_slice(), b.as_slice(), m, k, n, &mut ta).unwrap();
            let mut panel = vec![0.0f32; patch * width];
            ops::im2col_slices(x.as_slice(), images, &geom, &mut panel).unwrap();
            let mut img = vec![0.0f32; x.len()];
            ops::col2im_slices(c.as_slice(), images, &geom, &mut img).unwrap();
            let mut dw = vec![0.0f32; patch * m];
            let mut slot = vec![0.0f32; geom.weight_grad_slot(images, m)];
            let (x, dy) = (x.as_slice(), dy.as_slice());
            ops::conv_weight_grad_slices(x, dy, images, &geom, m, &mut slot, &mut dw).unwrap();
            [
                bits(ops::matmul(&a, &b).unwrap().as_slice()),
                bits(&ta),
                bits(&panel),
                bits(&img),
                bits(&dw),
            ]
        };
        pool::set_thread_override(Some(1));
        let reference = run();
        pool::set_thread_override(None);
        for threads in [2usize, 4, 7] {
            pool::set_thread_override(Some(threads));
            let got = run();
            pool::set_thread_override(None);
            let names = [
                "matmul",
                "matmul_transa",
                "im2col",
                "col2im",
                "conv_weight_grad",
            ];
            for (name, (x, y)) in names.iter().zip(got.iter().zip(&reference)) {
                ensure(x == y, format!("{name} differs at {threads} threads"))?;
            }
        }
        Ok(())
    });
}

/// Cross-entropy is minimized (among one-hot targets) by the true label.
#[test]
fn cross_entropy_prefers_true_label() {
    check::cases(64).run("cross_entropy_prefers_true_label", |g| {
        let seed = g.seed("seed");
        let label = g.usize_in("label", 0, 4);
        let logits = rng::uniform(&[1, 4], -2.0, 2.0, &mut rng::seeded(seed));
        let (loss_true, _) = ops::cross_entropy_with_grad(&logits, &[label]).unwrap();
        // raising the true logit must reduce the loss
        let mut boosted = logits.clone();
        boosted.as_mut_slice()[label] += 1.0;
        let (loss_boosted, _) = ops::cross_entropy_with_grad(&boosted, &[label]).unwrap();
        ensure(
            loss_boosted < loss_true + 1e-6,
            format!("boosted loss {loss_boosted} vs {loss_true}"),
        )
    });
}
