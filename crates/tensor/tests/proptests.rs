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
/// image's column block, and `matmul_transb_slices` reading a block in
/// place (`ldb = images·span`) gives the bits it gives on a dense copy.
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
            let a = rng::uniform(&[m, span], -1.0, 1.0, &mut r);
            let mut prod = vec![f32::NAN; m * patch];
            let at = &c.as_slice()[j * span..];
            ops::matmul_transb_slices(a.as_slice(), at, width, m, span, patch, &mut prod).unwrap();
            ensure(
                bits(&prod) == bits(ops::matmul_transb(&a, &cj).unwrap().as_slice()),
                format!("matmul_transb on block {j} differs from its dense copy"),
            )?;
        }
        Ok(())
    });
}

/// Parallel `matmul`, `matmul_transa` and the panel cores (`im2col` and
/// `col2im` of a multi-image panel, `matmul_transb` on the last image's
/// block of it) are bit-identical to their serial runs for arbitrary shapes
/// across worker counts 1, 2, 4 and 7 (shapes range from pool-bypassing
/// tiny to large enough that the row partition engages).
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
        let dy = rng::normal(&[m, span], 0.0, 1.0, &mut rng::seeded(seed ^ 4));
        let run = || {
            let mut ta = vec![0.0f32; m * n];
            ops::matmul_transa_slices(at.as_slice(), b.as_slice(), m, k, n, &mut ta).unwrap();
            let mut panel = vec![0.0f32; patch * width];
            ops::im2col_slices(x.as_slice(), images, &geom, &mut panel).unwrap();
            let mut img = vec![0.0f32; x.len()];
            ops::col2im_slices(c.as_slice(), images, &geom, &mut img).unwrap();
            let mut dw = vec![0.0f32; m * patch];
            let block = &c.as_slice()[(images - 1) * span..];
            ops::matmul_transb_slices(dy.as_slice(), block, width, m, span, patch, &mut dw)
                .unwrap();
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
                "matmul_transb",
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
