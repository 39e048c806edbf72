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

/// With a row pitch `ld = images·span`, the lowering cores address image
/// `j`'s column block of a multi-image panel: `im2col_slices` writes the
/// dense (`ld = span`) bits there and leaves every other column untouched,
/// and `col2im_slices` / `matmul_transb_slices` read the block to the
/// bits they give on a dense copy of it.
#[test]
fn lowering_in_a_panel_touches_only_its_block() {
    check::cases(128).run("lowering_in_a_panel_touches_only_its_block", |g| {
        let geom = geometry(g, 3, 7)?;
        let images = g.usize_in("images", 1, 5);
        let j = g.usize_in("j", 0, images);
        let m = g.usize_in("m", 1, 5);
        let seed = g.seed("seed");
        let mut r = rng::seeded(seed);
        let (patch, span) = (geom.patch_len(), geom.out_height() * geom.out_width());
        let ld = images * span;
        let x = rng::uniform(&[geom.channels, geom.height, geom.width], -1.0, 1.0, &mut r);
        let dense = ops::im2col(&x, &geom).unwrap();
        let sentinel = f32::from_bits(0x7fc0_1234);
        let mut panel = vec![sentinel; patch * ld];
        ops::im2col_slices(x.as_slice(), &geom, &mut panel[j * span..], ld).unwrap();
        for (idx, v) in panel.iter().enumerate() {
            let (row, col) = (idx / ld, idx % ld);
            let expect = if col / span == j {
                dense.as_slice()[row * span + col % span]
            } else {
                sentinel
            };
            ensure(
                v.to_bits() == expect.to_bits(),
                format!("im2col panel element ({row}, {col}) of block {j}"),
            )?;
        }

        let panel = rng::uniform(&[patch, ld], -1.0, 1.0, &mut r);
        let block: Vec<f32> = panel
            .as_slice()
            .chunks(ld)
            .flat_map(|row| row[j * span..(j + 1) * span].iter().copied())
            .collect();
        let block = Tensor::from_vec(block, &[patch, span]).unwrap();
        let mut img = vec![f32::NAN; geom.channels * geom.height * geom.width];
        ops::col2im_slices(&panel.as_slice()[j * span..], ld, &geom, &mut img).unwrap();
        ensure(
            bits(&img) == bits(ops::col2im(&block, &geom).unwrap().as_slice()),
            "col2im of a panel block differs from col2im of its dense copy",
        )?;
        let a = rng::uniform(&[m, span], -1.0, 1.0, &mut r);
        let mut prod = vec![f32::NAN; m * patch];
        ops::matmul_transb_slices(
            a.as_slice(),
            &panel.as_slice()[j * span..],
            ld,
            m,
            span,
            patch,
            &mut prod,
        )
        .unwrap();
        ensure(
            bits(&prod) == bits(ops::matmul_transb(&a, &block).unwrap().as_slice()),
            "matmul_transb of a panel block differs from its dense copy",
        )
    });
}

/// Parallel `matmul` and the pitched lowering cores (`im2col`, `col2im`,
/// `matmul_transb` on block 1 of a two-image panel) are bit-identical to
/// their serial runs for arbitrary shapes across worker counts 1, 2, 4
/// and 7 (shapes range from pool-bypassing tiny to large enough that the
/// row partition engages).
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
        let geom = geometry(g, 8, 24)?;
        let (patch, span) = (geom.patch_len(), geom.out_height() * geom.out_width());
        let x = rng::normal(
            &[geom.channels, geom.height, geom.width],
            0.0,
            1.0,
            &mut rng::seeded(seed ^ 2),
        );
        let c = rng::normal(&[patch, 2 * span], 0.0, 1.0, &mut rng::seeded(seed ^ 3));
        let dy = rng::normal(&[m, span], 0.0, 1.0, &mut rng::seeded(seed ^ 4));
        let run = || {
            let mut panel = vec![0.0f32; patch * 2 * span];
            ops::im2col_slices(x.as_slice(), &geom, &mut panel[span..], 2 * span).unwrap();
            let mut img = vec![0.0f32; x.len()];
            ops::col2im_slices(&c.as_slice()[span..], 2 * span, &geom, &mut img).unwrap();
            let mut dw = vec![0.0f32; m * patch];
            let block = &c.as_slice()[span..];
            ops::matmul_transb_slices(dy.as_slice(), block, 2 * span, m, span, patch, &mut dw)
                .unwrap();
            [
                bits(ops::matmul(&a, &b).unwrap().as_slice()),
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
            for (name, (x, y)) in ["matmul", "im2col", "col2im", "matmul_transb"]
                .iter()
                .zip(got.iter().zip(&reference))
            {
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
