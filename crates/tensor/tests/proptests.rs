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

/// Parallel `matmul`/`im2col` are bit-identical to the serial kernels for
/// arbitrary shapes across worker counts 1, 2, 4 and 7 (shapes range from
/// pool-bypassing tiny to large enough that the row partition engages).
#[test]
fn kernels_thread_count_invariant() {
    use ahw_tensor::pool;
    check::cases(12).run("kernels_thread_count_invariant", |g| {
        let m = g.usize_in("m", 1, 96);
        let k = g.usize_in("k", 1, 48);
        let n = g.usize_in("n", 1, 48);
        let seed = g.seed("seed");
        let a = rng::uniform(&[m, k], -1.0, 1.0, &mut rng::seeded(seed));
        let b = rng::uniform(&[k, n], -1.0, 1.0, &mut rng::seeded(seed ^ 1));
        let ch = g.usize_in("channels", 1, 8);
        let size = g.usize_in("size", 4, 24);
        let kernel = g.usize_in("kernel", 1, 3);
        let geom = ConvGeometry {
            channels: ch,
            height: size,
            width: size,
            kernel,
            stride: 1,
            padding: kernel / 2,
        };
        let x = rng::normal(&[ch, size, size], 0.0, 1.0, &mut rng::seeded(seed ^ 2));
        pool::set_thread_override(Some(1));
        let mm = ops::matmul(&a, &b).unwrap();
        let cols = ops::im2col(&x, &geom).unwrap();
        pool::set_thread_override(None);
        for threads in [2usize, 4, 7] {
            pool::set_thread_override(Some(threads));
            let mm_t = ops::matmul(&a, &b).unwrap();
            let cols_t = ops::im2col(&x, &geom).unwrap();
            pool::set_thread_override(None);
            ensure(mm_t == mm, format!("matmul differs at {threads} threads"))?;
            ensure(
                cols_t == cols,
                format!("im2col differs at {threads} threads"),
            )?;
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
