//! Property-based tests for the NN framework: gradient correctness over
//! randomized layer configurations, hook straight-through semantics, and
//! shape algebra. Runs on the in-house harness ([`ahw_tensor::check`]).

use ahw_nn::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU};
use ahw_nn::{ActivationHook, BasicBlock, HookSlot, Layer, Mode, Sequential};
use ahw_tensor::check::{self, ensure};
use ahw_tensor::rng::Rng;
use ahw_tensor::{rng, Tensor, Workspace};
use std::sync::Arc;

/// Directional finite-difference check in `mode`: <dy, J·v> ≈
/// (L(x+εv) − L(x−εv))/2ε where L(x) = <forward(x), dy>. One probe
/// direction per case keeps the cost linear in the layer size.
fn directional_gradcheck(
    layer: &mut dyn Layer,
    x: &Tensor,
    mode: Mode,
    eps: f32,
    seed: u64,
) -> (f32, f32) {
    let mut r = rng::seeded(seed);
    let y = layer.forward(x, mode).unwrap();
    let dy = rng::uniform(y.dims(), -1.0, 1.0, &mut r);
    let dx = layer.backward(&dy).unwrap();
    let v = rng::uniform(x.dims(), -1.0, 1.0, &mut r);
    let analytic: f32 = dx
        .as_slice()
        .iter()
        .zip(v.as_slice())
        .map(|(a, b)| a * b)
        .sum();
    let dot = |t: &Tensor| -> f32 {
        t.as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    };
    let mut xp = x.clone();
    xp.add_scaled(&v, eps).unwrap();
    let mut xm = x.clone();
    xm.add_scaled(&v, -eps).unwrap();
    let lp = dot(&layer.forward(&xp, mode).unwrap());
    let lm = dot(&layer.forward(&xm, mode).unwrap());
    (analytic, (lp - lm) / (2.0 * eps))
}

/// `|analytic − fd|` relative to the larger magnitude (at least 1).
fn rel_err(analytic: f32, fd: f32) -> f32 {
    (analytic - fd).abs() / analytic.abs().max(fd.abs()).max(1.0)
}

/// Conv2d input gradients pass a directional finite-difference check for
/// arbitrary channel counts, strides and paddings.
#[test]
fn conv_gradcheck() {
    check::cases(24).run("conv_gradcheck", |g| {
        let in_ch = g.usize_in("in_ch", 1, 4);
        let out_ch = g.usize_in("out_ch", 1, 4);
        let stride = g.usize_in("stride", 1, 3);
        let padding = g.usize_in("padding", 0, 2);
        let seed = g.u64_in("seed", 0, 200);
        let mut r = rng::seeded(seed);
        let mut conv = Conv2d::new(in_ch, out_ch, 3, stride, padding, &mut r).unwrap();
        let size = 7usize;
        let x = rng::normal(&[2, in_ch, size, size], 0.0, 1.0, &mut r);
        let (analytic, fd) = directional_gradcheck(&mut conv, &x, Mode::Eval, 1e-2, seed + 1);
        ensure(rel_err(analytic, fd) < 0.05, format!("{analytic} vs {fd}"))
    });
}

/// Linear gradients pass the same check for arbitrary widths.
#[test]
fn linear_gradcheck() {
    check::cases(24).run("linear_gradcheck", |g| {
        let inf = g.usize_in("inf", 1, 12);
        let outf = g.usize_in("outf", 1, 12);
        let seed = g.u64_in("seed", 0, 200);
        let mut r = rng::seeded(seed);
        let mut lin = Linear::new(inf, outf, &mut r).unwrap();
        let x = rng::normal(&[3, inf], 0.0, 1.0, &mut r);
        let (analytic, fd) = directional_gradcheck(&mut lin, &x, Mode::Eval, 1e-2, seed + 1);
        ensure(rel_err(analytic, fd) < 0.03, format!("{analytic} vs {fd}"))
    });
}

/// Average pooling gradients are exact for any window configuration.
#[test]
fn avgpool_gradcheck() {
    check::cases(24).run("avgpool_gradcheck", |g| {
        let k = g.usize_in("k", 1, 4);
        let stride = g.usize_in("stride", 1, 3);
        let seed = g.u64_in("seed", 0, 200);
        let mut pool = AvgPool2d::new(k, stride);
        let x = rng::normal(&[1, 2, 6, 6], 0.0, 1.0, &mut rng::seeded(seed));
        let (analytic, fd) = directional_gradcheck(&mut pool, &x, Mode::Eval, 1e-2, seed + 1);
        ensure((analytic - fd).abs() < 0.05, format!("{analytic} vs {fd}"))
    });
}

/// ReLU gradients are exact away from the kink: inputs keep |x| ≥ 0.1, far
/// outside the ±0.01 probe, so every element stays on its linear piece.
#[test]
fn relu_gradcheck() {
    check::cases(24).run("relu_gradcheck", |g| {
        let seed = g.u64_in("seed", 0, 200);
        let x = rng::normal(&[2, 3, 4, 4], 0.0, 1.0, &mut rng::seeded(seed))
            .map(|v| v.signum() * (v.abs() + 0.1));
        let (analytic, fd) =
            directional_gradcheck(&mut ReLU::new(), &x, Mode::Eval, 1e-2, seed + 1);
        ensure(rel_err(analytic, fd) < 0.01, format!("{analytic} vs {fd}"))
    });
}

/// Max-pool gradients are exact when no window's argmax can change under
/// the probe: inputs are a shuffled grid with spacing 0.1 ≫ 2·0.01.
#[test]
fn maxpool_gradcheck() {
    check::cases(24).run("maxpool_gradcheck", |g| {
        let k = g.usize_in("k", 1, 3);
        let stride = g.usize_in("stride", 1, 3);
        let seed = g.u64_in("seed", 0, 200);
        let mut values: Vec<f32> = (0..2 * 2 * 6 * 6).map(|i| i as f32 * 0.1 - 7.0).collect();
        rng::seeded(seed).shuffle(&mut values);
        let x = Tensor::from_vec(values, &[2, 2, 6, 6]).unwrap();
        let mut pool = MaxPool2d::new(k, stride);
        let (analytic, fd) = directional_gradcheck(&mut pool, &x, Mode::Eval, 1e-2, seed + 1);
        ensure(rel_err(analytic, fd) < 0.01, format!("{analytic} vs {fd}"))
    });
}

/// Batch-norm gradients pass the check with batch statistics (the full
/// backward through the mean and variance) and with running statistics.
#[test]
fn batchnorm_gradcheck() {
    check::cases(24).run("batchnorm_gradcheck", |g| {
        let channels = g.usize_in("channels", 1, 4);
        let seed = g.u64_in("seed", 0, 200);
        let mut r = rng::seeded(seed);
        let x = rng::normal(&[3, channels, 3, 3], 0.5, 2.0, &mut r);
        for mode in [Mode::Train, Mode::Eval] {
            let mut bn = BatchNorm2d::new(channels);
            let (analytic, fd) = directional_gradcheck(&mut bn, &x, mode, 1e-2, seed + 1);
            ensure(
                rel_err(analytic, fd) < 0.05,
                format!("{mode:?}: {analytic} vs {fd}"),
            )?;
        }
        Ok(())
    });
}

/// Residual-block input gradients (both shortcut kinds) pass the check in
/// eval mode; a small probe keeps the internal ReLUs on their pieces.
#[test]
fn basic_block_gradcheck() {
    check::cases(12).run("basic_block_gradcheck", |g| {
        let out_ch = g.usize_in("out_ch", 2, 4);
        let stride = g.usize_in("stride", 1, 2);
        let seed = g.u64_in("seed", 0, 200);
        let mut r = rng::seeded(seed);
        let mut block = BasicBlock::new(2, out_ch, stride, &mut r).unwrap();
        let x = rng::normal(&[2, 2, 6, 6], 0.0, 1.0, &mut r);
        let (analytic, fd) = directional_gradcheck(&mut block, &x, Mode::Eval, 1e-3, seed + 1);
        ensure(rel_err(analytic, fd) < 0.05, format!("{analytic} vs {fd}"))
    });
}

/// Max pooling backward routes exactly the incoming gradient mass.
#[test]
fn maxpool_conserves_gradient_mass() {
    check::cases(24).run("maxpool_conserves_gradient_mass", |g| {
        let k = g.usize_in("k", 1, 3);
        let seed = g.u64_in("seed", 0, 200);
        let mut pool = MaxPool2d::new(k + 1, k + 1);
        let x = rng::normal(&[1, 1, 8, 8], 0.0, 1.0, &mut rng::seeded(seed));
        let y = pool.forward(&x, Mode::Eval).unwrap();
        let dy = rng::uniform(y.dims(), 0.0, 1.0, &mut rng::seeded(seed + 1));
        let dx = pool.backward(&dy).unwrap();
        ensure(
            (dx.sum() - dy.sum()).abs() < 1e-4,
            format!("gradient mass {} vs {}", dx.sum(), dy.sum()),
        )
    });
}

/// Batch-norm in eval mode is affine: f(a·x) = a·f(x) + (1−a)·f(0).
#[test]
fn batchnorm_eval_is_affine() {
    check::cases(24).run("batchnorm_eval_is_affine", |g| {
        let seed = g.u64_in("seed", 0, 200);
        let alpha = g.f32_in("alpha", 0.5, 2.0);
        let mut bn = BatchNorm2d::new(2);
        let x = rng::normal(&[1, 2, 3, 3], 0.0, 1.0, &mut rng::seeded(seed));
        let zero = Tensor::zeros(x.dims());
        let f_x = bn.forward(&x, Mode::Eval).unwrap();
        let f_ax = bn.forward(&x.scale(alpha), Mode::Eval).unwrap();
        let f_0 = bn.forward(&zero, Mode::Eval).unwrap();
        for i in 0..f_x.len() {
            let expect = alpha * f_x.as_slice()[i] + (1.0 - alpha) * f_0.as_slice()[i];
            ensure(
                (f_ax.as_slice()[i] - expect).abs() < 1e-3,
                format!("element {i}: {} vs {expect}", f_ax.as_slice()[i]),
            )?;
        }
        Ok(())
    });
}

/// Hooks transform forward outputs but never the backward path.
#[test]
fn hooks_are_straight_through() {
    check::cases(24).run("hooks_are_straight_through", |g| {
        struct Dampen;
        impl ActivationHook for Dampen {
            fn apply(&self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
                x.scale(0.5)
            }
        }
        let seed = g.u64_in("seed", 0, 200);
        let mut r = rng::seeded(seed);
        let x = rng::normal(&[2, 4], 0.0, 1.0, &mut r);
        let dy = rng::normal(&[2, 3], 0.0, 1.0, &mut r);

        let mut plain = Linear::new(4, 3, &mut rng::seeded(seed + 1)).unwrap();
        let mut hooked = Linear::new(4, 3, &mut rng::seeded(seed + 1)).unwrap();
        hooked
            .set_hook(HookSlot::Output, Some(Arc::new(Dampen)))
            .unwrap();

        let y_plain = plain.forward(&x, Mode::Eval).unwrap();
        let y_hooked = hooked.forward(&x, Mode::Eval).unwrap();
        for (a, b) in y_plain.as_slice().iter().zip(y_hooked.as_slice()) {
            ensure((a * 0.5 - b).abs() < 1e-5, format!("{a} vs {b}"))?;
        }
        // identical backward results despite the hook
        let dx_plain = plain.backward(&dy).unwrap();
        let dx_hooked = hooked.backward(&dy).unwrap();
        ensure(dx_plain == dx_hooked, "hook altered the backward path")
    });
}

/// A full model's forward shape survives any mix of layers.
#[test]
fn sequential_shape_algebra() {
    check::cases(24).run("sequential_shape_algebra", |g| {
        let channels = g.usize_in("channels", 1, 5);
        let seed = g.u64_in("seed", 0, 100);
        let mut r = rng::seeded(seed);
        let mut m = Sequential::new();
        m.push(Conv2d::new(3, channels, 3, 1, 1, &mut r).unwrap());
        m.push(BatchNorm2d::new(channels));
        m.push(ReLU::new());
        m.push(MaxPool2d::new(2, 2));
        m.push(Flatten::new());
        m.push(Linear::new(channels * 4 * 4, 7, &mut r).unwrap());
        let x = rng::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let y = m.forward(&x, Mode::Train).unwrap();
        ensure(y.dims() == [2, 7], format!("forward dims {:?}", y.dims()))?;
        let dx = m.backward(&Tensor::ones(&[2, 7])).unwrap();
        ensure(
            dx.dims() == x.dims(),
            format!("backward dims {:?} vs {:?}", dx.dims(), x.dims()),
        )
    });
}
