//! Golden-bits pins for the layer stack.
//!
//! Two small models — a Conv2d/BatchNorm2d/ReLU/MaxPool2d/Flatten/Linear
//! stack and a residual (BasicBlock + AvgPool2d) stack — are run through an
//! eval forward, an input gradient, and one train-mode forward/backward.
//! Every output is reduced to an FNV-1a digest of its `f32::to_bits`
//! patterns and compared with digests recorded when the layers still had
//! separate allocating and arena-backed implementations, so any arithmetic
//! change in the single remaining path (accumulation order, a dropped bias,
//! a stale buffer read) shows up as a bit-level mismatch.

use ahw_nn::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU};
use ahw_nn::{BasicBlock, Mode, Sequential};
use ahw_tensor::{ops, rng, Tensor};

/// FNV-1a over the bit patterns of `values`.
fn digest(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digests of one model's outputs, in a fixed order.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    eval_logits: u64,
    loss_bits: u32,
    input_grad: u64,
    /// One digest per parameter gradient, in `visit_params` order.
    param_grads: Vec<u64>,
    /// One digest per batch-norm running statistic, in `visit_state` order.
    running_stats: Vec<u64>,
}

fn record(model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Golden {
    let eval_logits = digest(model.forward(x, Mode::Eval).unwrap().as_slice());
    let (loss, dx) = model.input_gradient(x, labels).unwrap();
    let input_grad = digest(dx.as_slice());

    model.zero_grads();
    let logits = model.forward(x, Mode::Train).unwrap();
    let (_, dlogits) = ops::cross_entropy_with_grad(&logits, labels).unwrap();
    model.backward(&dlogits).unwrap();
    let mut param_grads = Vec::new();
    model.visit_params(&mut |p| param_grads.push(digest(p.grad.as_slice())));
    let mut running_stats = Vec::new();
    model.visit_state(&mut |name, t| {
        if name.contains("running_") {
            running_stats.push(digest(t.as_slice()));
        }
    });
    Golden {
        eval_logits,
        loss_bits: loss.to_bits(),
        input_grad,
        param_grads,
        running_stats,
    }
}

fn conv_model() -> Sequential {
    let mut r = rng::seeded(0x601D);
    let mut m = Sequential::new();
    m.push(Conv2d::new(2, 4, 3, 1, 1, &mut r).unwrap());
    m.push(BatchNorm2d::new(4));
    m.push(ReLU::new());
    m.push(MaxPool2d::new(2, 2));
    m.push(Flatten::new());
    m.push(Linear::new(4 * 3 * 3, 3, &mut r).unwrap());
    m
}

fn residual_model() -> Sequential {
    let mut r = rng::seeded(0xB10C);
    let mut m = Sequential::new();
    m.push(Conv2d::new(2, 4, 3, 1, 1, &mut r).unwrap());
    m.push(BasicBlock::new(4, 4, 1, &mut r).unwrap());
    m.push(BasicBlock::new(4, 8, 2, &mut r).unwrap());
    m.push(AvgPool2d::new(4, 4));
    m.push(Flatten::new());
    m.push(Linear::new(8, 3, &mut r).unwrap());
    m
}

#[test]
fn conv_stack_matches_golden_bits() {
    let mut m = conv_model();
    let x = rng::uniform(&[4, 2, 6, 6], 0.0, 1.0, &mut rng::seeded(0x1A));
    let got = record(&mut m, &x, &[0, 2, 1, 0]);
    let want = Golden {
        eval_logits: 0x55580a187398aa5c,
        loss_bits: 0x3f8cc2cd,
        input_grad: 0x0802d6721c762c2c,
        param_grads: vec![
            0x9aa0c66beb409a0c,
            0x1722a825012f81dc,
            0x87593fd84bb6d515,
            0xa81f365a7a3f3413,
            0xb3afc939affa695a,
            0x66b6c3e63535e027,
        ],
        running_stats: vec![0x7679af631f71763b, 0x3e649542f53ce723],
    };
    assert_eq!(got, want);
}

#[test]
fn residual_stack_matches_golden_bits() {
    let mut m = residual_model();
    let x = rng::uniform(&[3, 2, 8, 8], 0.0, 1.0, &mut rng::seeded(0x2B));
    let got = record(&mut m, &x, &[1, 0, 2]);
    let want = Golden {
        eval_logits: 0x97be57904cb2be67,
        loss_bits: 0x3fa75dd7,
        input_grad: 0x155d18936e09af68,
        param_grads: vec![
            0x9610676687e06b0f,
            0x7a374acde4f90e49,
            0x47853485230c98de,
            0x47924cc7bffa35b8,
            0x7cf257a1930f5eaf,
            0x5c00747b6f33e688,
            0x9826bf05f9411444,
            0x4ffa650f0ccf1750,
            0x12a9ec2154f11feb,
            0x262cacdb75a80993,
            0xac30e94905042cb3,
            0xef011923fbd10542,
            0x5174cb36aec4f8d1,
            0x48d5ea99da3b0ee8,
            0xb37786f0866b2e1d,
            0xb540ac6cf7be3a8f,
            0x9c306c6baaa3a3b9,
            0x7642af2054245cd5,
            0xd3cdc228510b550e,
            0xdeb3e047afae7f2c,
            0x5276ef2d7057f15a,
            0x7642af2054245cd5,
            0x50b43b114378456e,
            0x26c24a8b68143eab,
        ],
        running_stats: vec![
            0x7651f9ea0ff7d50c,
            0x89e57503da32c5bc,
            0x03614448e8176eb1,
            0x36cdd9d72d712dde,
            0xa9dcc42d75543b86,
            0xf6ea38dbfcc0dc1c,
            0x3d4c44e6d53ed5b7,
            0x56897e0969c8789e,
            0x103ac6d7b28f6acf,
            0x6e33626b40add91e,
        ],
    };
    assert_eq!(got, want);
}
