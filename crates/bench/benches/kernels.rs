//! Benchmarks for the hardware-simulation kernels: the hot paths behind
//! every experiment (GEMM, im2col convolution, mesh solvers, bit-error
//! injection, attack crafting). Runs on the std-only harness
//! ([`ahw_bench::harness`]); see that module for filters and env knobs.

use ahw_attacks::{evaluate_attack, Attack};
use ahw_bench::harness::{black_box, Harness};
use ahw_core::selection::{select_noise_sites, SelectionConfig};
use ahw_crossbar::{
    extract_effective_conductance, CrossbarConfig, NonIdealities, SolverKind, TiledMatrix,
};
use ahw_nn::layers::{BatchNorm2d, Conv2d, ReLU};
use ahw_nn::{Layer, Mode, Sequential};
use ahw_sram::{BitErrorInjector, BitErrorModel, HybridMemoryConfig, HybridWordConfig};
use ahw_tensor::{ops, rng};

fn bench_matmul(h: &mut Harness) {
    for n in [32usize, 128, 256] {
        let a = rng::uniform(&[n, n], -1.0, 1.0, &mut rng::seeded(1));
        let b = rng::uniform(&[n, n], -1.0, 1.0, &mut rng::seeded(2));
        h.bench(&format!("matmul/{n}"), || {
            black_box(ops::matmul(black_box(&a), black_box(&b)).unwrap());
        });
    }
}

fn bench_conv(h: &mut Harness) {
    let mut rng_ = rng::seeded(3);
    let mut conv = Conv2d::new(16, 32, 3, 1, 1, &mut rng_).unwrap();
    let x = rng::normal(&[4, 16, 32, 32], 0.0, 1.0, &mut rng_);
    h.bench("conv2d/forward_4x16x32x32", || {
        black_box(conv.forward(black_box(&x), Mode::Eval).unwrap());
    });
    // the input-gradient pair of the row above: Eval forward plus backward
    let dy = rng::normal(&[4, 32, 32, 32], 0.0, 1.0, &mut rng_);
    h.bench("conv2d/input_grad_4x16x32x32", || {
        conv.forward(black_box(&x), Mode::Eval).unwrap();
        black_box(conv.backward(black_box(&dy)).unwrap());
    });
    // VGG19's last stage at width 0.0625: 32 channels on a 2×2 map, at the
    // attack evaluation's batch of 50
    let mut last = Conv2d::new(32, 32, 3, 1, 1, &mut rng_).unwrap();
    let x = rng::normal(&[50, 32, 2, 2], 0.0, 1.0, &mut rng_);
    let dy = rng::normal(&[50, 32, 2, 2], 0.0, 1.0, &mut rng_);
    h.bench("conv2d/input_grad_50x32x2x2", || {
        last.forward(black_box(&x), Mode::Eval).unwrap();
        black_box(last.backward(black_box(&dy)).unwrap());
    });
}

fn bench_train(h: &mut Harness) {
    // One VGG19 conv unit (conv, batch norm, ReLU) at width 0.0625 and the
    // training batch of 32, on the first stage (4 channels, 32×32) and the
    // last (32 channels, 2×2): a `Train` forward and backward, which runs
    // the folded weight-gradient kernel and batch norm's batch statistics.
    for (channels, side) in [(4usize, 32usize), (32, 2)] {
        let mut rng_ = rng::seeded(5);
        let mut unit = Sequential::new();
        unit.push(Conv2d::new(channels, channels, 3, 1, 1, &mut rng_).unwrap());
        unit.push(BatchNorm2d::new(channels));
        unit.push(ReLU::new());
        let x = rng::normal(&[32, channels, side, side], 0.0, 1.0, &mut rng_);
        let dy = rng::normal(&[32, channels, side, side], 0.0, 1.0, &mut rng_);
        h.bench(
            &format!("train/conv_bn_relu_32x{channels}x{side}x{side}"),
            || {
                unit.forward(black_box(&x), Mode::Train).unwrap();
                black_box(unit.backward(black_box(&dy)).unwrap());
            },
        );
    }
}

fn bench_mesh_solvers(h: &mut Harness) {
    let ni = NonIdealities::paper_default();
    for k in [16usize, 32, 64] {
        let g = rng::uniform(&[k * k], 5e-6, 5e-5, &mut rng::seeded(4)).into_vec();
        h.bench(&format!("mesh_solver/relaxation/{k}"), || {
            black_box(
                extract_effective_conductance(
                    black_box(&g),
                    k,
                    k,
                    &ni,
                    SolverKind::Relaxation { sweeps: 15 },
                )
                .unwrap(),
            );
        });
        if k <= 16 {
            h.bench(&format!("mesh_solver/exact/{k}"), || {
                black_box(
                    extract_effective_conductance(black_box(&g), k, k, &ni, SolverKind::Exact)
                        .unwrap(),
                );
            });
        }
    }
}

fn bench_crossbar_programming(h: &mut Harness) {
    let w = rng::uniform(&[64, 256], -1.0, 1.0, &mut rng::seeded(5));
    let cfg = CrossbarConfig::paper_default(32);
    h.bench("crossbar/program_64x256_on_32x32_tiles", || {
        black_box(
            TiledMatrix::program(black_box(&w), &cfg, &mut rng::seeded(6))
                .unwrap()
                .effective_weight(),
        );
    });
}

fn bench_bit_error_injection(h: &mut Harness) {
    let cfg = HybridMemoryConfig::new(HybridWordConfig::new(4, 4).unwrap(), 0.62).unwrap();
    let inj = BitErrorInjector::new(cfg, &BitErrorModel::srinivasan22nm(), 7);
    let x = rng::uniform(&[16 * 32 * 32], 0.0, 1.0, &mut rng::seeded(8));
    h.bench("sram/bit_error_injection_16k", || {
        black_box(inj.corrupt(black_box(&x)));
    });
    // Activation-sized workload: one hooked conv output in the Fig. 4-8
    // pipelines (batch 8, 32 channels, 32x32 feature map). This is the
    // store->flip->load round trip the sparse-event injector is judged on.
    let act = rng::uniform(&[8, 32, 32, 32], 0.0, 1.0, &mut rng::seeded(11));
    h.bench("sram/inject_8x32x32x32", || {
        black_box(inj.corrupt(black_box(&act)));
    });
}

fn bench_fgsm(h: &mut Harness) {
    let mut rng_ = rng::seeded(9);
    let mut model = Sequential::new();
    model.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng_).unwrap());
    model.push(ahw_nn::layers::Flatten::new());
    model.push(ahw_nn::layers::Linear::new(8 * 16 * 16, 10, &mut rng_).unwrap());
    let x = rng::uniform(&[8, 3, 16, 16], 0.0, 1.0, &mut rng_);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    h.bench("attacks/fgsm_batch8", || {
        black_box(ahw_attacks::fgsm(black_box(&mut model), black_box(&x), &labels, 0.05).unwrap());
    });
    let _ = model.forward(&x, Mode::Eval);
}

fn bench_pgd_eval(h: &mut Harness) {
    // The attack loop the paper actually measures: a full PGD evaluation
    // (k gradient steps per batch, sharded across workers) rather than a
    // single raw kernel. This is the workload the execution-plan/workspace
    // reuse path is judged on.
    let mut rng_ = rng::seeded(10);
    let mut model = Sequential::new();
    model.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng_).unwrap());
    model.push(ahw_nn::layers::ReLU::new());
    model.push(ahw_nn::layers::Flatten::new());
    model.push(ahw_nn::layers::Linear::new(8 * 16 * 16, 10, &mut rng_).unwrap());
    let x = rng::uniform(&[24, 3, 16, 16], 0.0, 1.0, &mut rng_);
    let labels: Vec<usize> = (0..24).map(|i| i % 10).collect();
    let attack = Attack::pgd(0.05);
    h.bench("attacks/pgd_eval_24x3x16x16", || {
        black_box(
            evaluate_attack(
                black_box(&model),
                black_box(&model),
                black_box(&x),
                &labels,
                attack,
                8,
            )
            .unwrap(),
        );
    });
}

fn bench_fig4_probe(h: &mut Harness) {
    // The Fig.-4 selection search end to end on a miniature spec: the
    // per-site 6T sweep plus the combination search, dozens of FGSM
    // evaluations per run. This is the workload the parallel/resumable
    // search pipeline is judged on (Tables I/II at experiment scale).
    let spec = ahw_nn::archs::vgg8(4, 0.0625, &mut rng::seeded(21)).unwrap();
    let x = rng::uniform(&[24, 3, 32, 32], 0.0, 1.0, &mut rng::seeded(22));
    let labels: Vec<usize> = (0..24).map(|i| i % 4).collect();
    let config = SelectionConfig {
        batch: 12,
        search_subset: 16,
        ..SelectionConfig::default()
    };
    h.bench("selection/fig4_probe", || {
        black_box(select_noise_sites(black_box(&spec), black_box(&x), &labels, &config).unwrap());
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_matmul(&mut h);
    bench_conv(&mut h);
    bench_train(&mut h);
    bench_mesh_solvers(&mut h);
    bench_crossbar_programming(&mut h);
    bench_bit_error_injection(&mut h);
    bench_fgsm(&mut h);
    bench_pgd_eval(&mut h);
    bench_fig4_probe(&mut h);
    h.finish();
}
