//! End-to-end determinism guarantees: the full SRAM-noise + adversarial
//! evaluation pipeline is a pure function of its seeds — bit-identical
//! across repeated runs and across worker counts. This is what makes every
//! paper number in `ahw-bench` reproducible on any machine.

use adversarial_hw::prelude::*;
use ahw_attacks::{evaluate_attack, sweep_epsilons, Attack, AttackOutcome};
use ahw_crossbar::{map_model, CrossbarError, CrossbarTile, SolverKind};
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_nn::NnError;
use ahw_sram::{HybridMemoryConfig, HybridWordConfig};
use ahw_tensor::{pool, rng, Tensor, TensorError};
use std::sync::Mutex;

const SEED: u64 = 0x000D_E7E2;

/// Serializes tests that pin the process-global worker-count override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the kernel pool pinned to `threads` workers.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    pool::set_thread_override(Some(threads));
    let out = f();
    pool::set_thread_override(None);
    out
}

/// Builds a small seeded classifier.
fn model(seed: u64) -> Sequential {
    let mut r = rng::seeded(seed);
    let mut m = Sequential::new();
    m.push(ahw_nn::layers::Conv2d::new(1, 4, 3, 1, 1, &mut r).unwrap());
    m.push(ahw_nn::layers::ReLU::new());
    m.push(ahw_nn::layers::Flatten::new());
    m.push(ahw_nn::layers::Linear::new(4 * 8 * 8, 3, &mut r).unwrap());
    m
}

/// Seeded inputs pushed once through a seeded hybrid-SRAM store/load round
/// trip — the noise half of the pipeline.
fn noisy_images(seed: u64) -> Tensor {
    let clean = rng::uniform(&[24, 1, 8, 8], 0.0, 1.0, &mut rng::seeded(seed));
    let cfg = HybridMemoryConfig::new(HybridWordConfig::new(4, 4).unwrap(), 0.60).unwrap();
    let injector = BitErrorInjector::new(cfg, &BitErrorModel::srinivasan22nm(), seed ^ 0x52A);
    injector.corrupt(&clean)
}

/// The whole pipeline as a function of the seed: SRAM-corrupted inputs,
/// FGSM (or PGD) crafted against the model, accuracy on both.
fn run(seed: u64, attack: Attack) -> AttackOutcome {
    let m = model(seed);
    let images = noisy_images(seed);
    let labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
    evaluate_attack(&m, &m, &images, &labels, attack, 5).unwrap()
}

#[test]
fn same_seed_is_bit_identical() {
    let a = run(SEED, Attack::Fgsm { epsilon: 0.06 });
    let b = run(SEED, Attack::Fgsm { epsilon: 0.06 });
    assert_eq!(a.clean_accuracy.to_bits(), b.clean_accuracy.to_bits());
    assert_eq!(
        a.adversarial_accuracy.to_bits(),
        b.adversarial_accuracy.to_bits()
    );
}

#[test]
fn worker_count_does_not_change_the_result() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    for attack in [Attack::Fgsm { epsilon: 0.06 }, Attack::pgd(0.06)] {
        let reference = with_threads(1, || run(SEED, attack));
        for threads in [2usize, 4, 7] {
            let o = with_threads(threads, || run(SEED, attack));
            assert_eq!(
                o.clean_accuracy.to_bits(),
                reference.clean_accuracy.to_bits(),
                "{} clean accuracy differs at {threads} threads",
                attack.name()
            );
            assert_eq!(
                o.adversarial_accuracy.to_bits(),
                reference.adversarial_accuracy.to_bits(),
                "{} adversarial accuracy differs at {threads} threads",
                attack.name()
            );
        }
    }
}

/// Out-of-range labels in batches 2 and 3 (of five): the evaluation fails
/// with batch 2's error at every thread count and on every run, not with
/// whichever failing batch finished first.
#[test]
fn attack_error_is_the_first_failing_batchs() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let m = model(SEED);
    let images = noisy_images(SEED);
    let mut labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
    labels[12] = 7;
    labels[17] = 9;
    let expected = NnError::Tensor(TensorError::InvalidArgument(
        "label 7 out of range for 3 classes".into(),
    ));
    for threads in [1usize, 2, 4, 7] {
        for _ in 0..10 {
            let err = with_threads(threads, || {
                evaluate_attack(&m, &m, &images, &labels, Attack::pgd(0.06), 5).unwrap_err()
            });
            assert_eq!(err, expected, "at {threads} threads");
        }
    }
}

/// Every batch has the wrong channel count, and the ragged last batch
/// reports a different batch size: accuracy fails with the first batch's
/// error at every thread count and on every run.
#[test]
fn accuracy_error_is_the_first_failing_batchs() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let m = model(SEED);
    let images = Tensor::zeros(&[24, 2, 8, 8]);
    let labels = vec![0usize; 24];
    let expected = NnError::Tensor(TensorError::ShapeMismatch {
        op: "conv2d",
        lhs: vec![5, 2, 8, 8],
        rhs: vec![0, 1, 0, 0],
    });
    for threads in [1usize, 2, 4, 7] {
        for _ in 0..10 {
            let err = with_threads(threads, || m.accuracy(&images, &labels, 5).unwrap_err());
            assert_eq!(err, expected, "at {threads} threads");
        }
    }
}

#[test]
fn conv_forward_is_bit_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut m = model(SEED);
    let x = noisy_images(SEED);
    let reference = with_threads(1, || m.forward(&x, Mode::Eval).unwrap());
    for threads in [2usize, 4, 7] {
        let y = with_threads(threads, || m.forward(&x, Mode::Eval).unwrap());
        assert_eq!(y, reference, "conv forward differs at {threads} threads");
    }
}

/// The `exp_fig5`-style pipeline — train a small conv net, then sweep an
/// attack over ε — is bit-identical at 1, 2, 4 and 7 kernel-pool workers
/// (the name predates the 2- and 7-worker runs). Training exercises the
/// parallel GEMM/im2col kernels, the folded weight-gradient kernel and batch
/// norm's per-channel reductions; the sweep exercises pooled attack
/// sharding.
#[test]
fn training_and_epsilon_sweep_are_bit_identical_1_vs_4_threads() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut m = model(SEED);
            let images = noisy_images(SEED);
            let labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 2,
                lr: 0.05,
                batch_size: 8,
                ..TrainConfig::default()
            });
            trainer
                .fit(&mut m, &images, &labels, &mut rng::seeded(SEED ^ 0xF16))
                .unwrap();
            sweep_epsilons(
                &m,
                &m,
                &images,
                &labels,
                Attack::Fgsm { epsilon: 0.05 },
                &[0.03, 0.08],
                5,
            )
            .unwrap()
        })
    };
    let one = run(1);
    for threads in [2usize, 4, 7] {
        let many = run(threads);
        assert_eq!(one.len(), many.len());
        for ((e1, o1), (e, o)) in one.iter().zip(&many) {
            assert_eq!(e1.to_bits(), e.to_bits());
            assert_eq!(
                o1.clean_accuracy.to_bits(),
                o.clean_accuracy.to_bits(),
                "clean accuracy differs at eps {e1}, {threads} threads"
            );
            assert_eq!(
                o1.adversarial_accuracy.to_bits(),
                o.adversarial_accuracy.to_bits(),
                "adversarial accuracy differs at eps {e1}, {threads} threads"
            );
        }
    }
}

/// A VGG8 that maps in milliseconds, with several tiles per matrix.
fn vgg8() -> Sequential {
    archs::vgg8(10, 0.0625, &mut rng::seeded(SEED))
        .unwrap()
        .model
}

/// Bit patterns of every crossbar-mappable weight of `model`.
fn weight_bits(model: &mut Sequential) -> Vec<u32> {
    let mut bits = Vec::new();
    model.visit_state(&mut |name, t| {
        if name.ends_with(".weight") && t.rank() == 2 {
            bits.extend(t.as_slice().iter().map(|v| v.to_bits()));
        }
    });
    bits
}

/// Crossbar tiles are solved on the pool: every effective weight and the
/// mapping report are bit-identical at any worker count.
#[test]
fn crossbar_mapping_is_bit_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let software = vgg8();
    let config = CrossbarConfig::paper_default(16);
    let map = |threads: usize| {
        let (mut hardware, report) =
            with_threads(threads, || crossbar_variant(&software, &config).unwrap());
        (weight_bits(&mut hardware), report)
    };
    let reference = map(1);
    for threads in [2usize, 4, 7] {
        assert!(
            map(threads) == reference,
            "crossbar mapping differs at {threads} threads"
        );
    }
}

/// One relaxation sweep cannot settle, so every tile fails. `map_model`
/// returns the error of the first tile in `(bi, bj)` order at any worker
/// count and leaves the model's weights as they were.
#[test]
fn crossbar_mapping_error_is_the_first_tiles() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let config = CrossbarConfig {
        solver: SolverKind::Relaxation { sweeps: 1 },
        ..CrossbarConfig::paper_default(4)
    };
    let mut software = vgg8();
    let mut first = None;
    software.visit_state(&mut |name, t| {
        if first.is_none() && name.ends_with(".weight") && t.rank() == 2 {
            first = Some(t.clone());
        }
    });
    // the first matrix is the 4x27 stem conv: 7 tiles in one output block,
    // drawn from the chip's stream in order
    let w = first.unwrap();
    let (out_f, in_f) = (w.dims()[0], w.dims()[1]);
    assert!(out_f <= config.size && in_f > config.size);
    let w_max = w.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let mut stream = rng::seeded(config.seed);
    let mut tile_error = |bi: usize| {
        let (rows, cols) = (config.size.min(in_f - bi), out_f);
        let block: Vec<f32> = (0..rows * cols)
            .map(|idx| w.as_slice()[(idx % cols) * in_f + bi + idx / cols])
            .collect();
        CrossbarTile::program(&block, rows, cols, w_max, &config, &mut stream).unwrap_err()
    };
    let bits = |e: &CrossbarError| match e {
        CrossbarError::SolverDiverged {
            residual,
            iterations,
        } => (residual.to_bits(), *iterations),
        other => panic!("expected a diverged solve, got {other}"),
    };
    let first_tile = bits(&tile_error(0));
    assert_ne!(first_tile, bits(&tile_error(config.size)));
    let before = weight_bits(&mut software);
    for threads in [1usize, 4] {
        let mut model = software.clone();
        let err = with_threads(threads, || map_model(&mut model, &config)).unwrap_err();
        assert_eq!(bits(&err), first_tile, "error at {threads} threads");
        assert!(
            weight_bits(&mut model) == before,
            "failed mapping rewrote weights at {threads} threads"
        );
    }
}

#[test]
fn different_seeds_change_the_noise() {
    let a = noisy_images(SEED);
    let b = noisy_images(SEED + 1);
    assert_ne!(a, b, "distinct seeds produced identical corrupted inputs");
}

#[test]
fn sram_round_trip_is_seed_pure() {
    let a = noisy_images(SEED);
    let b = noisy_images(SEED);
    assert_eq!(a, b, "same seed produced different corrupted inputs");
}
