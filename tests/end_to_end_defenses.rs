//! End-to-end integration of the defense baselines against a trained conv
//! net — the Fig. 8(b,c) comparison machinery in miniature, spanning
//! `ahw-defenses`, `ahw-attacks` and `ahw-crossbar`.

use adversarial_hw::prelude::*;
use ahw_defenses::{adversarial_fit, AdvTrainConfig, PixelDiscretization, Quanos};
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
        seed: 99,
    };
    let data = SyntheticCifar::generate(&cfg);
    let spec = archs::vgg8(4, 0.0625, &mut rng::seeded(5)).unwrap();
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
        &mut rng::seeded(6),
    )
    .unwrap();
    let (x, y) = data.test().batch(0, 60);
    (model, x, y)
}

#[test]
fn every_defense_is_evaluable_under_attack() {
    let (software, x, y) = trained_setup();
    let attack = Attack::fgsm(10.0 / 255.0);
    let base = evaluate_attack(&software, &software, &x, &y, attack, 30).unwrap();

    // 4-bit discretization
    let disc = PixelDiscretization::new(4).unwrap().defend(&software);
    let d = evaluate_attack(&disc, &disc, &x, &y, attack, 30).unwrap();
    // discretization must not destroy clean accuracy
    assert!(
        d.clean_accuracy > base.clean_accuracy - 0.15,
        "discretization clean collapse: {} vs {}",
        d.clean_accuracy,
        base.clean_accuracy
    );

    // QUANOS
    let (quanos, sens) = Quanos::default().apply(&software, &x, &y).unwrap();
    assert_eq!(sens.len(), software.len());
    let q = evaluate_attack(&quanos, &quanos, &x, &y, attack, 30).unwrap();
    assert!((0.0..=1.0).contains(&q.adversarial_accuracy));

    // crossbar SH
    let (hardware, _) = crossbar_variant(&software, &CrossbarConfig::paper_default(32)).unwrap();
    let xb = evaluate_mode(&software, &hardware, AttackMode::Sh, &x, &y, attack, 30).unwrap();

    // all outcomes are valid and comparable on the same scale
    for o in [base, d, q, xb] {
        assert!(o.adversarial_accuracy <= o.clean_accuracy + 1e-6);
        assert!(o.adversarial_loss() >= -1e-3);
    }
}

#[test]
fn adversarial_training_composes_with_conv_models() {
    let (mut model, x, y) = trained_setup();
    let attack = Attack::fgsm(10.0 / 255.0);
    let before = evaluate_attack(&model, &model, &x, &y, attack, 30).unwrap();
    // fine-tune adversarially for a couple of epochs
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 2,
        lr: 0.01,
        batch_size: 32,
        ..TrainConfig::default()
    });
    // reuse the test split as a stand-in train set: this test checks the
    // plumbing (conv nets + hooks + attack loop), not generalization
    adversarial_fit(
        &mut model,
        &mut trainer,
        &x,
        &y,
        &AdvTrainConfig {
            epsilon: 10.0 / 255.0,
            ..AdvTrainConfig::default()
        },
        &mut rng::seeded(7),
    )
    .unwrap();
    let after = evaluate_attack(&model, &model, &x, &y, attack, 30).unwrap();
    // trained on these exact points: adversarial accuracy must not regress
    assert!(
        after.adversarial_accuracy + 0.05 >= before.adversarial_accuracy,
        "adv-finetune regressed: {} vs {}",
        after.adversarial_accuracy,
        before.adversarial_accuracy
    );
}

#[test]
fn random_noise_is_a_floor_for_real_attacks() {
    let (software, x, y) = trained_setup();
    let eps = 16.0 / 255.0;
    let rand_outcome =
        evaluate_attack(&software, &software, &x, &y, Attack::random(eps), 30).unwrap();
    let fgsm_outcome =
        evaluate_attack(&software, &software, &x, &y, Attack::fgsm(eps), 30).unwrap();
    assert!(
        fgsm_outcome.adversarial_accuracy <= rand_outcome.adversarial_accuracy + 0.05,
        "fgsm ({}) should be at least as damaging as random noise ({})",
        fgsm_outcome.adversarial_accuracy,
        rand_outcome.adversarial_accuracy
    );
}
