//! Checkpoint compatibility across every architecture: build → perturb →
//! save → rebuild → load → identical outputs, plus failure paths.

use ahw_core::zoo::ArchId;
use ahw_nn::io::{load_model, save_model};
use ahw_nn::{Mode, NnError};
use ahw_tensor::rng;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ahw_ckpt_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn every_architecture_round_trips() {
    for (arch, classes) in [
        (ArchId::Vgg8, 10usize),
        (ArchId::Vgg16, 10),
        (ArchId::Vgg19, 10),
        (ArchId::ResNet18, 10),
    ] {
        let path = tmp(&format!("{}.ahwb", arch.name()));
        let mut original = arch.build(classes, 0.0625, 1).unwrap();
        // make weights non-initial so the test is not vacuous
        original
            .model
            .visit_params(&mut |p| p.value.map_in_place(|v| v * 1.5 + 0.01));
        save_model(&mut original.model, &path).unwrap();

        let mut restored = arch.build(classes, 0.0625, 999).unwrap();
        load_model(&mut restored.model, &path).unwrap();
        let x = rng::normal(&[2, 3, 32, 32], 0.3, 0.2, &mut rng::seeded(2));
        assert_eq!(
            original.model.forward(&x, Mode::Eval).unwrap(),
            restored.model.forward(&x, Mode::Eval).unwrap(),
            "{} round trip mismatch",
            arch.name()
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn cross_architecture_load_is_rejected() {
    let path = tmp("cross_arch.ahwb");
    let mut vgg = ArchId::Vgg8.build(10, 0.0625, 1).unwrap();
    save_model(&mut vgg.model, &path).unwrap();
    let mut resnet = ArchId::ResNet18.build(10, 0.0625, 1).unwrap();
    assert!(matches!(
        load_model(&mut resnet.model, &path),
        Err(NnError::CheckpointMismatch(_))
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn different_width_load_is_rejected() {
    let path = tmp("width.ahwb");
    let mut narrow = ArchId::Vgg8.build(10, 0.0625, 1).unwrap();
    save_model(&mut narrow.model, &path).unwrap();
    let mut wide = ArchId::Vgg8.build(10, 0.125, 1).unwrap();
    assert!(matches!(
        load_model(&mut wide.model, &path),
        Err(NnError::CheckpointMismatch(_))
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_checkpoint_is_io_error() {
    let path = tmp("corrupt.ahwb");
    std::fs::write(&path, b"AHWBgarbagegarbage").unwrap();
    let mut model = ArchId::Vgg8.build(10, 0.0625, 1).unwrap();
    let err = load_model(&mut model.model, &path).unwrap_err();
    assert!(matches!(err, NnError::Tensor(_)));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn summary_lists_every_layer() {
    let mut spec = ArchId::Vgg8.build(10, 0.0625, 1).unwrap();
    let text = spec.model.summary();
    assert_eq!(text.lines().count(), spec.model.len() + 1);
    assert!(text.contains("conv2d"));
    assert!(text.contains("total:"));
    // parameter total in summary equals param_count
    let total: usize = text
        .lines()
        .last()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(total, spec.model.param_count());
}
