//! A train-or-load cache of the paper's networks.
//!
//! Every experiment binary needs the same trained VGG/ResNet checkpoints;
//! training them repeatedly would dominate wall-time. `train_or_load`
//! derives a cache key from the full configuration, loads the checkpoint if
//! present, and otherwise trains and saves it. Checkpoints are bit-exact
//! reproducible (seeded init, seeded shuffling, deterministic kernels), so
//! a cache hit and a fresh train produce identical models.

use ahw_datasets::{DatasetConfig, SyntheticCifar};
use ahw_nn::archs::{self, ModelSpec};
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_nn::{io as nn_io, NnError};
use ahw_tensor::rng;
use std::path::{Path, PathBuf};

/// Which of the paper's architectures to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchId {
    /// VGG8 (crossbar experiments, CIFAR-10).
    Vgg8,
    /// VGG16 (crossbar experiments, CIFAR-100).
    Vgg16,
    /// VGG19 (SRAM experiments).
    Vgg19,
    /// ResNet18 (SRAM experiments).
    ResNet18,
}

impl ArchId {
    /// Lower-case architecture name.
    pub fn name(&self) -> &'static str {
        match self {
            ArchId::Vgg8 => "vgg8",
            ArchId::Vgg16 => "vgg16",
            ArchId::Vgg19 => "vgg19",
            ArchId::ResNet18 => "resnet18",
        }
    }

    /// Builds the (untrained) spec.
    ///
    /// # Errors
    ///
    /// Propagates builder errors.
    pub fn build(&self, num_classes: usize, width: f32, seed: u64) -> Result<ModelSpec, NnError> {
        let mut r = rng::seeded(seed);
        match self {
            ArchId::Vgg8 => archs::vgg8(num_classes, width, &mut r),
            ArchId::Vgg16 => archs::vgg16(num_classes, width, &mut r),
            ArchId::Vgg19 => archs::vgg19(num_classes, width, &mut r),
            ArchId::ResNet18 => archs::resnet18(num_classes, width, &mut r),
        }
    }
}

/// Everything that determines a cached checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooConfig {
    /// Architecture.
    pub arch: ArchId,
    /// Channel-width multiplier (see `ahw_nn::archs`).
    pub width: f32,
    /// Dataset to train on (class count comes from here).
    pub dataset: DatasetConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl ZooConfig {
    /// Cache key encoding every reproducibility-relevant field.
    pub fn cache_key(&self) -> String {
        format!(
            "{}_c{}_w{:.4}_n{}_e{}_b{}_lr{:.4}_ds{:x}_s{:x}",
            self.arch.name(),
            self.dataset.num_classes,
            self.width,
            self.dataset.train_size,
            self.train.epochs,
            self.train.batch_size,
            self.train.lr,
            self.dataset.seed,
            self.seed,
        )
    }

    fn cache_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.ahwb", self.cache_key()))
    }
}

/// A trained model plus the dataset it was trained on.
#[derive(Debug)]
pub struct TrainedModel {
    /// The spec with trained weights.
    pub spec: ModelSpec,
    /// The dataset (same config the model was trained with). After a cache
    /// hit only its test split is rendered and `data.train()` is empty:
    /// training is the split's only reader, and the test split comes from
    /// its own stream, so it has the same bits either way.
    pub data: SyntheticCifar,
    /// Whether the checkpoint came from the cache.
    pub from_cache: bool,
    /// Test accuracy measured after load/train.
    pub test_accuracy: f32,
}

/// Loads the checkpoint for `config` from `cache_dir`, or trains it (saving
/// the checkpoint afterwards). Only a miss renders the training split.
///
/// # Errors
///
/// Propagates dataset/model/IO errors.
pub fn train_or_load(cache_dir: &Path, config: &ZooConfig) -> Result<TrainedModel, NnError> {
    std::fs::create_dir_all(cache_dir)
        .map_err(|e| NnError::BadConfig(format!("cannot create cache dir: {e}")))?;
    let path = config.cache_path(cache_dir);
    let from_cache = path.exists();
    let data = if from_cache {
        let test_size = config.dataset.test_size;
        SyntheticCifar::generate(&config.dataset.clone().with_sizes(0, test_size))
    } else {
        SyntheticCifar::generate(&config.dataset)
    };
    let mut spec = config
        .arch
        .build(config.dataset.num_classes, config.width, config.seed)?;
    if from_cache {
        nn_io::load_model(&mut spec.model, &path)?;
    } else {
        let mut trainer = Trainer::new(config.train.clone());
        trainer.fit(
            &mut spec.model,
            data.train().images(),
            data.train().labels(),
            &mut rng::seeded(config.seed ^ 0x7EA1),
        )?;
        nn_io::save_model(&mut spec.model, &path)?;
    }
    let test_accuracy = spec.model.accuracy(
        data.test().images(),
        data.test().labels(),
        config.train.batch_size.max(1),
    )?;
    Ok(TrainedModel {
        spec,
        data,
        from_cache,
        test_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::Mode;

    fn tiny_config() -> ZooConfig {
        ZooConfig {
            arch: ArchId::Vgg8,
            width: 0.0625,
            dataset: DatasetConfig {
                num_classes: 4,
                train_size: 64,
                test_size: 24,
                image_size: 16,
                noise_std: 0.05,
                max_shift: 1,
                distractor_strength: 0.3,
                seed: 5,
            },
            train: TrainConfig {
                epochs: 1,
                batch_size: 16,
                ..TrainConfig::default()
            },
            seed: 11,
        }
    }

    fn temp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ahw_zoo_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn vgg8_on_16px_inputs_works() {
        // width-scaled VGG8 pools 32→4; at 16px it pools to 2, still valid
        let cfg = tiny_config();
        let spec = cfg.arch.build(4, cfg.width, cfg.seed).unwrap();
        // 16x16 input flattens differently, so this asserts the *builder*
        // is 32px-specific: the zoo must use 32px datasets for real runs.
        assert_eq!(spec.name, "vgg8");
    }

    #[test]
    fn train_then_cache_hit_is_identical() {
        let dir = temp_cache("hit");
        let mut cfg = tiny_config();
        cfg.dataset.image_size = 32; // builders assume 32px inputs
        let mut first = train_or_load(&dir, &cfg).unwrap();
        assert!(!first.from_cache);
        let mut second = train_or_load(&dir, &cfg).unwrap();
        assert!(second.from_cache);
        // a hit renders no training split, and the same test split
        assert!(second.data.train().is_empty());
        let bits = |t: &ahw_tensor::Tensor| -> Vec<u32> {
            t.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let (test, hit_test) = (first.data.test(), second.data.test());
        assert_eq!(bits(hit_test.images()), bits(test.images()));
        assert_eq!(hit_test.labels(), test.labels());
        let x = first.data.test().images();
        let a = first.spec.model.forward(x, Mode::Eval).unwrap();
        let b = second.spec.model.forward(x, Mode::Eval).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_key_separates_configs() {
        let a = tiny_config();
        let mut b = tiny_config();
        b.seed = 12;
        assert_ne!(a.cache_key(), b.cache_key());
        let mut c = tiny_config();
        c.arch = ArchId::ResNet18;
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn arch_names() {
        assert_eq!(ArchId::Vgg19.name(), "vgg19");
        assert_eq!(ArchId::ResNet18.name(), "resnet18");
    }
}
