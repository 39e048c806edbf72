//! # ahw-datasets
//!
//! Synthetic, deterministic stand-ins for CIFAR-10 / CIFAR-100.
//!
//! The paper's experiments need labelled 3×32×32 RGB images with a train and
//! a held-out test split. Real CIFAR is unavailable in this offline
//! environment, so this crate generates a procedural classification task
//! with the properties the experiments rely on (see DESIGN.md §3):
//!
//! * every class has a distinctive *low-frequency colour field* plus a
//!   class-keyed *texture*, so convolutional networks learn it quickly;
//! * samples add Gaussian jitter, random amplitude scaling, and random
//!   translations, so the task does not collapse to template matching and
//!   test accuracy is meaningfully below 100 %;
//! * pixels live in `[0, 1]`, the domain adversarial perturbations are
//!   clipped to;
//! * everything derives from an explicit seed — two calls with the same
//!   [`DatasetConfig`] produce byte-identical data, at any worker count.
//!
//! ## Rendering
//!
//! A class prototype is nine 2-D sinusoids, three per channel, and a sample
//! is its prototype shifted by `(dx, dy)`, each within `max_shift`. So a
//! render only ever reads a component's sine at the shifted coordinates
//! `X, Y ∈ [-max_shift, image_size + max_shift)`. [`SyntheticCifar::generate`]
//! tabulates them once per class, shared by both splits, from the same
//! argument expression a per-pixel loop would evaluate, and a render looks
//! them up. Every pixel then takes the same IEEE operations in the same
//! order as that loop: the channel's offset first, then each component's
//! `amp · amp_scale · sin` in the prototype's order. Rust never fuses a
//! multiply and an add on its own, so the bits are the loop's.
//!
//! Images render in parallel on the [`ahw_tensor::pool`]. Each split draws
//! from one seeded stream, and every image takes a fixed number of draws
//! from it: its shift and amplitude scale, the distractor's class and
//! weight when distractors are on, and two per pixel for the Gaussian
//! jitter. A serial pass therefore copies the stream at each image's first
//! draw, and each image then renders from its own copy, in any order on any
//! thread, with the draws a serial render would have given it.
//!
//! ## Example
//!
//! ```
//! use ahw_datasets::{DatasetConfig, SyntheticCifar};
//!
//! let cfg = DatasetConfig::cifar10_like().with_sizes(128, 32);
//! let data = SyntheticCifar::generate(&cfg);
//! assert_eq!(data.train().len(), 128);
//! assert_eq!(data.test().len(), 32);
//! assert_eq!(data.train().images().dims(), &[128, 3, 32, 32]);
//! ```

use ahw_tensor::rng::{Rng, Xoshiro256};
use ahw_tensor::{pool, rng, Tensor};

/// Configuration for [`SyntheticCifar::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of classes (10 for the CIFAR-10 stand-in, 100 for CIFAR-100).
    pub num_classes: usize,
    /// Training samples (balanced across classes as evenly as possible).
    pub train_size: usize,
    /// Test samples.
    pub test_size: usize,
    /// Square image edge in pixels.
    pub image_size: usize,
    /// Standard deviation of per-pixel Gaussian jitter.
    pub noise_std: f32,
    /// Maximum absolute translation per sample, in pixels; at most
    /// `image_size` (see [`SyntheticCifar::generate`]).
    pub max_shift: usize,
    /// Per-sample mixing: each image blends in up to this fraction of a
    /// *different* class's prototype, placing samples between classes so the
    /// task has genuine decision-boundary structure (0 disables).
    pub distractor_strength: f32,
    /// Master seed; class prototypes and both splits derive from it.
    pub seed: u64,
}

impl DatasetConfig {
    /// A 10-class configuration mirroring CIFAR-10's shape.
    pub fn cifar10_like() -> Self {
        DatasetConfig {
            num_classes: 10,
            train_size: 2000,
            test_size: 500,
            image_size: 32,
            noise_std: 0.14,
            max_shift: 3,
            distractor_strength: 0.45,
            seed: 0xC1FA_0010,
        }
    }

    /// A 100-class configuration mirroring CIFAR-100's shape.
    pub fn cifar100_like() -> Self {
        DatasetConfig {
            num_classes: 100,
            train_size: 4000,
            test_size: 1000,
            image_size: 32,
            noise_std: 0.12,
            max_shift: 3,
            distractor_strength: 0.4,
            seed: 0xC1FA_0100,
        }
    }

    /// Returns the config with different split sizes (builder style).
    pub fn with_sizes(mut self, train: usize, test: usize) -> Self {
        self.train_size = train;
        self.test_size = test;
        self
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One split: images as an `(N, 3, S, S)` tensor in `[0, 1]` plus labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    images: Tensor,
    labels: Vec<usize>,
}

impl Split {
    /// The image tensor, `(N, 3, S, S)`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// Class label per image.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Copies out samples `[lo, hi)` as a batch tensor plus labels.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > len()`.
    pub fn batch(&self, lo: usize, hi: usize) -> (Tensor, Vec<usize>) {
        assert!(lo <= hi && hi <= self.len());
        let n = self.len().max(1);
        let item = self.images.len() / n;
        let mut dims = self.images.dims().to_vec();
        dims[0] = hi - lo;
        let data = self.images.as_slice()[lo * item..hi * item].to_vec();
        (
            Tensor::from_vec(data, &dims).expect("batch volume matches"),
            self.labels[lo..hi].to_vec(),
        )
    }

    /// A new split containing only the first `n` samples.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn take(&self, n: usize) -> Split {
        let (images, labels) = self.batch(0, n);
        Split { images, labels }
    }
}

/// The generated dataset: a train and a test split over shared class
/// prototypes.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticCifar {
    train: Split,
    test: Split,
    num_classes: usize,
}

/// Per-class generative parameters — a handful of 2-D sinusoidal components
/// per colour channel — plus each component's sine tabulated over every
/// shifted coordinate a render reads.
struct ClassProto {
    /// (channel, amplitude, fx, fy, phase) components.
    components: Vec<(usize, f32, f32, f32, f32)>,
    /// Per-channel DC offset — gives each class a colour cast.
    offsets: [f32; 3],
    /// Image edge the table is for.
    size: usize,
    /// Largest shift the table covers.
    shift: usize,
    /// Component `k`'s sine at the shifted coordinate `(X, Y)`, both in
    /// `[-shift, size + shift)`, at `(k·side + Y + shift)·side + X + shift`
    /// with `side = size + 2·shift`.
    sines: Vec<f32>,
}

impl ClassProto {
    /// Draws a class's components and offsets from `rng`, then tabulates
    /// their sines for renders of `size`-pixel images at shifts up to
    /// `shift`.
    fn sample<R: Rng>(rng: &mut R, size: usize, shift: usize) -> Self {
        let mut components = Vec::new();
        for channel in 0..3 {
            // two low-frequency fields + one texture per channel
            for (freq_lo, freq_hi, amp) in
                [(0.5f32, 2.0f32, 0.25f32), (0.5, 2.0, 0.2), (3.0, 6.0, 0.12)]
            {
                components.push((
                    channel,
                    amp * rng.gen_range(0.6f32..1.4),
                    rng.gen_range(freq_lo..freq_hi) * if rng.gen_bool(0.5) { -1.0f32 } else { 1.0 },
                    rng.gen_range(freq_lo..freq_hi) * if rng.gen_bool(0.5) { -1.0f32 } else { 1.0 },
                    rng.gen_range(0.0..std::f32::consts::TAU),
                ));
            }
        }
        let offsets = [
            rng.gen_range(0.35f32..0.65),
            rng.gen_range(0.35f32..0.65),
            rng.gen_range(0.35f32..0.65),
        ];
        let inv = std::f32::consts::TAU / size as f32;
        let side = size + 2 * shift;
        let lo = -(shift as isize);
        let mut sines = Vec::with_capacity(components.len() * side * side);
        for &(_, _, fx, fy, phase) in &components {
            for y in 0..side {
                let fy_term = fy * ((y as isize + lo) as f32) * inv;
                for x in 0..side {
                    let arg = fx * ((x as isize + lo) as f32) * inv + fy_term + phase;
                    sines.push(arg.sin());
                }
            }
        }
        ClassProto {
            components,
            offsets,
            size,
            shift,
            sines,
        }
    }

    /// Renders the prototype shifted by `(dx, dy)`, each within the table's
    /// shift, at amplitude scale `amp_scale` into the `3·size²` pixels of
    /// `out`.
    fn render(&self, dx: isize, dy: isize, amp_scale: f32, out: &mut [f32]) {
        let size = self.size;
        let side = size + 2 * self.shift;
        let x0 = (dx + self.shift as isize) as usize;
        let y0 = (dy + self.shift as isize) as usize;
        for (channel, plane) in out.chunks_exact_mut(size * size).enumerate() {
            plane.fill(self.offsets[channel]);
        }
        for (&(channel, amp, ..), table) in self
            .components
            .iter()
            .zip(self.sines.chunks_exact(side * side))
        {
            let scaled = amp * amp_scale;
            let plane = &mut out[channel * size * size..(channel + 1) * size * size];
            for (y, row) in plane.chunks_exact_mut(size).enumerate() {
                let sines = &table[(y + y0) * side + x0..][..size];
                for (v, &s) in row.iter_mut().zip(sines) {
                    *v += scaled * s;
                }
            }
        }
    }
}

/// Draws every image of a split takes from the split's stream: its shift
/// and amplitude scale (3), the distractor's class and weight (2, when
/// distractors are on), and two per pixel for the jitter. Integer and float
/// `gen_range` draws each take one `next_u64`.
fn draws_per_image(config: &DatasetConfig) -> usize {
    let distractor = if has_distractor(config) { 2 } else { 0 };
    3 + distractor + 2 * 3 * config.image_size * config.image_size
}

fn has_distractor(config: &DatasetConfig) -> bool {
    config.distractor_strength > 0.0 && config.num_classes > 1
}

impl SyntheticCifar {
    /// Generates the dataset described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` or `image_size` is zero, or if `max_shift`
    /// exceeds `image_size`. That bound keeps each class's sine table at
    /// most 9 components × `(3·image_size)²` floats.
    pub fn generate(config: &DatasetConfig) -> Self {
        assert!(config.num_classes > 0, "num_classes must be positive");
        assert!(config.image_size > 0, "image_size must be positive");
        assert!(
            config.max_shift <= config.image_size,
            "max_shift must not exceed image_size"
        );
        let mut proto_rng = rng::seeded(config.seed);
        let protos: Vec<ClassProto> = (0..config.num_classes)
            .map(|_| ClassProto::sample(&mut proto_rng, config.image_size, config.max_shift))
            .collect();
        let train = Self::render_split(
            config,
            &protos,
            config.train_size,
            config.seed.wrapping_add(1),
        );
        let test = Self::render_split(
            config,
            &protos,
            config.test_size,
            config.seed.wrapping_add(2),
        );
        SyntheticCifar {
            train,
            test,
            num_classes: config.num_classes,
        }
    }

    /// Renders `n` images from the split stream seeded with `seed`: a serial
    /// pass copies the stream at each image's first draw, then the images
    /// render in parallel, each from its copy.
    fn render_split(config: &DatasetConfig, protos: &[ClassProto], n: usize, seed: u64) -> Split {
        let size = config.image_size;
        let item = 3 * size * size;
        let draws = draws_per_image(config);
        let mut stream = rng::seeded(seed);
        let starts: Vec<Xoshiro256> = (0..n)
            .map(|_| {
                let start = stream.clone();
                for _ in 0..draws {
                    stream.next_u64();
                }
                start
            })
            .collect();
        let mut images = vec![0.0f32; n * item];
        pool::par_row_chunks_mut(&mut images, item, pool::min_rows(item), |first, block| {
            let mut distractor_buf = vec![0.0f32; item];
            for (i, image) in (first..).zip(block.chunks_exact_mut(item)) {
                let mut rng_ = starts[i].clone();
                Self::render_image(config, protos, i, &mut rng_, image, &mut distractor_buf);
            }
        });
        Split {
            images: Tensor::from_vec(images, &[n, 3, size, size]).expect("volume matches"),
            labels: (0..n).map(|i| i % config.num_classes).collect(),
        }
    }

    /// Renders image `i` of a split into `out`, taking exactly
    /// [`draws_per_image`] draws from `rng_`.
    fn render_image(
        config: &DatasetConfig,
        protos: &[ClassProto],
        i: usize,
        rng_: &mut Xoshiro256,
        out: &mut [f32],
        distractor_buf: &mut [f32],
    ) {
        let label = i % config.num_classes;
        let shift = config.max_shift as isize;
        let dx = rng_.gen_range(-shift..=shift);
        let dy = rng_.gen_range(-shift..=shift);
        let amp = rng_.gen_range(0.8f32..1.2);
        protos[label].render(dx, dy, amp, out);
        // blend in a competing class so samples sit near real decision
        // boundaries (otherwise the task saturates and gradients vanish)
        if has_distractor(config) {
            let mut other = rng_.gen_range(0..config.num_classes - 1);
            if other >= label {
                other += 1;
            }
            let weight = rng_.gen_range(0.0..config.distractor_strength);
            protos[other].render(dx, dy, amp, distractor_buf);
            for (v, d) in out.iter_mut().zip(distractor_buf.iter()) {
                *v = (1.0 - weight) * *v + weight * d;
            }
        }
        for v in out.iter_mut() {
            let u1: f32 = rng_.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng_.gen_range(0.0f32..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            *v = (*v + config.noise_std * g).clamp(0.0, 1.0);
        }
    }

    /// The training split.
    pub fn train(&self) -> &Split {
        &self.train
    }

    /// The held-out test split.
    pub fn test(&self) -> &Split {
        &self.test
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that pin the process-global worker count.
    static THREADS_LOCK: Mutex<()> = Mutex::new(());

    /// Takes [`THREADS_LOCK`]; a test that failed while holding it does not
    /// fail the others.
    fn serial() -> MutexGuard<'static, ()> {
        THREADS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The per-pixel loop a table render must equal bit for bit: every
    /// component's sine evaluated at every pixel of the shifted image.
    fn oracle_render(
        proto: &ClassProto,
        size: usize,
        dx: isize,
        dy: isize,
        amp_scale: f32,
        out: &mut [f32],
    ) {
        let inv = std::f32::consts::TAU / size as f32;
        for (channel, plane) in out.chunks_mut(size * size).enumerate() {
            for v in plane.iter_mut() {
                *v = proto.offsets[channel];
            }
        }
        for &(channel, amp, fx, fy, phase) in &proto.components {
            let plane = &mut out[channel * size * size..(channel + 1) * size * size];
            for y in 0..size {
                let fy_term = fy * ((y as isize + dy) as f32) * inv;
                for x in 0..size {
                    let arg = fx * ((x as isize + dx) as f32) * inv + fy_term + phase;
                    plane[y * size + x] += amp * amp_scale * arg.sin();
                }
            }
        }
    }

    /// The serial generator over [`oracle_render`]: each split's images
    /// render one after another from the split's one stream.
    fn oracle_generate(config: &DatasetConfig) -> SyntheticCifar {
        let mut proto_rng = rng::seeded(config.seed);
        let protos: Vec<ClassProto> = (0..config.num_classes)
            .map(|_| ClassProto::sample(&mut proto_rng, config.image_size, config.max_shift))
            .collect();
        let split = |n: usize, seed: u64| -> Split {
            let size = config.image_size;
            let item = 3 * size * size;
            let mut rng_ = rng::seeded(seed);
            let mut images = vec![0.0f32; n * item];
            let mut labels = Vec::with_capacity(n);
            let shift = config.max_shift as isize;
            let mut distractor_buf = vec![0.0f32; item];
            for (i, chunk) in images.chunks_mut(item).enumerate() {
                let label = i % config.num_classes;
                labels.push(label);
                let dx = rng_.gen_range(-shift..=shift);
                let dy = rng_.gen_range(-shift..=shift);
                let amp = rng_.gen_range(0.8f32..1.2);
                oracle_render(&protos[label], size, dx, dy, amp, chunk);
                if config.distractor_strength > 0.0 && config.num_classes > 1 {
                    let mut other = rng_.gen_range(0..config.num_classes - 1);
                    if other >= label {
                        other += 1;
                    }
                    let weight = rng_.gen_range(0.0..config.distractor_strength);
                    oracle_render(&protos[other], size, dx, dy, amp, &mut distractor_buf);
                    for (v, d) in chunk.iter_mut().zip(&distractor_buf) {
                        *v = (1.0 - weight) * *v + weight * d;
                    }
                }
                for v in chunk.iter_mut() {
                    let u1: f32 = rng_.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng_.gen_range(0.0f32..1.0);
                    let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                    *v = (*v + config.noise_std * g).clamp(0.0, 1.0);
                }
            }
            Split {
                images: Tensor::from_vec(images, &[n, 3, size, size]).unwrap(),
                labels,
            }
        };
        SyntheticCifar {
            train: split(config.train_size, config.seed.wrapping_add(1)),
            test: split(config.test_size, config.seed.wrapping_add(2)),
            num_classes: config.num_classes,
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Bit-level equality of two datasets (`==` on f32 would accept -0.0
    /// for 0.0).
    fn assert_same_bits(a: &SyntheticCifar, b: &SyntheticCifar, context: &str) {
        for (name, sa, sb) in [
            ("train", a.train(), b.train()),
            ("test", a.test(), b.test()),
        ] {
            assert_eq!(sa.labels(), sb.labels(), "{context}: {name} labels");
            assert_eq!(
                sa.images().dims(),
                sb.images().dims(),
                "{context}: {name} dims"
            );
            assert!(
                bits(sa.images().as_slice()) == bits(sb.images().as_slice()),
                "{context}: {name} image bits differ"
            );
        }
    }

    /// Table rendering equals the per-pixel loop bit for bit: every class's
    /// render at every shift in range, and whole datasets, over shifts 0 and
    /// 3, distractors off and on, 1, 10 and 100 classes and three sizes.
    #[test]
    fn table_rendering_matches_the_per_pixel_oracle() {
        for max_shift in [0usize, 3] {
            for distractor_strength in [0.0f32, 0.45] {
                for num_classes in [1usize, 10, 100] {
                    for image_size in [7usize, 16, 32] {
                        let config = DatasetConfig {
                            num_classes,
                            train_size: num_classes + 13,
                            test_size: 9,
                            image_size,
                            noise_std: 0.14,
                            max_shift,
                            distractor_strength,
                            seed: 0xDA7A ^ (num_classes * image_size + max_shift) as u64,
                        };
                        let context = format!("{config:?}");
                        let mut proto_rng = rng::seeded(config.seed);
                        let item = 3 * image_size * image_size;
                        let (mut table, mut oracle) = (vec![0.0f32; item], vec![0.0f32; item]);
                        let shift = max_shift as isize;
                        for _ in 0..num_classes.min(3) {
                            let proto = ClassProto::sample(&mut proto_rng, image_size, max_shift);
                            for dy in -shift..=shift {
                                for dx in -shift..=shift {
                                    proto.render(dx, dy, 1.13, &mut table);
                                    oracle_render(&proto, image_size, dx, dy, 1.13, &mut oracle);
                                    assert!(
                                        bits(&table) == bits(&oracle),
                                        "{context}: render at ({dx}, {dy}) differs"
                                    );
                                }
                            }
                        }
                        let generated = SyntheticCifar::generate(&config);
                        assert_same_bits(&generated, &oracle_generate(&config), &context);
                    }
                }
            }
        }
    }

    /// Images render in parallel from copies of their split's stream, so
    /// the bits do not depend on the worker count.
    #[test]
    fn generation_is_bit_identical_across_thread_counts() {
        let _guard = serial();
        let config = DatasetConfig {
            train_size: 400,
            test_size: 90,
            image_size: 16,
            ..DatasetConfig::cifar10_like()
        };
        let generate_at = |threads: usize| {
            pool::set_thread_override(Some(threads));
            let out = SyntheticCifar::generate(&config);
            pool::set_thread_override(None);
            out
        };
        let reference = generate_at(1);
        for threads in [2usize, 4, 7] {
            let out = generate_at(threads);
            assert_same_bits(&reference, &out, &format!("{threads} threads"));
        }
    }

    #[test]
    #[should_panic(expected = "max_shift must not exceed image_size")]
    fn shifts_beyond_the_image_size_panic() {
        let config = DatasetConfig {
            max_shift: 17,
            ..small_cfg()
        };
        let _ = SyntheticCifar::generate(&config);
    }

    fn small_cfg() -> DatasetConfig {
        DatasetConfig {
            num_classes: 4,
            train_size: 40,
            test_size: 12,
            image_size: 16,
            noise_std: 0.05,
            max_shift: 2,
            distractor_strength: 0.3,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticCifar::generate(&small_cfg());
        let b = SyntheticCifar::generate(&small_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticCifar::generate(&small_cfg());
        let b = SyntheticCifar::generate(&small_cfg().with_seed(8));
        assert_ne!(a, b);
    }

    #[test]
    fn pixels_are_in_unit_range() {
        let d = SyntheticCifar::generate(&small_cfg());
        assert!(d.train().images().min() >= 0.0);
        assert!(d.train().images().max() <= 1.0);
    }

    #[test]
    fn labels_are_balanced_and_in_range() {
        let d = SyntheticCifar::generate(&small_cfg());
        let mut counts = [0usize; 4];
        for &l in d.train().labels() {
            assert!(l < 4);
            counts[l] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn classes_are_visually_distinct() {
        // mean inter-class distance must exceed mean intra-class distance;
        // compare with translations disabled since toroidal shifts decorrelate
        // raw pixels within a class (the convnet is shift-tolerant, L2 isn't)
        let mut cfg = small_cfg();
        cfg.max_shift = 0;
        let d = SyntheticCifar::generate(&cfg);
        let images = d.train().images().as_slice();
        let item = 3 * 16 * 16;
        let dist = |a: usize, b: usize| -> f32 {
            images[a * item..(a + 1) * item]
                .iter()
                .zip(&images[b * item..(b + 1) * item])
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
        };
        // samples i and i+4 share a class (labels cycle mod 4)
        let intra = (0..8).map(|i| dist(i, i + 4)).sum::<f32>() / 8.0;
        let inter = (0..8).map(|i| dist(i, i + 1)).sum::<f32>() / 8.0;
        assert!(
            inter > intra * 1.5,
            "inter {inter} should exceed intra {intra}"
        );
    }

    #[test]
    fn train_and_test_differ_but_share_classes() {
        let d = SyntheticCifar::generate(&small_cfg());
        assert_eq!(d.train().labels()[0], d.test().labels()[0]);
        assert_ne!(
            d.train().images().as_slice()[..100],
            d.test().images().as_slice()[..100]
        );
    }

    #[test]
    fn batch_extracts_correct_slice() {
        let d = SyntheticCifar::generate(&small_cfg());
        let (images, labels) = d.train().batch(4, 8);
        assert_eq!(images.dims(), &[4, 3, 16, 16]);
        assert_eq!(labels, &d.train().labels()[4..8]);
        let item = 3 * 16 * 16;
        assert_eq!(
            images.as_slice()[0..item],
            d.train().images().as_slice()[4 * item..5 * item]
        );
    }

    #[test]
    fn take_truncates() {
        let d = SyntheticCifar::generate(&small_cfg());
        let t = d.train().take(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.labels(), &d.train().labels()[..5]);
    }

    #[test]
    fn hundred_class_config_generates() {
        let cfg = DatasetConfig::cifar100_like().with_sizes(200, 50);
        let d = SyntheticCifar::generate(&cfg);
        assert_eq!(d.num_classes(), 100);
        assert!(d.train().labels().contains(&99));
    }

    /// End-to-end learnability: a small conv net must fit the synthetic task
    /// well above chance — the property every downstream experiment relies
    /// on. (Kept small so debug-mode tests stay fast.)
    #[test]
    fn small_convnet_learns_the_task() {
        use ahw_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
        use ahw_nn::train::{TrainConfig, Trainer};
        use ahw_nn::Sequential;

        let cfg = DatasetConfig {
            num_classes: 4,
            train_size: 160,
            test_size: 60,
            image_size: 16,
            noise_std: 0.05,
            max_shift: 1,
            distractor_strength: 0.3,
            seed: 21,
        };
        let data = SyntheticCifar::generate(&cfg);
        let mut rng = ahw_tensor::rng::seeded(1);
        let mut model = Sequential::new();
        model.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng).unwrap());
        model.push(ReLU::new());
        model.push(MaxPool2d::new(4, 4));
        model.push(Flatten::new());
        model.push(Linear::new(8 * 4 * 4, 4, &mut rng).unwrap());
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 6,
            lr: 0.05,
            batch_size: 16,
            ..TrainConfig::default()
        });
        trainer
            .fit(
                &mut model,
                data.train().images(),
                data.train().labels(),
                &mut rng,
            )
            .unwrap();
        let acc = model
            .accuracy(data.test().images(), data.test().labels(), 30)
            .unwrap();
        assert!(acc > 0.6, "test accuracy {acc} not above chance enough");
    }
}
