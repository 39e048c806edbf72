use crate::{BitErrorModel, HybridMemoryConfig};
use ahw_nn::ActivationHook;
use ahw_telemetry as telemetry;
use ahw_tensor::quant::{self, QuantParams};
use ahw_tensor::rng::{self, GeometricSkip};
use ahw_tensor::{Tensor, Workspace};

/// Individual bits flipped by the 6T error model — a pure function of the
/// stored words and the injector seed, so invariant in the thread count.
static BIT_FLIPS: telemetry::LazyCounter = telemetry::LazyCounter::new("sram.injector.bit_flips");
/// Words whose stored pattern changed during a round trip.
static WORDS_FLIPPED: telemetry::LazyCounter =
    telemetry::LazyCounter::new("sram.injector.words_flipped");
/// Words stored through the hybrid memory (flipped or not).
static WORDS_STORED: telemetry::LazyCounter =
    telemetry::LazyCounter::new("sram.injector.words_stored");
/// Geometric gap draws consumed by the sparse-event pass — the injector's
/// total RNG work, O(flips) instead of one draw per 6T bit.
static SKIP_DRAWS: telemetry::LazyCounter = telemetry::LazyCounter::new("sram.injector.skip_draws");

/// Stochastic bit-error noise source for one activation (or weight) memory.
///
/// `apply` models a store-then-load round trip through a hybrid 8T-6T
/// memory: values are quantized to 8-bit words (range fitted per tensor, as
/// a dynamic fixed-point memory controller would), every 6T-held bit flips
/// independently with the voltage-dependent error rate, and the corrupted
/// words are dequantized.
///
/// ## Sparse-event sampling
///
/// The per-bit Bernoulli trials are *not* drawn one by one. The 6T bits of
/// the whole tensor form one virtual sequence of `words × k` trials
/// (`k` = 6T bits per word); a [`GeometricSkip`] sampler jumps straight
/// from flip to flip, so RNG work is O(flips) instead of O(bits) and only
/// flipped words are touched. Trial `pos` maps to word `pos / k`, bit
/// `pos % k` of the 6T mask, and positions strictly increase, so each bit
/// is flipped at most once — exactly the per-bit Bernoulli distribution.
///
/// Implements [`ahw_nn::ActivationHook`], so it can be installed at any
/// noise site of a model. The injector holds no mutable state: the noise is
/// a pure function of the constructor seed and the stored word pattern
/// (the codes are hashed into an [`rng::stream`] id during the fused
/// quantize pass), so hooks shared across parallel evaluation workers
/// corrupt identically regardless of call order or thread scheduling.
#[derive(Debug, Clone, Copy)]
pub struct BitErrorInjector {
    config: HybridMemoryConfig,
    ber: f32,
    seed: u64,
}

impl BitErrorInjector {
    /// Creates an injector for one memory operating point.
    pub fn new(config: HybridMemoryConfig, model: &BitErrorModel, seed: u64) -> Self {
        BitErrorInjector {
            config,
            ber: config.bit_error_rate(model),
            seed,
        }
    }

    /// The memory operating point.
    pub fn config(&self) -> HybridMemoryConfig {
        self.config
    }

    /// The per-bit error rate in effect.
    pub fn bit_error_rate(&self) -> f32 {
        self.ber
    }

    /// One store/load round trip through the hybrid memory, for use outside
    /// hook contexts — e.g. corrupting a *weight* tensor once at load time
    /// for the weights ablation (`ahw_core`'s `apply_weight_noise_plan`).
    /// Runs [`BitErrorInjector::corrupt_into`] over a throwaway arena; hot
    /// loops should call that directly.
    pub fn corrupt(&self, x: &Tensor) -> Tensor {
        self.corrupt_into(x, &mut Workspace::new())
    }

    /// One store/load round trip with workspace-backed buffers: the code
    /// buffer is checked out of (and recycled into) `ws`, and the returned
    /// tensor's storage is a `ws` buffer the caller recycles downstream —
    /// zero heap allocations once the arena is warm.
    pub fn corrupt_into(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let _span = telemetry::span_labeled("sram.injector.corrupt", || self.config.describe());
        let params = Self::fit_8bit(x);
        let mut codes = ws.take_u8(x.len());
        let h = quant::quantize_with_into(x.as_slice(), params, &mut codes);
        WORDS_STORED.add(codes.len() as u64);
        self.inject_sparse(&mut codes, h);
        let mut out = ws.take(x.len());
        quant::dequantize_into(&codes, params, &mut out);
        ws.recycle_u8(codes);
        Tensor::from_vec(out, x.shape().dims()).expect("length preserved by round trip")
    }

    /// Range-fitted 8-bit parameters for one stored tensor.
    fn fit_8bit(x: &Tensor) -> QuantParams {
        match QuantParams::fit(x, 8) {
            Ok(p) => p,
            // only fails on bits outside 1..=8, which 8 is not
            Err(_) => unreachable!("8-bit quantization is always valid"),
        }
    }

    /// Sparse-event flip pass over the stored words. `h` is the content
    /// hash of `codes`; together with the injector seed it keys the noise
    /// stream, keeping the noise pure in (seed, content).
    fn inject_sparse(&self, codes: &mut [u8], h: u64) {
        let mask = self.config.word().six_t_mask();
        let k = u64::from(mask.count_ones());
        if k == 0 || self.ber <= 0.0 || codes.is_empty() {
            return;
        }
        let total = codes.len() as u64 * k;
        let skip = GeometricSkip::new(f64::from(self.ber));
        let mut rng = rng::stream(self.seed, h);
        let (mut bits_flipped, mut words_flipped, mut draws) = (0u64, 0u64, 0u64);
        let mut last_word = u64::MAX;
        let mut pos = 0u64;
        loop {
            draws += 1;
            pos = pos.saturating_add(skip.next_gap(&mut rng));
            if pos >= total {
                break;
            }
            let word = pos / k;
            codes[word as usize] ^= nth_set_bit(mask, (pos % k) as u32);
            bits_flipped += 1;
            if word != last_word {
                words_flipped += 1;
                last_word = word;
            }
            pos += 1;
        }
        BIT_FLIPS.add(bits_flipped);
        WORDS_FLIPPED.add(words_flipped);
        SKIP_DRAWS.add(draws);
    }
}

/// The `n`-th set bit of `mask` (LSB-first), as a one-bit mask.
/// Requires `n < mask.count_ones()`.
fn nth_set_bit(mask: u8, mut n: u32) -> u8 {
    let mut bit = mask;
    loop {
        let lowest = bit & bit.wrapping_neg();
        if n == 0 {
            return lowest;
        }
        n -= 1;
        bit ^= lowest;
    }
}

impl ActivationHook for BitErrorInjector {
    fn apply(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.corrupt_into(x, ws)
    }

    fn describe(&self) -> String {
        format!(
            "bit-error noise {} (ber {:.2e})",
            self.config.describe(),
            self.ber
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HybridWordConfig;
    use ahw_tensor::quant::QTensor;

    fn injector(eight_t: u8, six_t: u8, vdd: f32, seed: u64) -> BitErrorInjector {
        let cfg =
            HybridMemoryConfig::new(HybridWordConfig::new(eight_t, six_t).unwrap(), vdd).unwrap();
        BitErrorInjector::new(cfg, &BitErrorModel::srinivasan22nm(), seed)
    }

    #[test]
    fn noise_free_word_is_pure_quantization() {
        let inj = injector(8, 0, 0.6, 1);
        let x = ahw_tensor::rng::uniform(&[128], 0.0, 1.0, &mut ahw_tensor::rng::seeded(2));
        let y = inj.corrupt(&x);
        let q = ahw_tensor::quant::fake_quantize(&x, 8).unwrap();
        assert_eq!(y, q);
    }

    #[test]
    fn corruption_is_bounded_by_six_t_weights() {
        // flips restricted to the 3 LSBs can change a code by at most 7
        let inj = injector(5, 3, 0.55, 3);
        let x = ahw_tensor::rng::uniform(&[512], 0.0, 1.0, &mut ahw_tensor::rng::seeded(4));
        let y = inj.corrupt(&x);
        let q = QTensor::quantize(&x, 8).unwrap();
        let scale = q.params().scale;
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            // quantization error (≤ scale/2) + max flip magnitude (7 codes)
            assert!((a - b).abs() <= scale * 7.5 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn empirical_flip_rate_matches_ber() {
        let inj = injector(0, 8, 0.6, 5);
        let ber = inj.bit_error_rate();
        assert!(ber > 0.01);
        let n = 40_000usize;
        let x = ahw_tensor::rng::uniform(&[n], 0.0, 1.0, &mut ahw_tensor::rng::seeded(6));
        let before = QTensor::quantize(&x, 8).unwrap();
        let y = inj.corrupt(&x);
        let after = QTensor::quantize_with(&y, before.params());
        let mut flipped_bits = 0usize;
        for (a, b) in before.codes().iter().zip(after.codes()) {
            flipped_bits += (a ^ b).count_ones() as usize;
        }
        let empirical = flipped_bits as f32 / (n * 8) as f32;
        assert!(
            (empirical - ber).abs() < ber * 0.15,
            "empirical {empirical} vs ber {ber}"
        );
    }

    #[test]
    fn noise_is_pure_in_seed_and_content() {
        let inj = injector(4, 4, 0.62, 7);
        let x = ahw_tensor::rng::uniform(&[256], 0.0, 1.0, &mut ahw_tensor::rng::seeded(8));
        // repeated corruption of the same words is identical — no hidden
        // stream state, so parallel call order cannot matter
        let a = inj.corrupt(&x);
        let b = inj.corrupt(&x);
        assert_eq!(a, b);
        // a different seed draws different noise
        let c = injector(4, 4, 0.62, 70).corrupt(&x);
        assert_ne!(b, c);
        // different contents draw different noise streams
        let y = ahw_tensor::rng::uniform(&[256], 0.0, 1.0, &mut ahw_tensor::rng::seeded(9));
        assert_ne!(inj.corrupt(&y).sub(&y).unwrap(), a.sub(&x).unwrap());
    }

    #[test]
    fn clone_corrupts_identically() {
        let inj = injector(4, 4, 0.62, 9);
        let x = ahw_tensor::rng::uniform(&[64], 0.0, 1.0, &mut ahw_tensor::rng::seeded(10));
        let a = inj.corrupt(&x);
        assert_eq!(inj.clone().corrupt(&x), a);
    }

    #[test]
    fn msb_protection_limits_damage() {
        // same voltage: fewer 6T cells ⇒ smaller mean perturbation
        let x = ahw_tensor::rng::uniform(&[4096], 0.0, 1.0, &mut ahw_tensor::rng::seeded(11));
        let damage = |six_t: u8| {
            let inj = injector(8 - six_t, six_t, 0.58, 12);
            inj.corrupt(&x).sub(&x).unwrap().norm()
        };
        let d2 = damage(2);
        let d6 = damage(6);
        assert!(d6 > d2 * 2.0, "6T damage {d6} vs 2-LSB damage {d2}");
    }

    #[test]
    fn corrupt_into_reuses_buffers() {
        let inj = injector(4, 4, 0.62, 14);
        let x = ahw_tensor::rng::uniform(&[1024], 0.0, 1.0, &mut ahw_tensor::rng::seeded(15));
        let baseline = inj.corrupt(&x);
        let mut ws = Workspace::new();
        let a = inj.corrupt_into(&x, &mut ws);
        assert_eq!(a, baseline);
        let out_ptr = a.as_slice().as_ptr();
        ws.recycle_tensor(a);
        assert_eq!(ws.outstanding(), 0, "codes and output both accounted");
        // second round trip reuses both the code and the output buffer
        let b = inj.corrupt_into(&x, &mut ws);
        assert_eq!(b, baseline);
        assert_eq!(b.as_slice().as_ptr(), out_ptr, "output buffer not reused");
        ws.recycle_tensor(b);
    }

    #[test]
    fn corrupt_is_thread_count_invariant() {
        // Large enough to split into many fused-pass chunks; the flip
        // pattern and the fitted range must not depend on the worker count.
        let inj = injector(4, 4, 0.62, 16);
        let x = ahw_tensor::rng::uniform(&[300_000], -1.0, 1.0, &mut ahw_tensor::rng::seeded(17));
        let mut outputs: Vec<Vec<u32>> = Vec::new();
        for &threads in &[1usize, 2, 4, 7] {
            ahw_tensor::pool::set_thread_override(Some(threads));
            let y = inj.corrupt(&x);
            ahw_tensor::pool::set_thread_override(None);
            outputs.push(y.as_slice().iter().map(|v| v.to_bits()).collect());
        }
        assert!(
            outputs.iter().all(|o| *o == outputs[0]),
            "corrupt output depends on thread count"
        );
    }

    #[test]
    fn each_six_t_bit_flips_at_most_once() {
        // The sparse positions strictly increase, so a (word, bit) pair is
        // never revisited and flips can only toggle 6T mask bits.
        let inj = injector(4, 4, 0.5, 18); // low voltage: many events
        let x = ahw_tensor::rng::uniform(&[8192], 0.0, 1.0, &mut ahw_tensor::rng::seeded(19));
        let params = QuantParams::fit(&x, 8).unwrap();
        let clean = QTensor::quantize_with(&x, params);
        let noisy = QTensor::quantize_with(&inj.corrupt(&x), params);
        let mask = inj.config().word().six_t_mask();
        for (a, b) in clean.codes().iter().zip(noisy.codes()) {
            assert_eq!((a ^ b) & !mask, 0, "flip outside the 6T mask");
        }
    }

    #[test]
    fn hook_describe_mentions_config() {
        let inj = injector(5, 3, 0.68, 13);
        assert!(ActivationHook::describe(&inj).contains("5/3 @ 0.68V"));
    }
}
