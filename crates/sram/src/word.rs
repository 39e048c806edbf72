use crate::{BitErrorModel, SramError};

/// Width of an activation/weight memory word, in bits. The paper's baseline
/// models quantize activations and weights to 8 bits.
pub const WORD_BITS: u8 = 8;

/// How an 8-bit word is split between reliable 8T cells and error-prone 6T
/// cells. Following the significance-driven layout of Srinivasan et al.,
/// the 8T cells protect the most-significant bits and the 6T cells hold the
/// least-significant ones.
///
/// The paper writes the ratio as `r = #8T/#6T`, e.g. `5/3` = five protected
/// MSBs, three noisy LSBs. `8/0` is a homogeneous all-8T memory (`H`, no
/// noise); `0/8` is all-6T.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HybridWordConfig {
    eight_t: u8,
    six_t: u8,
}

impl HybridWordConfig {
    /// Creates a split; `eight_t + six_t` must equal [`WORD_BITS`].
    ///
    /// # Errors
    ///
    /// Returns [`SramError::BadWordSplit`] otherwise.
    pub fn new(eight_t: u8, six_t: u8) -> Result<Self, SramError> {
        if eight_t + six_t != WORD_BITS {
            return Err(SramError::BadWordSplit { eight_t, six_t });
        }
        Ok(HybridWordConfig { eight_t, six_t })
    }

    /// Homogeneous all-8T word: no 6T cells, no bit-error noise (`H`).
    pub fn homogeneous_8t() -> Self {
        HybridWordConfig {
            eight_t: WORD_BITS,
            six_t: 0,
        }
    }

    /// Homogeneous all-6T word: every bit is error-prone.
    pub fn homogeneous_6t() -> Self {
        HybridWordConfig {
            eight_t: 0,
            six_t: WORD_BITS,
        }
    }

    /// Number of 8T (protected) cells.
    pub fn eight_t(&self) -> u8 {
        self.eight_t
    }

    /// Number of 6T (error-prone) cells.
    pub fn six_t(&self) -> u8 {
        self.six_t
    }

    /// Whether the word has no 6T cells (noise-free).
    pub fn is_noise_free(&self) -> bool {
        self.six_t == 0
    }

    /// Paper-style ratio label, e.g. `"5/3"`.
    pub fn ratio_label(&self) -> String {
        format!("{}/{}", self.eight_t, self.six_t)
    }

    /// Bitmask of the 6T-held (least-significant) bit positions.
    ///
    /// ```
    /// use ahw_sram::HybridWordConfig;
    /// # fn main() -> Result<(), ahw_sram::SramError> {
    /// assert_eq!(HybridWordConfig::new(5, 3)?.six_t_mask(), 0b0000_0111);
    /// # Ok(())
    /// # }
    /// ```
    pub fn six_t_mask(&self) -> u8 {
        if self.six_t >= 8 {
            0xff
        } else {
            (1u16 << self.six_t).wrapping_sub(1) as u8
        }
    }

    /// Expected absolute perturbation per word value — the paper's *average
    /// surgical noise perturbation μ* (Fig. 2) — for a given per-bit error
    /// rate, normalized to the full-scale word range.
    ///
    /// Each 6T bit `k` flips independently with probability `ber` and a flip
    /// changes the word by `2^k` codes, so
    /// `μ = ber · Σ_{k<six_t} 2^k / (2^WORD_BITS − 1)`.
    pub fn mu(&self, ber: f32) -> f32 {
        let weight_sum = (self.six_t_mask() as u32) as f32;
        ber * weight_sum / ((1u32 << WORD_BITS) - 1) as f32
    }
}

/// A complete hybrid-memory operating point: word split plus supply voltage.
/// This pair is what the paper's methodology searches per layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridMemoryConfig {
    word: HybridWordConfig,
    vdd: f32,
}

impl HybridMemoryConfig {
    /// Creates an operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::BadVoltage`] for a voltage outside the modelled
    /// `0.5 V ..= 1.0 V` range.
    pub fn new(word: HybridWordConfig, vdd: f32) -> Result<Self, SramError> {
        if !(0.5..=1.0).contains(&vdd) || !vdd.is_finite() {
            return Err(SramError::BadVoltage(format!(
                "{vdd} V outside 0.5..=1.0 V"
            )));
        }
        Ok(HybridMemoryConfig { word, vdd })
    }

    /// The word split.
    pub fn word(&self) -> HybridWordConfig {
        self.word
    }

    /// Supply voltage in volts.
    pub fn vdd(&self) -> f32 {
        self.vdd
    }

    /// Per-bit error rate at this operating point under `model`.
    pub fn bit_error_rate(&self, model: &BitErrorModel) -> f32 {
        if self.word.is_noise_free() {
            0.0
        } else {
            model.bit_error_rate(self.vdd)
        }
    }

    /// Expected surgical-noise μ at this operating point under `model`.
    pub fn mu(&self, model: &BitErrorModel) -> f32 {
        self.word.mu(self.bit_error_rate(model))
    }

    /// Paper-style description, e.g. `"5/3 @ 0.68V"`.
    pub fn describe(&self) -> String {
        format!("{} @ {:.2}V", self.word.ratio_label(), self.vdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_must_sum_to_word_width() {
        assert!(HybridWordConfig::new(4, 4).is_ok());
        assert!(HybridWordConfig::new(4, 3).is_err());
        assert!(HybridWordConfig::new(9, 0).is_err());
    }

    #[test]
    fn masks_cover_lsbs() {
        assert_eq!(HybridWordConfig::new(8, 0).unwrap().six_t_mask(), 0);
        assert_eq!(HybridWordConfig::new(7, 1).unwrap().six_t_mask(), 0b1);
        assert_eq!(HybridWordConfig::new(0, 8).unwrap().six_t_mask(), 0xff);
    }

    #[test]
    fn homogeneous_8t_is_noise_free() {
        let h = HybridWordConfig::homogeneous_8t();
        assert!(h.is_noise_free());
        assert_eq!(h.mu(0.1), 0.0);
        assert_eq!(h.ratio_label(), "8/0");
    }

    #[test]
    fn mu_grows_with_six_t_count() {
        let ber = 0.01;
        let mut prev = -1.0f32;
        for six_t in 0..=8u8 {
            let w = HybridWordConfig::new(8 - six_t, six_t).unwrap();
            let mu = w.mu(ber);
            assert!(mu > prev || (six_t == 0 && mu == 0.0));
            prev = mu;
        }
        // all-6T at ber p: μ = p·255/255 = p
        assert!((HybridWordConfig::homogeneous_6t().mu(0.01) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn memory_config_validates_voltage() {
        let w = HybridWordConfig::new(5, 3).unwrap();
        assert!(HybridMemoryConfig::new(w, 0.68).is_ok());
        assert!(HybridMemoryConfig::new(w, 1.2).is_err());
        assert!(HybridMemoryConfig::new(w, f32::NAN).is_err());
    }

    #[test]
    fn config_mu_matches_word_mu() {
        let model = BitErrorModel::srinivasan22nm();
        let w = HybridWordConfig::new(2, 6).unwrap();
        let cfg = HybridMemoryConfig::new(w, 0.68).unwrap();
        assert_eq!(cfg.mu(&model), w.mu(model.bit_error_rate(0.68)));
    }

    #[test]
    fn describe_matches_paper_notation() {
        let cfg = HybridMemoryConfig::new(HybridWordConfig::new(3, 5).unwrap(), 0.68).unwrap();
        assert_eq!(cfg.describe(), "3/5 @ 0.68V");
    }
}
