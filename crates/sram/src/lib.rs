//! # ahw-sram
//!
//! The hybrid 8T-6T SRAM substrate of the paper's Section II-B / III-A.
//!
//! 6T SRAM cells are small and low-power but fail increasingly often as the
//! supply voltage `Vdd` scales down; 8T cells stay reliable. A *hybrid*
//! activation memory stores each 8-bit word with its most-significant bits
//! in 8T cells and the rest in 6T cells — the ratio `r = #8T/#6T` and `Vdd`
//! together set how much *bit-error noise* the stored activations pick up.
//! The paper turns this noise into an adversarial defense.
//!
//! This crate provides:
//!
//! * [`BitErrorModel`] — analytic 6T failure probability vs `Vdd`,
//!   calibrated to the published behaviour of the 22 nm cell used by the
//!   paper (read/write static noise margins of 195 mV / 250 mV; bit-error
//!   rates climbing from ~10⁻⁴ near nominal voltage to ~10⁻¹·⁵ at 0.6 V);
//! * [`HybridWordConfig`] / [`HybridMemoryConfig`] — the `r` and `Vdd`
//!   knobs, and the expected surgical-noise magnitude `μ(r, Vdd)` of Fig. 2;
//! * [`BitErrorInjector`] — an [`ahw_nn::ActivationHook`] that quantizes a
//!   layer's activations to 8 bits, flips 6T-held bits with the modelled
//!   probability, and dequantizes — the mechanism the layer-selection
//!   methodology (in `ahw-core`) installs at chosen sites.
//!
//! ## Example
//!
//! ```
//! use ahw_sram::{BitErrorModel, HybridMemoryConfig, HybridWordConfig};
//!
//! # fn main() -> Result<(), ahw_sram::SramError> {
//! let cfg = HybridMemoryConfig::new(HybridWordConfig::new(5, 3)?, 0.68)?;
//! let mu = cfg.mu(&BitErrorModel::srinivasan22nm());
//! assert!(mu > 0.0 && mu < 0.1);
//! # Ok(())
//! # }
//! ```

mod error;
mod injector;
mod model;
mod word;

pub mod energy;

pub use error::SramError;
pub use injector::BitErrorInjector;
pub use model::BitErrorModel;
pub use word::{HybridMemoryConfig, HybridWordConfig, WORD_BITS};

/// The μ(r, Vdd) sweep behind the paper's Fig. 2: one row per 8T-6T ratio
/// (from 7/1 to 0/8), one column per supply voltage.
///
/// Returns `(row_labels, matrix)` where `matrix[i][j]` is the expected
/// surgical-noise perturbation μ for ratio row `i` at `vdds[j]`.
pub fn mu_sweep(model: &BitErrorModel, vdds: &[f32]) -> (Vec<String>, Vec<Vec<f32>>) {
    let mut labels = Vec::new();
    let mut rows = Vec::new();
    for six_t in 1..=WORD_BITS {
        let word = HybridWordConfig::new(WORD_BITS - six_t, six_t).expect("valid split");
        labels.push(word.ratio_label());
        rows.push(
            vdds.iter()
                .map(|&vdd| word.mu(model.bit_error_rate(vdd)))
                .collect(),
        );
    }
    (labels, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_sweep_shape_and_monotonicity() {
        let model = BitErrorModel::srinivasan22nm();
        let vdds = [0.60f32, 0.65, 0.70, 0.75, 0.80];
        let (labels, rows) = mu_sweep(&model, &vdds);
        assert_eq!(labels.len(), 8);
        assert_eq!(labels[0], "7/1");
        assert_eq!(labels[7], "0/8");
        // more 6T cells → more noise (down the rows)
        for j in 0..vdds.len() {
            for i in 1..rows.len() {
                assert!(
                    rows[i][j] >= rows[i - 1][j],
                    "row {i} col {j}: {} < {}",
                    rows[i][j],
                    rows[i - 1][j]
                );
            }
        }
        // lower Vdd → more noise (left-most column is the lowest voltage)
        for row in &rows {
            for j in 1..row.len() {
                assert!(row[j] <= row[j - 1]);
            }
        }
    }
}
