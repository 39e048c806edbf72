//! Whole-model crossbar mapping.
//!
//! Because every crossbar tile realizes a *linear* map, the entire non-ideal
//! network is exactly captured by replacing each weight matrix `W` with the
//! effective matrix `W_eff` its tiles realize. [`map_model`] performs that
//! rewrite on a [`Sequential`] clone's state: every weight matrix of
//! [`Sequential::visit_weights`] (convolutions are stored pre-lowered as
//! `(out, in·k·k)` matrices, linear layers as `(out, in)`) is programmed
//! onto tiles and replaced. Biases and batch-norm parameters stay digital,
//! matching how crossbar accelerators split analog MVM from digital
//! periphery.

use crate::{Calibration, CrossbarConfig, CrossbarError, TiledMatrix};
use ahw_nn::Sequential;
use ahw_tensor::rng::Rng;
use ahw_tensor::Tensor;

/// Applies the configured ADC-gain calibration: rescales `effective` so its
/// least-squares projection onto `target` has unit gain (per layer or per
/// output column). Gains are clamped to `[0.2, 5.0]` — a real programmable
/// gain has limited range, and a column that degenerate is left as-is.
fn calibrate(target: &Tensor, effective: &mut Tensor, mode: Calibration) {
    let lstsq_gain = |t: &[f32], e: &[f32]| -> f32 {
        let num: f32 = t.iter().zip(e).map(|(a, b)| a * b).sum();
        let den: f32 = e.iter().map(|b| b * b).sum();
        if den <= f32::EPSILON || !num.is_finite() {
            1.0
        } else {
            (num / den).clamp(0.2, 5.0)
        }
    };
    match mode {
        Calibration::None => {}
        Calibration::PerLayer => {
            let s = lstsq_gain(target.as_slice(), effective.as_slice());
            effective.map_in_place(|v| v * s);
        }
        Calibration::PerColumn => {
            // weights are (out, in); a crossbar column is one output row
            let in_f = target.dims()[1];
            let tv = target.as_slice();
            for (o, row) in effective.as_mut_slice().chunks_mut(in_f).enumerate() {
                let s = lstsq_gain(&tv[o * in_f..(o + 1) * in_f], row);
                for v in row {
                    *v *= s;
                }
            }
        }
    }
}

fn map_matrix_with<R: Rng>(
    weight: &Tensor,
    config: &CrossbarConfig,
    rng: &mut R,
) -> Result<(Tensor, usize), CrossbarError> {
    let tiled = TiledMatrix::program(weight, config, rng)?;
    let mut effective = tiled.effective_weight();
    calibrate(weight, &mut effective, config.calibration);
    Ok((effective, tiled.tile_count()))
}

/// Maps a single `(out, in)` weight matrix and returns its effective
/// (hardware-realized) counterpart, including the configured ADC-gain
/// calibration.
///
/// # Errors
///
/// Returns [`CrossbarError`] for invalid configs or a non-matrix tensor.
pub fn map_matrix(weight: &Tensor, config: &CrossbarConfig) -> Result<Tensor, CrossbarError> {
    let mut rng = ahw_tensor::rng::seeded(config.seed);
    Ok(map_matrix_with(weight, config, &mut rng)?.0)
}

/// Summary of a whole-model mapping.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MappingReport {
    /// Number of weight matrices rewritten.
    pub matrices: usize,
    /// Total crossbar tiles programmed.
    pub tiles: usize,
    /// Total devices (differential pairs) programmed.
    pub cells: usize,
}

/// Rewrites every mappable weight of `model` with its crossbar-effective
/// version, in place. Process variation derives from `config.seed` (one
/// draw per chip; mapping the same model twice with the same config gives
/// identical hardware).
///
/// # Errors
///
/// Returns the first [`CrossbarError`] encountered; the model may be
/// partially rewritten in that case, so map a clone.
pub fn map_model(
    model: &mut Sequential,
    config: &CrossbarConfig,
) -> Result<MappingReport, CrossbarError> {
    config.validate()?;
    let mut rng = ahw_tensor::rng::seeded(config.seed);
    let mut report = MappingReport::default();
    model.visit_weights(|_, tensor| {
        let (effective, tiles) = map_matrix_with(tensor, config, &mut rng)?;
        report.matrices += 1;
        report.tiles += tiles;
        report.cells += tensor.len();
        *tensor = effective;
        Ok::<_, CrossbarError>(())
    })?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use ahw_nn::Mode;
    use ahw_tensor::rng::{normal, seeded, uniform};

    fn small_convnet(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        let mut m = Sequential::new();
        m.push(Conv2d::new(3, 4, 3, 1, 1, &mut rng).unwrap());
        m.push(ReLU::new());
        m.push(MaxPool2d::new(2, 2));
        m.push(Flatten::new());
        m.push(Linear::new(4 * 4 * 4, 5, &mut rng).unwrap());
        m
    }

    #[test]
    fn map_matrix_ideal_is_identity_like() {
        let w = uniform(&[6, 20], -1.0, 1.0, &mut seeded(1));
        let eff = map_matrix(&w, &CrossbarConfig::ideal(16)).unwrap();
        for (a, b) in w.as_slice().iter().zip(eff.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn map_model_rewrites_all_weight_matrices() {
        let mut model = small_convnet(2);
        let report = map_model(&mut model, &CrossbarConfig::paper_default(16)).unwrap();
        assert_eq!(report.matrices, 2); // conv + linear
        assert!(report.tiles > 5); // conv (27x4 → 2x1 tiles) + fc (64x5 → 4x1)
        assert_eq!(report.cells, 4 * 27 + 64 * 5);
    }

    #[test]
    fn mapped_model_differs_but_still_computes() {
        let mut software = small_convnet(3);
        let mut hardware = software.clone();
        map_model(&mut hardware, &CrossbarConfig::paper_default(16)).unwrap();
        let x = normal(&[2, 3, 8, 8], 0.0, 1.0, &mut seeded(4));
        let ys = software.forward(&x, Mode::Eval).unwrap();
        let yh = hardware.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ys.dims(), yh.dims());
        assert_ne!(ys, yh);
        // non-idealities perturb but do not destroy the computation
        let rel = ys.sub(&yh).unwrap().norm() / ys.norm();
        assert!(rel < 1.0, "relative deviation {rel}");
        assert!(rel > 1e-3, "relative deviation suspiciously tiny: {rel}");
    }

    #[test]
    fn mapping_is_deterministic_per_seed() {
        let base = small_convnet(5);
        let mut a = base.clone();
        let mut b = base.clone();
        map_model(&mut a, &CrossbarConfig::paper_default(16)).unwrap();
        map_model(&mut b, &CrossbarConfig::paper_default(16)).unwrap();
        let x = normal(&[1, 3, 8, 8], 0.0, 1.0, &mut seeded(6));
        assert_eq!(
            a.forward(&x, Mode::Eval).unwrap(),
            b.forward(&x, Mode::Eval).unwrap()
        );
    }

    #[test]
    fn different_chips_differ() {
        let base = small_convnet(7);
        let mut a = base.clone();
        let mut b = base.clone();
        let mut cfg = CrossbarConfig::paper_default(16);
        map_model(&mut a, &cfg).unwrap();
        cfg.seed = 999;
        map_model(&mut b, &cfg).unwrap();
        let x = normal(&[1, 3, 8, 8], 0.0, 1.0, &mut seeded(8));
        assert_ne!(
            a.forward(&x, Mode::Eval).unwrap(),
            b.forward(&x, Mode::Eval).unwrap()
        );
    }

    #[test]
    fn gradients_flow_through_mapped_model() {
        let mut hardware = small_convnet(9);
        map_model(&mut hardware, &CrossbarConfig::paper_default(16)).unwrap();
        let x = normal(&[2, 3, 8, 8], 0.0, 1.0, &mut seeded(10));
        let (loss, dx) = hardware.input_gradient(&x, &[0, 1]).unwrap();
        assert!(loss.is_finite());
        assert!(dx.norm() > 0.0);
    }
}
