//! Tile-level crossbar machinery: differential conductance programming,
//! process variation, and the tiling of a full weight matrix.

use crate::{extract_effective_conductance, CrossbarConfig, CrossbarError};
use ahw_telemetry as telemetry;
use ahw_tensor::rng::Rng;
use ahw_tensor::{pool, Tensor, TensorError};

/// One programmed `K×K` (or smaller, at matrix edges) crossbar array pair.
///
/// Weights map to a **differential pair** of devices per cell: positive
/// weights raise `G⁺` above `G_MIN`, negative weights raise `G⁻`, and the
/// sensed output is `I⁺ − I⁻`. Crossbar rows carry inputs, columns carry
/// outputs.
#[derive(Debug, Clone)]
pub struct CrossbarTile {
    rows: usize,
    cols: usize,
    /// Effective (post-solver) differential conductance, row-major
    /// `rows × cols`: `G'⁺ − G'⁻`, siemens.
    g_eff_diff: Vec<f32>,
    /// Scale converting differential conductance back to weight units.
    weight_per_siemens: f32,
}

impl CrossbarTile {
    /// Programs a weight sub-matrix (`rows` inputs × `cols` outputs, stored
    /// row-major input-major) onto a tile and solves for its effective
    /// conductances. `w_max` is the layer-wide programming full-scale.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::BadParams`] for invalid configs, a
    /// sub-matrix exceeding the array size or a non-finite weight, and
    /// propagates mesh-solver failures.
    pub fn program<R: Rng>(
        weights: &[f32],
        rows: usize,
        cols: usize,
        w_max: f32,
        config: &CrossbarConfig,
        rng: &mut R,
    ) -> Result<Self, CrossbarError> {
        config.validate()?;
        reject_non_finite(weights)?;
        DrawnTile::draw(weights, rows, cols, w_max, config, rng)?.solve(config)
    }

    /// Tile input count (crossbar rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Tile output count (crossbar columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The effective weight sub-matrix this tile realizes (`rows × cols`,
    /// input-major) — the differential effective conductances converted back
    /// to weight units.
    pub fn effective_weights(&self) -> Vec<f32> {
        self.g_eff_diff
            .iter()
            .map(|&g| g * self.weight_per_siemens)
            .collect()
    }
}

/// Rejects non-finite weights: clamping, `f32::max` and the variation floor
/// would otherwise program a NaN or infinity as a valid conductance.
fn reject_non_finite(weights: &[f32]) -> Result<(), CrossbarError> {
    match weights.iter().position(|w| !w.is_finite()) {
        Some(idx) => Err(CrossbarError::BadParams(format!(
            "weight {idx} is not finite: {}",
            weights[idx]
        ))),
        None => Ok(()),
    }
}

/// A tile between its two programming steps: conductances drawn, mesh not
/// yet solved. The draw consumes the chip's RNG stream, so tiles draw
/// serially in a fixed order; the solve is a pure function of the drawn
/// conductances, so tiles can solve on any thread.
struct DrawnTile {
    rows: usize,
    cols: usize,
    g_pos: Vec<f32>,
    g_neg: Vec<f32>,
    weight_per_siemens: f32,
}

impl DrawnTile {
    /// Maps weights onto differential conductance pairs and applies the
    /// process variation.
    fn draw<R: Rng>(
        weights: &[f32],
        rows: usize,
        cols: usize,
        w_max: f32,
        config: &CrossbarConfig,
        rng: &mut R,
    ) -> Result<Self, CrossbarError> {
        if rows == 0 || cols == 0 || rows > config.size || cols > config.size {
            return Err(CrossbarError::BadParams(format!(
                "tile {rows}x{cols} does not fit a {0}x{0} array",
                config.size
            )));
        }
        if weights.len() != rows * cols {
            return Err(CrossbarError::BadParams(format!(
                "weight buffer {} does not match {rows}x{cols}",
                weights.len()
            )));
        }
        let (g_min, g_max) = (config.device.g_min(), config.device.g_max());
        let span = g_max - g_min;
        let w_max = if w_max > 0.0 { w_max } else { 1.0 };
        let sigma = config.nonideal.variation_sigma;
        let vary = |g: f32, rng: &mut R| -> f32 {
            if sigma == 0.0 {
                g
            } else {
                // Box–Muller normal draw; conductance floors at a tenth of
                // G_MIN so a deep negative tail cannot flip the device sign.
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0f32..1.0);
                let n = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                (g * (1.0 + sigma * n)).max(g_min * 0.1)
            }
        };
        let mut g_pos = vec![0.0f32; rows * cols];
        let mut g_neg = vec![0.0f32; rows * cols];
        for idx in 0..rows * cols {
            let w = weights[idx].clamp(-w_max, w_max);
            let frac = w.abs() / w_max;
            let (p, n) = if w >= 0.0 {
                (g_min + frac * span, g_min)
            } else {
                (g_min, g_min + frac * span)
            };
            g_pos[idx] = vary(p, rng);
            g_neg[idx] = vary(n, rng);
        }
        Ok(DrawnTile {
            rows,
            cols,
            g_pos,
            g_neg,
            weight_per_siemens: w_max / span,
        })
    }

    /// Solves both arrays of the pair for their effective conductances.
    fn solve(&self, config: &CrossbarConfig) -> Result<CrossbarTile, CrossbarError> {
        let effective = |g: &[f32]| {
            extract_effective_conductance(g, self.rows, self.cols, &config.nonideal, config.solver)
        };
        let mut g_eff_diff = effective(&self.g_pos)?;
        for (p, n) in g_eff_diff.iter_mut().zip(effective(&self.g_neg)?) {
            *p -= n;
        }
        Ok(CrossbarTile {
            rows: self.rows,
            cols: self.cols,
            g_eff_diff,
            weight_per_siemens: self.weight_per_siemens,
        })
    }
}

/// A full weight matrix mapped onto a grid of [`CrossbarTile`]s.
///
/// The logical weight is `W (out, in)`; crossbar rows take inputs, so tile
/// `(bi, bj)` holds the transposed block
/// `W[bj·K .. , bi·K ..]ᵀ`.
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    out_features: usize,
    in_features: usize,
    tile_size: usize,
    /// Tiles in (input-block-major) order: `tiles[bi][bj]`.
    tiles: Vec<Vec<CrossbarTile>>,
}

impl TiledMatrix {
    /// Maps a `(out, in)` weight matrix onto tiles of `config.size`.
    ///
    /// `rng` supplies the process-variation draw (one chip instance), taken
    /// tile by tile in `(bi, bj)` order. The tiles' mesh solves run on the
    /// worker pool; the result is the same at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError`] for invalid configs, a non-matrix tensor or
    /// a non-finite weight; when tiles fail to solve, the error of the first
    /// failing tile in `(bi, bj)` order.
    pub fn program<R: Rng>(
        weight: &Tensor,
        config: &CrossbarConfig,
        rng: &mut R,
    ) -> Result<Self, CrossbarError> {
        if weight.rank() != 2 {
            return Err(CrossbarError::Tensor(TensorError::RankMismatch {
                op: "crossbar_program",
                expected: 2,
                actual: weight.rank(),
            }));
        }
        config.validate()?;
        let (out_f, in_f) = (weight.dims()[0], weight.dims()[1]);
        let _span = telemetry::span_labeled("crossbar.tile.program", || {
            format!("{out_f}x{in_f} tiles={}", config.size)
        });
        let wv = weight.as_slice();
        reject_non_finite(wv)?;
        let k = config.size;
        let w_max = wv.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let (in_blocks, out_blocks) = (in_f.div_ceil(k), out_f.div_ceil(k));
        let mut tiles: Vec<Vec<CrossbarTile>> = (0..in_blocks)
            .map(|_| Vec::with_capacity(out_blocks))
            .collect();
        // Draw a wave of tiles serially, in (bi, bj) order, then solve the
        // wave on the pool. One tile per worker and wave bounds the drawn
        // conductances held at once.
        let (n_tiles, wave) = (in_blocks * out_blocks, pool::num_threads());
        let mut drawn = Vec::with_capacity(wave);
        for first in (0..n_tiles).step_by(wave) {
            drawn.clear();
            for t in first..n_tiles.min(first + wave) {
                let (bi, bj) = (t / out_blocks * k, t % out_blocks * k);
                let (rows, cols) = (k.min(in_f - bi), k.min(out_f - bj));
                // gather transposed block: tile[i][j] = W[bj + j][bi + i]
                let mut block = vec![0.0f32; rows * cols];
                for i in 0..rows {
                    for j in 0..cols {
                        block[i * cols + j] = wv[(bj + j) * in_f + (bi + i)];
                    }
                }
                drawn.push(DrawnTile::draw(&block, rows, cols, w_max, config, rng)?);
            }
            // results come back in tile order, so the first error is the
            // first failing tile's
            let solved = pool::parallel_map(drawn.len(), 1, |t| drawn[t].solve(config));
            for (t, tile) in (first..).zip(solved) {
                tiles[t / out_blocks].push(tile?);
            }
        }
        Ok(TiledMatrix {
            out_features: out_f,
            in_features: in_f,
            tile_size: k,
            tiles,
        })
    }

    /// Number of tiles used.
    pub fn tile_count(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    /// Logical output dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Logical input dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Reassembles the effective `(out, in)` weight matrix realized by the
    /// tiles — the `W_eff` the rest of the workspace computes with.
    pub fn effective_weight(&self) -> Tensor {
        let mut out = vec![0.0f32; self.out_features * self.in_features];
        let k = self.tile_size;
        for (ti, row_tiles) in self.tiles.iter().enumerate() {
            let bi = ti * k;
            for (tj, tile) in row_tiles.iter().enumerate() {
                let bj = tj * k;
                let eff = tile.effective_weights();
                for i in 0..tile.rows() {
                    for j in 0..tile.cols() {
                        out[(bj + j) * self.in_features + (bi + i)] = eff[i * tile.cols() + j];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[self.out_features, self.in_features]).expect("dimensions preserved")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_tensor::rng::{seeded, uniform};

    #[test]
    fn ideal_tile_recovers_weights() {
        let cfg = CrossbarConfig::ideal(16);
        let w = uniform(&[8 * 8], -2.0, 2.0, &mut seeded(1)).into_vec();
        let tile = CrossbarTile::program(&w, 8, 8, 2.0, &cfg, &mut seeded(2)).unwrap();
        for (a, b) in w.iter().zip(tile.effective_weights()) {
            assert!((a - b).abs() < 2.0 * 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn tile_rejects_oversize() {
        let cfg = CrossbarConfig::paper_default(8);
        let w = vec![0.0f32; 9 * 8];
        assert!(CrossbarTile::program(&w, 9, 8, 1.0, &cfg, &mut seeded(6)).is_err());
    }

    #[test]
    fn nonideal_tile_attenuates() {
        // realistic differential weights: attenuation is clear but moderate
        let mut cfg = CrossbarConfig::paper_default(32);
        cfg.nonideal.variation_sigma = 0.0; // isolate resistive effects
        let w = uniform(&[32 * 32], -1.0, 1.0, &mut seeded(70)).into_vec();
        let tile = CrossbarTile::program(&w, 32, 32, 1.0, &cfg, &mut seeded(7)).unwrap();
        let eff = tile.effective_weights();
        let dot: f32 = w.iter().zip(&eff).map(|(a, b)| a * b).sum();
        let ww: f32 = w.iter().map(|a| a * a).sum();
        let gain = dot / ww; // least-squares scale of eff onto w
        assert!(gain < 0.999, "gain {gain} not attenuated");
        assert!(gain > 0.3, "gain {gain} implausibly degraded");
    }

    #[test]
    fn worst_case_all_on_tile_collapses() {
        // every device at G_MAX with unit drive is the pathological IR-drop
        // corner: the array output collapses far below ideal but stays
        // positive and finite
        let mut cfg = CrossbarConfig::paper_default(32);
        cfg.nonideal.variation_sigma = 0.0;
        let w = vec![1.0f32; 32 * 32];
        let tile = CrossbarTile::program(&w, 32, 32, 1.0, &cfg, &mut seeded(7)).unwrap();
        let eff = tile.effective_weights();
        let mean: f32 = eff.iter().sum::<f32>() / eff.len() as f32;
        assert!(mean > 0.01 && mean < 0.6, "mean effective {mean}");
    }

    #[test]
    fn variation_is_seeded() {
        let cfg = CrossbarConfig::paper_default(16);
        let w = uniform(&[16 * 16], -1.0, 1.0, &mut seeded(8)).into_vec();
        let a = CrossbarTile::program(&w, 16, 16, 1.0, &cfg, &mut seeded(9)).unwrap();
        let b = CrossbarTile::program(&w, 16, 16, 1.0, &cfg, &mut seeded(9)).unwrap();
        let c = CrossbarTile::program(&w, 16, 16, 1.0, &cfg, &mut seeded(10)).unwrap();
        assert_eq!(a.effective_weights(), b.effective_weights());
        assert_ne!(a.effective_weights(), c.effective_weights());
    }

    #[test]
    fn tiled_matrix_covers_ragged_edges() {
        let cfg = CrossbarConfig::paper_default(16);
        let w = uniform(&[20, 37], -1.0, 1.0, &mut seeded(11));
        let tiled = TiledMatrix::program(&w, &cfg, &mut seeded(12)).unwrap();
        // ceil(37/16)=3 input blocks × ceil(20/16)=2 output blocks
        assert_eq!(tiled.tile_count(), 6);
        let eff = tiled.effective_weight();
        assert_eq!(eff.dims(), &[20, 37]);
        // every logical weight has been programmed (non-zero where w sizable)
        for (a, b) in w.as_slice().iter().zip(eff.as_slice()) {
            if a.abs() > 0.5 {
                assert!(b.abs() > 0.05, "weight {a} mapped to {b}");
                assert_eq!(a.signum(), b.signum());
            }
        }
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        // with variation on, the draw's floor used to turn a NaN conductance
        // into 0.1·G_MIN; with it off, the NaN reached the solver
        for sigma in [0.1f32, 0.0] {
            let mut cfg = CrossbarConfig::paper_default(8);
            cfg.nonideal.variation_sigma = sigma;
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut w = uniform(&[4, 12], -1.0, 1.0, &mut seeded(17));
                w.as_mut_slice()[13] = bad;
                let got = TiledMatrix::program(&w, &cfg, &mut seeded(18));
                assert!(
                    matches!(got, Err(CrossbarError::BadParams(_))),
                    "sigma {sigma}, weight {bad}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn zero_weight_matrix_is_stable() {
        let cfg = CrossbarConfig::paper_default(8);
        let w = Tensor::zeros(&[4, 4]);
        let tiled = TiledMatrix::program(&w, &cfg, &mut seeded(16)).unwrap();
        // differential pairs cancel up to variation noise
        assert!(tiled.effective_weight().norm() < 0.5);
    }
}
