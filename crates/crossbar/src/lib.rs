//! # ahw-crossbar
//!
//! The analog memristive-crossbar substrate of the paper's Section II-C /
//! III-B: an RxNN-style framework that maps DNN weight matrices onto tiled
//! crossbar arrays, models the resistive non-idealities (`Rdriver`,
//! `Rwire_row`, `Rwire_col`, `Rsense`) and device-level process variation,
//! and exposes the resulting *non-ideal* network for inference and for
//! gradient-based attacks.
//!
//! ## How the mapping works
//!
//! 1. Each rank-2 weight matrix `W (out, in)` is split into `K×K` tiles;
//!    inputs drive rows, outputs are sensed on columns.
//! 2. Every weight programs a **differential pair** of device conductances
//!    `G⁺/G⁻ ∈ [G_MIN, G_MAX]` (`G_MAX = 1/R_MIN`, `G_MIN = 1/R_MAX`),
//!    optionally perturbed by Gaussian process variation `σ/μ`.
//! 3. A resistive-mesh solve (exact dense nodal analysis for validation, a
//!    fast ladder-relaxation for experiments) turns each programmed tile
//!    into its *effective* conductance matrix `G_nonideal` under unit drive
//!    — Fig. 3(b) of the paper. The relaxation eliminates every wire ladder
//!    once and solves a tile's ladders in lockstep; tiles draw their process
//!    variation serially in tile order, then solve in parallel on the worker
//!    pool, with the same bits at any thread count.
//! 4. Because the crossbar is a linear circuit, the whole non-ideal network
//!    is exactly represented by an **effective weight matrix**
//!    `W_eff ≠ W`; [`map_model`] rewrites a trained [`ahw_nn::Sequential`]
//!    in place, after which inference *and* input gradients (the paper's
//!    `HH` attack mode) flow through the hardware behaviour with no further
//!    special-casing.
//!
//! ## Example
//!
//! ```
//! use ahw_crossbar::{CrossbarConfig, map_matrix};
//! use ahw_tensor::{rng, Tensor};
//!
//! # fn main() -> Result<(), ahw_crossbar::CrossbarError> {
//! let w = rng::uniform(&[8, 8], -1.0, 1.0, &mut rng::seeded(1));
//! let cfg = CrossbarConfig::paper_default(16);
//! let w_eff = map_matrix(&w, &cfg)?;
//! // non-idealities attenuate the effective weights
//! assert!(w_eff.norm() < w.norm());
//! # Ok(())
//! # }
//! ```

mod config;
mod error;
mod mapping;
mod solver;
mod tile;

pub mod energy;

pub use config::{Calibration, CrossbarConfig, DeviceParams, NonIdealities, SolverKind};
pub use error::CrossbarError;
pub use mapping::{map_matrix, map_model, MappingReport};
pub use solver::{extract_effective_conductance, solve_mesh_exact};
pub use tile::{CrossbarTile, TiledMatrix};
