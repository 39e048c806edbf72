//! # ahw-nn
//!
//! A compact, dependency-light deep-learning framework: layers with explicit
//! forward/backward passes, a [`Sequential`] model graph with residual
//! blocks, an SGD trainer, and the VGG/ResNet builders used by the paper's
//! experiments.
//!
//! Two design points matter for the rest of the workspace:
//!
//! * **Hook seams.** Every layer output is an [`ActivationHook`] site. The
//!   hybrid-SRAM substrate injects bit-error noise through these hooks, and
//!   attack code chooses whether gradients see the noise by picking which
//!   model (hooked or clean) it differentiates.
//! * **One weight walk.** [`Sequential::visit_weights`] hands out every
//!   conv/linear weight matrix with the index of the layer that owns it;
//!   the crossbar mapping, the weight-noise ablation and QUANOS rewrite
//!   weights through it, so the same evaluation and attack code runs
//!   against software or hardware models.
//!
//! ## Example
//!
//! ```
//! use ahw_nn::{Sequential, Mode, layers::{Linear, ReLU}};
//! use ahw_tensor::rng;
//!
//! # fn main() -> Result<(), ahw_nn::NnError> {
//! let mut rng = rng::seeded(0);
//! let mut model = Sequential::new();
//! model.push(Linear::new(8, 16, &mut rng)?);
//! model.push(ReLU::new());
//! model.push(Linear::new(16, 4, &mut rng)?);
//! let x = rng::normal(&[2, 8], 0.0, 1.0, &mut rng);
//! let logits = model.forward(&x, Mode::Eval)?;
//! assert_eq!(logits.dims(), &[2, 4]);
//! # Ok(())
//! # }
//! ```

mod block;
mod error;
mod layer;
mod param;
mod plan;
mod sequential;

pub mod archs;
pub mod io;
pub mod layers;
pub mod train;
pub mod util;

pub use block::BasicBlock;
pub use error::NnError;
pub use layer::{ActivationHook, CloneLayer, HookCell, HookSlot, Layer, Mode};
pub use param::Param;
pub use plan::PlanCache;
pub use sequential::{Sequential, Site};
