//! # ahw-defenses
//!
//! The two efficiency-driven *software* defenses the paper compares its
//! hardware-noise robustness against (Fig. 8(b)–(c)):
//!
//! * [`PixelDiscretization`] — Panda et al. \[6\]: restrict input pixels from
//!   8-bit to a coarser grid (4-bit, 2-bit) before inference, destroying the
//!   fine-grained perturbations FGSM/PGD rely on;
//! * [`Quanos`] — Panda \[8\]: a layer-wise hybrid quantization driven by the
//!   *Adversarial Noise Sensitivity* (ANS) of each layer — layers where
//!   adversarial inputs perturb activations the most get the fewest bits.
//!
//! [`adversarial_fit`] additionally provides classic FGSM adversarial
//! training — the algorithmic gold standard the paper's introduction cites —
//! as the software-defense reference row.
//!
//! The crate keeps only what is specific to each defense and runs on the
//! shared cores, so the comparison in `ahw-bench` is apples-to-apples:
//!
//! * every FGSM (QUANOS calibration, adversarial examples) is
//!   `ahw_attacks::fgsm`/`fgsm_ws`;
//! * adversarial training is [`Trainer::fit_with`](ahw_nn::train::Trainer::fit_with)
//!   with a per-batch hook, so `TrainConfig` sets its epochs, batch size and
//!   learning-rate schedule;
//! * QUANOS quantizes the weights [`Sequential::visit_weights`](ahw_nn::Sequential::visit_weights)
//!   hands out, with the `ahw_tensor::quant` quantizer the SRAM substrate
//!   uses, and its activation hook draws its buffers from the forward's arena.

mod advtrain;
mod discretize;
mod quanos;

pub use advtrain::{adversarial_fit, AdvTrainConfig};
pub use discretize::{DiscretizeLayer, PixelDiscretization};
pub use quanos::{LayerSensitivity, Quanos, QuantizeHook};
