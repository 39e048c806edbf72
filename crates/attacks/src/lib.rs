//! # ahw-attacks
//!
//! Gradient-based adversarial attacks (FGSM and PGD) and the paper's three
//! evaluation modes:
//!
//! * **Attack-SW** — perturbations crafted from, and evaluated on, the
//!   software baseline;
//! * **SH** (software-inputs-on-hardware) — perturbations crafted from the
//!   *software* model's loss, evaluated on the *hardware* model;
//! * **HH** (hardware-inputs-on-hardware) — perturbations crafted from the
//!   hardware model's own loss (so they incorporate the non-idealities),
//!   evaluated on the hardware model.
//!
//! The central metric is *Adversarial Loss* `AL = clean acc − adversarial
//! acc` (percentage points); smaller AL means a more robust model.
//!
//! [`evaluate_attack`] crafts and scores batch by batch. Its two halves are
//! public too: [`craft_attack`] crafts the whole set's adversarial images
//! against one model, and [`evaluate_crafted`] scores any model on them.
//! Attack-SW and SH share their gradient model, so a study that scores one
//! attack on several models (the Fig. 4 search, the Figs. 6/7 sweep) crafts
//! once; scored at the crafting batch size, the outcome equals
//! [`evaluate_attack`]'s bit for bit.
//!
//! ## Example
//!
//! ```
//! use ahw_attacks::{craft_attack, evaluate_attack, evaluate_crafted, Attack};
//! use ahw_nn::{Sequential, layers::Linear};
//! use ahw_tensor::rng;
//!
//! # fn main() -> Result<(), ahw_nn::NnError> {
//! let mut r = rng::seeded(0);
//! let mut model = Sequential::new();
//! model.push(Linear::new(8, 3, &mut r)?);
//! let x = rng::uniform(&[16, 8], 0.0, 1.0, &mut r);
//! let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
//! let outcome = evaluate_attack(&model, &model, &x, &labels,
//!                               Attack::fgsm(0.1), 8)?;
//! assert!(outcome.adversarial_accuracy <= outcome.clean_accuracy + 1e-6);
//!
//! // the same evaluation in two halves: craft once, score any model
//! let adversarial = craft_attack(&model, &x, &labels, Attack::fgsm(0.1), 8)?;
//! assert_eq!(evaluate_crafted(&model, &x, &adversarial, &labels, 8)?, outcome);
//! # Ok(())
//! # }
//! ```

mod methods;
mod metrics;
mod modes;

pub use methods::{
    craft, craft_ws, fgsm, fgsm_ws, pgd, pgd_ws, random_noise, random_noise_ws, Attack,
};
pub use metrics::AttackOutcome;
pub use modes::{
    clear_plan_pool, craft_attack, evaluate_attack, evaluate_crafted, evaluate_mode,
    parked_plan_count, sweep_epsilons, AttackMode,
};
