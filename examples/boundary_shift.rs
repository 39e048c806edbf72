//! Fig. 1 intuition, made visible: train a small 2-D classifier, then render
//! its decision regions before and after hardware noise shifts them.
//!
//! The paper's explanation of hardware robustness is geometric — intrinsic
//! noise moves the decision boundary, so adversarial points crafted against
//! the *software* boundary often stay in their true region on the *hardware*
//! one. This example prints ASCII maps of both boundaries plus the fate of
//! FGSM adversaries under each.
//!
//! ```sh
//! cargo run --release --example boundary_shift
//! ```

use adversarial_hw::prelude::*;
use ahw_nn::layers::{Linear, ReLU};
use ahw_nn::train::{TrainConfig, Trainer};
use ahw_tensor::rng;
use ahw_tensor::rng::Rng;

const GRID: usize = 48;

/// Two interleaved crescents in [0,1]² — a boundary with real curvature.
fn moons(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut r = rng::seeded(seed);
    let mut data = Vec::with_capacity(n * 2);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 2;
        let t: f32 = r.gen_range(0.0..std::f32::consts::PI);
        let (cx, cy, flip) = if label == 0 {
            (0.4, 0.45, 1.0f32)
        } else {
            (0.6, 0.55, -1.0)
        };
        let x = cx + 0.25 * t.cos() * flip;
        let y = cy + 0.2 * t.sin() * flip;
        let jx: f32 = r.gen_range(-0.02..0.02);
        let jy: f32 = r.gen_range(-0.02..0.02);
        data.push((x + jx).clamp(0.0, 1.0));
        data.push((y + jy).clamp(0.0, 1.0));
        labels.push(label);
    }
    (Tensor::from_vec(data, &[n, 2]).unwrap(), labels)
}

/// Renders the model's decision regions over the unit square.
fn render(model: &mut Sequential, title: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n{title}");
    let mut grid = Vec::with_capacity(GRID * GRID * 2);
    for gy in 0..GRID {
        for gx in 0..GRID {
            grid.push(gx as f32 / (GRID - 1) as f32);
            grid.push(1.0 - gy as f32 / (GRID - 1) as f32);
        }
    }
    let preds = model.predict(&Tensor::from_vec(grid, &[GRID * GRID, 2])?)?;
    for gy in 0..GRID {
        let row: String = (0..GRID)
            .map(|gx| if preds[gy * GRID + gx] == 0 { '.' } else { '#' })
            .collect();
        println!("  {row}");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (x, y) = moons(400, 1);
    let mut software = Sequential::new();
    let mut r = rng::seeded(2);
    software.push(Linear::new(2, 32, &mut r)?);
    software.push(ReLU::new());
    software.push(Linear::new(32, 32, &mut r)?);
    software.push(ReLU::new());
    software.push(Linear::new(32, 2, &mut r)?);
    Trainer::new(TrainConfig {
        epochs: 40,
        lr: 0.08,
        ..TrainConfig::default()
    })
    .fit(&mut software, &x, &y, &mut rng::seeded(3))?;

    // the "hardware" twin: map every weight matrix through a noisy crossbar
    let mut config = CrossbarConfig::paper_default(32);
    config.nonideal.variation_sigma = 0.15; // exaggerate for visibility
    let (mut hardware, _) = crossbar_variant(&software, &config)?;

    render(
        &mut software,
        "software decision regions ('.' = class 0, '#' = class 1):",
    )?;
    render(
        &mut hardware,
        "hardware (crossbar-mapped) decision regions:",
    )?;

    // adversaries built against the software boundary, tested on both
    let (tx, ty) = moons(200, 4);
    let eps = 0.05;
    let sw = evaluate_attack(&software, &software, &tx, &ty, Attack::fgsm(eps), 50)?;
    let sh = evaluate_attack(&software, &hardware, &tx, &ty, Attack::fgsm(eps), 50)?;
    println!("\nFGSM(eps={eps}) against the software boundary:");
    println!("  evaluated on software : {sw}");
    println!("  evaluated on hardware : {sh}");
    println!(
        "\nadversarial loss {:.1} -> {:.1}: points pushed just across the software \
         boundary often remain correctly classified by the shifted hardware boundary",
        sw.adversarial_loss(),
        sh.adversarial_loss()
    );
    Ok(())
}
