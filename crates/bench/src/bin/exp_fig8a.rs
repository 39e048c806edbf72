//! Regenerates Fig. 8(a): SH / HH PGD ALs for R_MIN = 20k vs 10k ohm at a
//! constant ON/OFF ratio of 10 (VGG8 / CIFAR10, 32x32 crossbars).

use ahw_bench::experiments::r_min_study;
use ahw_bench::{table, Args};

fn main() {
    let _telemetry = ahw_bench::telemetry_flush();
    let args = Args::from_env();
    let scale = args.scale();
    let epsilon = args.get::<f32>("epsilon").unwrap_or(8.0 / 255.0);
    args.reject_unread();
    println!(
        "Fig. 8(a) — R_MIN study (PGD @ eps={:.4}), VGG8 / CIFAR10, 32x32 crossbars",
        epsilon
    );
    println!();
    let rows = match r_min_study(&scale, epsilon) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig8a failed: {e}");
            std::process::exit(1);
        }
    };
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}k", r.r_min / 1e3),
                r.mode.clone(),
                format!("{:.2}", r.al),
                format!("{:.2}", r.clean),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(&["R_MIN", "mode", "AL", "clean acc"], &body)
    );
}
