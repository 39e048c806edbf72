//! Regenerates Fig. 8(b)-(c): crossbar non-ideality robustness vs 4-bit
//! input discretization and QUANOS (VGG16 / CIFAR-100-like data).

use ahw_bench::experiments::defense_comparison;
use ahw_bench::{table, Args};

fn main() {
    let _telemetry = ahw_bench::telemetry_flush();
    let args = Args::from_env();
    let scale = args.scale();
    let epsilon = args.get::<f32>("epsilon").unwrap_or(8.0 / 255.0);
    args.reject_unread();
    println!(
        "Fig. 8(b,c) — defense comparison (eps={:.4}), VGG16 / CIFAR100",
        epsilon
    );
    println!();
    let rows = match defense_comparison(&scale, epsilon) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig8bc failed: {e}");
            std::process::exit(1);
        }
    };
    for attack in ["FGSM", "PGD"] {
        println!("{attack}:");
        let body: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.attack == attack)
            .map(|r| {
                vec![
                    r.method.clone(),
                    format!("{:.2}", r.al),
                    format!("{:.2}", r.clean),
                ]
            })
            .collect();
        print!("{}", table::render(&["method", "AL", "clean acc"], &body));
        println!();
    }
}
