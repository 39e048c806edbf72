//! Ablation studies of the design choices DESIGN.md §6 calls out:
//! activation-vs-weight noise targets, attacker gradient visibility,
//! crossbar ADC calibration modes, and searched-plan-vs-all-6T memories.

use ahw_bench::experiments::run_ablations;
use ahw_bench::{table, Args};

fn main() {
    let _telemetry = ahw_bench::telemetry_flush();
    let args = Args::from_env();
    let scale = args.scale();
    args.reject_unread();
    println!("Ablations (VGG8 / CIFAR10, FGSM eps=0.1)");
    println!();
    let rows = match run_ablations(&scale) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ablations failed: {e}");
            std::process::exit(1);
        }
    };
    let mut last_study = String::new();
    let mut body: Vec<Vec<String>> = Vec::new();
    let flush = |study: &str, body: &mut Vec<Vec<String>>| {
        if !body.is_empty() {
            println!("{study}:");
            print!(
                "{}",
                table::render(&["variant", "clean", "adv", "AL"], body)
            );
            println!();
            body.clear();
        }
    };
    for row in &rows {
        if row.study != last_study {
            flush(&last_study, &mut body);
            last_study = row.study.clone();
        }
        body.push(vec![
            row.variant.clone(),
            format!("{:.2}", row.clean),
            format!("{:.2}", row.adversarial),
            format!("{:.2}", row.al),
        ]);
    }
    flush(&last_study, &mut body);
}
