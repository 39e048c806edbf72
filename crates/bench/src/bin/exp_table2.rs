//! Regenerates Table II: layer-wise activation-memory configurations for
//! ResNet18 on both datasets, found by the Fig. 4 methodology.

use ahw_bench::experiments::hybrid_config_table;
use ahw_bench::{table, Args};
use ahw_core::zoo::ArchId;

fn main() {
    let _telemetry = ahw_bench::telemetry_flush();
    let args = Args::from_env();
    let scale = args.scale();
    args.reject_unread();
    println!("Table II — ResNet18 hybrid 8T-6T activation-memory configurations");
    println!("(S marks residual-shortcut activation memories)");
    println!();
    for classes in [10usize, 100] {
        match hybrid_config_table(ArchId::ResNet18, classes, &scale) {
            Ok(t) => {
                let mut headers: Vec<&str> = vec!["dataset"];
                let labels: Vec<&str> = t.site_labels.iter().map(String::as_str).collect();
                headers.extend(labels);
                headers.extend(["Vdd", "CleanAcc/Dev"]);
                let mut row = vec![t.dataset.clone()];
                row.extend(t.row.clone());
                row.push(format!("{:.2}V", t.vdd));
                row.push(format!("{:.2} / {:.2}", t.clean_accuracy, t.deviation));
                print!("{}", table::render(&headers, &[row]));
                println!(
                    "  probe FGSM(eps={:.2}): baseline adv {:.2}% -> plan adv {:.2}%  (shortlist threshold used: {:.0}%)",
                    t.probe_eps,
                    t.baseline_adv,
                    t.plan_adv,
                    t.threshold_used * 100.0
                );
                println!();
            }
            Err(e) => {
                eprintln!("table2 (CIFAR{classes}) failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
