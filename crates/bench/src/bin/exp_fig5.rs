//! Regenerates Fig. 5: Adversarial Loss vs FGSM ε for baseline vs
//! bit-error-noise-injected VGG19 and ResNet18 on both datasets.

use ahw_bench::experiments::fig5_al_sweep_target;
use ahw_bench::{table, Args};
use ahw_core::zoo::ArchId;

fn main() {
    let _telemetry = ahw_bench::telemetry_flush();
    let args = Args::from_env();
    let scale = args.scale();
    let weight_noise = match args.get::<String>("noise-target").as_deref() {
        None | Some("activations") => false,
        Some("weights") => true,
        Some(other) => {
            eprintln!("--noise-target: expected activations or weights, got {other:?}");
            std::process::exit(2);
        }
    };
    println!("Fig. 5 — AL vs FGSM epsilon, baseline vs bit-error noise");
    if weight_noise {
        println!("(ablation: noise injected into parameter memories)");
    }
    println!();
    for (arch, classes) in [
        (ArchId::Vgg19, 10usize),
        (ArchId::ResNet18, 10),
        (ArchId::Vgg19, 100),
        (ArchId::ResNet18, 100),
    ] {
        match fig5_al_sweep_target(arch, classes, &scale, weight_noise) {
            Ok(s) => {
                println!(
                    "{} / {} (plan: {} noisy sites, target: {})",
                    s.arch, s.dataset, s.plan_sites, s.noise_target
                );
                let headers: Vec<String> = std::iter::once("series".to_string())
                    .chain(s.epsilons.iter().map(|e| format!("eps={e:.2}")))
                    .collect();
                let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
                let rows = vec![
                    std::iter::once("Baseline AL".to_string())
                        .chain(s.baseline_al.iter().map(|v| format!("{v:.2}")))
                        .collect::<Vec<_>>(),
                    std::iter::once("Bit-error AL".to_string())
                        .chain(s.noisy_al.iter().map(|v| format!("{v:.2}")))
                        .collect::<Vec<_>>(),
                ];
                print!("{}", table::render(&header_refs, &rows));
                println!();
            }
            Err(e) => {
                eprintln!("fig5 ({:?} CIFAR{classes}) failed: {e}", arch);
                std::process::exit(1);
            }
        }
    }
}
