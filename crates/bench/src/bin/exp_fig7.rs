//! Regenerates Fig. 7: the Fig. 6 sweep on VGG16 + CIFAR-100-like data.

use ahw_bench::experiments::{crossbar_mode_sweep, eps_label};
use ahw_bench::{table, Args};
use ahw_core::zoo::ArchId;

fn main() {
    let _telemetry = ahw_bench::telemetry_flush();
    let args = Args::from_env();
    let scale = args.scale();
    args.reject_unread();
    println!("Fig. 7 — AL vs epsilon on crossbars, VGG16 / CIFAR100");
    println!();
    let rows = match crossbar_mode_sweep(ArchId::Vgg16, 100, &[16, 32], &scale) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig7 failed: {e}");
            std::process::exit(1);
        }
    };
    for size in [16usize, 32] {
        for attack in ["FGSM", "PGD"] {
            println!("crossbar {size}x{size}, {attack}:");
            let eps: Vec<f32> = rows
                .iter()
                .filter(|r| r.size == size && r.attack == attack && r.mode == "SH")
                .map(|r| r.epsilon)
                .collect();
            let headers: Vec<String> = std::iter::once("mode".to_string())
                .chain(eps.iter().map(|e| eps_label(*e)))
                .collect();
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let body: Vec<Vec<String>> = ["Attack-SW", "SH", "HH"]
                .iter()
                .map(|mode| {
                    std::iter::once(mode.to_string())
                        .chain(
                            rows.iter()
                                .filter(|r| r.size == size && r.attack == attack && &r.mode == mode)
                                .map(|r| format!("{:.2}", r.al)),
                        )
                        .collect()
                })
                .collect();
            print!("{}", table::render(&header_refs, &body));
            println!();
        }
    }
}
