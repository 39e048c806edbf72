//! Regenerates Table III: HH-mode PGD ALs across crossbar sizes 16/32/64 on
//! VGG8 + CIFAR-10-like data.

use ahw_bench::experiments::{eps_label, table3_size_study};
use ahw_bench::{table, Args};

fn main() {
    let _telemetry = ahw_bench::telemetry_flush();
    let args = Args::from_env();
    let scale = args.scale();
    args.reject_unread();
    println!("Table III — AL (%) for HH attack (PGD) across crossbar sizes, VGG8 / CIFAR10");
    println!();
    let rows = match table3_size_study(&scale) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("table3 failed: {e}");
            std::process::exit(1);
        }
    };
    let eps: Vec<f32> = rows
        .iter()
        .filter(|r| r.size == 16)
        .map(|r| r.epsilon)
        .collect();
    let headers: Vec<String> = std::iter::once("eps".to_string())
        .chain(eps.iter().map(|e| eps_label(*e)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let body: Vec<Vec<String>> = [16usize, 32, 64]
        .iter()
        .map(|size| {
            std::iter::once(format!("Cross{size}"))
                .chain(
                    rows.iter()
                        .filter(|r| r.size == *size)
                        .map(|r| format!("{:.2}", r.al)),
                )
                .collect()
        })
        .collect();
    print!("{}", table::render(&header_refs, &body));
}
