//! Regenerates Fig. 2: average surgical-noise perturbation μ vs 8T-6T cell
//! ratio, one column per scaled supply voltage.

use ahw_bench::experiments::fig2_mu_sweep;
use ahw_bench::{table, Args};

fn main() {
    let _telemetry = ahw_bench::telemetry_flush();
    // Fig. 2 trains nothing, so it has no scale, but it takes the suite's
    // scale options as every `exp_*` binary does
    let args = Args::from_env();
    args.scale();
    args.reject_unread();
    let vdds = [0.60f32, 0.65, 0.70, 0.75, 0.80];
    let rows = fig2_mu_sweep(&vdds);
    let headers: Vec<String> = std::iter::once("8T/6T".to_string())
        .chain(vdds.iter().map(|v| format!("{v:.2}V")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            std::iter::once(r.ratio.clone())
                .chain(r.mu.iter().map(|m| format!("{m:.5}")))
                .collect()
        })
        .collect();
    println!("Fig. 2 — average surgical noise perturbation mu(r, Vdd)");
    println!("(rows: #8T/#6T split of an 8-bit word; mu normalized to word full-scale)");
    println!();
    print!("{}", table::render(&header_refs, &body));
}
