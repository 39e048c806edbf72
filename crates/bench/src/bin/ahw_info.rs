//! Prints the effective runtime configuration — worker-pool thread count
//! and telemetry state — as one `key=value` line per item. The experiment
//! shell scripts run this at startup so logs record the configuration the
//! run actually resolved (`AHW_THREADS` parsing included), not just what
//! the environment tried to request.

use ahw_tensor::pool;

fn main() {
    println!("threads={}", pool::num_threads());
    println!(
        "ahw_threads={}",
        std::env::var("AHW_THREADS").unwrap_or_else(|_| "<unset>".to_string())
    );
    println!(
        "telemetry={}",
        if ahw_telemetry::enabled() {
            "on"
        } else {
            "off"
        }
    );
    match ahw_telemetry::env_trace_path() {
        Some(path) => println!("trace={path}"),
        None => println!("trace=<unset>"),
    }
}
