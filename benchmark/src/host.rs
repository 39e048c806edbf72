//! Host evidence printed beside every result: CPU time and steal from
//! `/proc`, peak memory, and a machine roof measured with benchmark code
//! rather than with the kernels it scores.

use std::hint::black_box;
use std::time::Instant;

/// Worker threads the benchmark runs: the machine's parallelism, capped
/// at 4.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Kernel clock ticks per second in `/proc` times (`USER_HZ`, 100 on
/// Linux).
const TICKS_PER_S: f64 = 100.0;

/// A reading of process and machine CPU counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CpuSample {
    at: Instant,
    /// Process user time, ticks.
    user: u64,
    /// Process system time, ticks.
    system: u64,
    /// Machine-wide time over all states, ticks.
    total: u64,
    /// Machine-wide steal time, ticks.
    steal: u64,
}

/// CPU use between two samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CpuUse {
    /// Process CPU time ÷ (threads × wall time).
    pub(crate) util: f64,
    /// Share of the process CPU time spent in the kernel.
    pub(crate) sys_frac: f64,
    /// Share of machine CPU time stolen by the hypervisor.
    pub(crate) steal_frac: f64,
}

/// Whitespace-separated numeric fields of `line` (unparsable ones as 0).
fn fields(line: &str) -> Vec<u64> {
    line.split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect()
}

impl CpuSample {
    /// Reads `/proc/self/stat` and `/proc/stat`; counters that cannot be
    /// read are 0.
    pub(crate) fn now() -> CpuSample {
        let read = |path| std::fs::read_to_string(path).unwrap_or_default();
        // fields after the parenthesised command name start at field 3
        let process = read("/proc/self/stat")
            .rsplit_once(')')
            .map(|(_, rest)| fields(rest))
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal ...
        let machine = read("/proc/stat")
            .lines()
            .find_map(|l| l.strip_prefix("cpu ").map(fields))
            .unwrap_or_default();
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        CpuSample {
            at: Instant::now(),
            user: at(&process, 11),
            system: at(&process, 12),
            total: machine.iter().take(8).sum(),
            steal: at(&machine, 7),
        }
    }

    /// CPU use from `self` to `later`, for a process running `threads`
    /// workers.
    pub(crate) fn until(&self, later: &CpuSample, threads: usize) -> CpuUse {
        let wall = later.at.duration_since(self.at).as_secs_f64();
        let user = later.user.saturating_sub(self.user) as f64;
        let system = later.system.saturating_sub(self.system) as f64;
        let total = later.total.saturating_sub(self.total) as f64;
        let steal = later.steal.saturating_sub(self.steal) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        CpuUse {
            util: ratio((user + system) / TICKS_PER_S, threads as f64 * wall),
            sys_frac: ratio(system, user + system),
            steal_frac: ratio(steal, total),
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Independent FMA chains per thread: enough to cover FMA latency times
/// issue width whether the compiler picks 256- or 512-bit vectors.
const FMA_LANES: usize = 128;

fn fma_chains(iters: u64) -> f32 {
    let mut acc = [0.0f32; FMA_LANES];
    let (m, c) = (black_box(0.999_9f32), black_box(1e-4f32));
    for _ in 0..iters {
        for a in &mut acc {
            *a = a.mul_add(m, c);
        }
    }
    acc.iter().sum()
}

/// Compute roof: GFLOP/s of register-resident FMA chains on `threads`
/// threads at once, best of three.
pub(crate) fn fma_gflops(threads: usize) -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| black_box(fma_chains(black_box(ITERS))));
            }
        });
        let flops = 2.0 * FMA_LANES as f64 * ITERS as f64 * threads as f64;
        best = best.max(flops / start.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Bytes in each of the stream copy's two arrays: together 448 MiB, over
/// four times a 105 MiB last-level cache.
pub(crate) const STREAM_ARRAY_BYTES: usize = 224 << 20;

/// Bandwidth roof: GB/s (read + write) of a copy between two
/// [`STREAM_ARRAY_BYTES`] arrays split over `threads` threads, best of
/// three.
pub(crate) fn stream_gbps(threads: usize) -> f64 {
    let words = STREAM_ARRAY_BYTES / 8;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let chunk = words.div_ceil(threads.max(1));
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for (d, from) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(from));
            }
        });
        let secs = start.elapsed().as_secs_f64();
        best = best.max(2.0 * STREAM_ARRAY_BYTES as f64 / secs / 1e9);
    }
    black_box(&dst);
    best
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `"unknown"` outside a git checkout.
pub(crate) fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The instruction-set features the kernels were compiled for. Result bits
/// are pinned per ISA (the workspace builds with `target-cpu=native`), so
/// goldens are keyed by this.
pub(crate) fn isa() -> String {
    let mut isa = std::env::consts::ARCH.to_string();
    for (feature, on) in [
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
    ] {
        if on {
            isa.push('+');
            isa.push_str(feature);
        }
    }
    isa
}
