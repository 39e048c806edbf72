//! Timing, counting and output digests for the timed section.

use crate::workloads::{pass, Prepared, Seed, Size, Workload};
use ahw_nn::NnError;
use std::time::{Duration, Instant};

/// FNV-1a over 32-bit words: an order-sensitive fold of result bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u32) {
        self.0 ^= u64::from(w);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds a 64-bit value.
    pub(crate) fn u64(&mut self, v: u64) {
        self.word(v as u32);
        self.word((v >> 32) as u32);
    }

    /// Folds the bits of an `f32`.
    pub(crate) fn f32(&mut self, v: f32) {
        self.word(v.to_bits());
    }

    /// Folds the bits of every `f32` in `vs`, in order.
    pub(crate) fn f32s(&mut self, vs: &[f32]) {
        for &v in vs {
            self.word(v.to_bits());
        }
    }

    /// The folded value.
    pub(crate) fn value(self) -> u64 {
        self.0
    }
}

/// What one pass records: its timed calls, their outcomes and a digest of
/// every result.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    /// Digest of the pass's results, in call order.
    pub(crate) digest: Digest,
    /// Latency of each primary op, in milliseconds.
    op_ms: Vec<f64>,
    /// Wall time of every timed call of the pass, primary or not.
    busy: Duration,
    /// Timed calls made.
    attempted: u64,
    /// Timed calls that returned `Err`, plus output checks that failed.
    failed: u64,
    /// Weight cells mapped onto crossbars.
    pub(crate) mapped_cells: u64,
    /// What went wrong, for stderr.
    errors: Vec<String>,
}

impl Recorder {
    fn timed<T>(&mut self, f: impl FnOnce() -> Result<T, NnError>) -> (Option<T>, f64) {
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        self.busy += elapsed;
        self.attempted += 1;
        let ms = elapsed.as_secs_f64() * 1e3;
        match result {
            Ok(v) => (Some(v), ms),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e.to_string());
                (None, ms)
            }
        }
    }

    /// Times a primary op (a PGD `evaluate_mode`, a `select_noise_sites`, or
    /// an `xbar_map` mapping): its latency joins the op median. An `Err`
    /// counts as a failure.
    pub(crate) fn op<T>(&mut self, f: impl FnOnce() -> Result<T, NnError>) -> Option<T> {
        let (result, ms) = self.timed(f);
        self.op_ms.push(ms);
        result
    }

    /// Times a secondary call (FGSM, plan installation, mapping before an
    /// attack): it counts toward the pass time but not the op median.
    pub(crate) fn call<T>(&mut self, f: impl FnOnce() -> Result<T, NnError>) -> Option<T> {
        self.timed(f).0
    }

    /// Counts a failed output check.
    pub(crate) fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            self.errors.push(format!("check failed: {what}"));
        }
    }
}

/// Everything a timed section measured.
#[derive(Debug, Default)]
pub struct Section {
    /// Busy time of each pass, in seconds.
    pub pass_s: Vec<f64>,
    /// Latency of every primary op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Timed calls made.
    pub attempted: u64,
    /// Failed calls and checks, plus every call of a pass whose digest
    /// differs from the first pass's.
    pub failed: u64,
    /// Digest of the first pass.
    pub digest: u64,
    /// Weight cells mapped in one pass.
    pub mapped_cells: u64,
    /// Errors seen, for stderr.
    pub errors: Vec<String>,
    /// Wall time of the whole section.
    pub wall: Duration,
}

/// Repeats whole passes of `workload` until `seconds` have passed (and at
/// least `min_passes` ran), or `max_passes` ran. Every pass does the same
/// work, so every pass must produce the same digest.
pub fn timed_section(
    workload: Workload,
    prepared: &Prepared,
    size: &Size,
    seed: Seed,
    seconds: f64,
    min_passes: usize,
    max_passes: usize,
) -> Section {
    let start = Instant::now();
    let mut section = Section::default();
    while section.pass_s.len() < max_passes {
        let mut rec = Recorder::default();
        pass(workload, prepared, size, seed, &mut rec);
        let first = section.pass_s.is_empty();
        if first {
            section.digest = rec.digest.value();
            section.mapped_cells = rec.mapped_cells;
        } else if rec.digest.value() != section.digest {
            rec.failed = rec.attempted;
            rec.errors.push(format!(
                "pass {} digest {:016x} differs from the first pass's {:016x}",
                section.pass_s.len(),
                rec.digest.value(),
                section.digest
            ));
        }
        section.pass_s.push(rec.busy.as_secs_f64());
        section.op_ms.extend(rec.op_ms);
        section.attempted += rec.attempted;
        section.failed += rec.failed;
        section.errors.extend(rec.errors);
        if section.pass_s.len() >= min_passes && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    section.wall = start.elapsed();
    section
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 for no values.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.f32s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f32s(&[2.0, 1.0]);
        assert_ne!(a.value(), b.value());
    }
}
