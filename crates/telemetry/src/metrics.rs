//! Global metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms, addressed by `crate.component.metric` names.
//!
//! Hot-path values are `u64` in relaxed atomics (nanoseconds, counts,
//! bytes) — no float arithmetic happens under contention. Gauges store
//! `f64::to_bits` in an `AtomicU64` and are meant for low-rate state like
//! the current training loss, not per-element updates.
//!
//! Instrumentation sites should hold a [`LazyCounter`] / [`LazyGauge`] /
//! [`LazyHistogram`] in a `static`: the first enabled use resolves the
//! registry entry once and caches the `Arc`, so the steady-state cost of a
//! counter bump is one relaxed load (the enabled gate) plus one relaxed
//! `fetch_add`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonically increasing `u64` count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` value (stored as bits; not a hot-path metric).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: powers of four from 1 up, i.e. bucket `i`
/// holds values in `[4^i, 4^(i+1))` with the last bucket open-ended.
/// 17 buckets cover `u64` values up to ~4.6e18 (≳ 2 months in ns).
pub const HISTOGRAM_BUCKETS: usize = 17;

/// Fixed-bucket `u64` histogram (power-of-four bucket edges). Records are
/// two relaxed `fetch_add`s plus one into the bucket — cheap enough for
/// per-task durations, coarse enough to need no configuration.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (((63 - v.leading_zeros()) / 2) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Lower edge of bucket `i`: 0 for bucket 0 (which also holds zero), else
/// `4^i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (2 * i)
    }
}

/// Exclusive upper edge of bucket `i`: `4^(i+1)`. The last bucket is
/// open-ended in `bucket_index`; this returns its nominal edge, which the
/// percentile interpolation uses as a finite cap.
pub fn bucket_upper(i: usize) -> u64 {
    1u64 << (2 * (i + 1))
}

impl Histogram {
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket counts.
    ///
    /// Semantics (pinned by a unit test): the target is the 1-based
    /// nearest rank `ceil(q * count)`; inside the bucket holding that rank
    /// the value is linearly interpolated at the rank's midpoint,
    /// `lo + (rank - below - 0.5) / in_bucket * (hi - lo)`, where `below`
    /// counts records in earlier buckets and `[lo, hi)` are the bucket
    /// edges ([`bucket_lower`] / [`bucket_upper`]). A single record at `v`
    /// therefore estimates every quantile as its bucket midpoint, and the
    /// open-ended last bucket is capped at its nominal `4^17` edge.
    /// Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                let frac = ((rank - below as f64 - 0.5) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            below += c;
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1) as f64
    }

    /// The latency trio exporters report: (p50, p95, p99).
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Returns the counter registered under `name`, creating it on first use.
/// Panics if `name` is already registered as a different metric kind —
/// that is a naming bug, not a runtime condition.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
    {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("telemetry metric {name:?} is not a counter"),
    }
}

/// Returns the gauge registered under `name`, creating it on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
    {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("telemetry metric {name:?} is not a gauge"),
    }
}

/// Returns the histogram registered under `name`, creating it on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
    {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("telemetry metric {name:?} is not a histogram"),
    }
}

/// A `static`-friendly counter handle: `const`-constructible, resolves its
/// registry entry on first *enabled* use and caches the `Arc` thereafter.
/// All recording methods are no-ops while telemetry is disabled.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered counter, resolving it if needed (ignores the enabled
    /// gate — used by exporters and tests that read values directly).
    pub fn force(&self) -> &Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.force().add(n);
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn value(&self) -> u64 {
        self.force().get()
    }
}

/// A `static`-friendly gauge handle; see [`LazyCounter`].
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    pub fn force(&self) -> &Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.force().set(v);
        }
    }

    pub fn value(&self) -> f64 {
        self.force().get()
    }
}

/// A `static`-friendly histogram handle; see [`LazyCounter`].
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    pub fn force(&self) -> &Histogram {
        self.cell.get_or_init(|| histogram(self.name))
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.force().record(v);
        }
    }
}

/// Point-in-time copy of every registered metric, keyed by name in sorted
/// order (BTreeMap), so two snapshots of equal state compare equal and
/// serialize identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut snap = MetricsSnapshot::default();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => {
                snap.counters.insert(name.clone(), c.get());
            }
            Metric::Gauge(g) => {
                snap.gauges.insert(name.clone(), g.get());
            }
            Metric::Histogram(h) => {
                snap.histograms.insert(name.clone(), h.snapshot());
            }
        }
    }
    snap
}

/// Zeroes every metric *value* in place while keeping the registrations,
/// so `Arc` handles cached inside `Lazy*` statics remain live.
pub(crate) fn reset_values() {
    let reg = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for metric in reg.values() {
        match metric {
            Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.0.store(0f64.to_bits(), Ordering::Relaxed),
            Metric::Histogram(h) => {
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn counters_accumulate_and_reset_in_place() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test.metrics.counter");
        C.add(2);
        C.incr();
        assert_eq!(C.value(), 3);
        crate::reset();
        assert_eq!(C.value(), 0);
        C.add(7);
        // the cached Arc still points at the registered counter
        assert_eq!(snapshot().counters["test.metrics.counter"], 7);
        crate::set_enabled(false);
    }

    #[test]
    fn gauges_hold_floats() {
        let _g = test_lock::hold();
        crate::set_enabled(true);
        static G: LazyGauge = LazyGauge::new("test.metrics.gauge");
        G.set(0.625);
        assert_eq!(G.value(), 0.625);
        assert_eq!(snapshot().gauges["test.metrics.gauge"], 0.625);
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_buckets_are_powers_of_four() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(3), 0);
        assert_eq!(bucket_index(4), 1);
        assert_eq!(bucket_index(15), 1);
        assert_eq!(bucket_index(16), 2);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let _g = test_lock::hold();
        crate::set_enabled(true);
        static H: LazyHistogram = LazyHistogram::new("test.metrics.hist");
        for v in [0, 1, 5, 100] {
            H.record(v);
        }
        let snap = H.force().snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 106);
        assert_eq!(snap.buckets[0], 2); // 0, 1
        assert_eq!(snap.buckets[1], 1); // 5
        assert_eq!(snap.buckets[3], 1); // 100 in [64, 256)
        assert_eq!(snap.mean(), 26.5);
        crate::set_enabled(false);
    }

    #[test]
    fn quantiles_interpolate_hand_computed_values() {
        // Values [0, 1, 5, 100]: buckets b0=2 ([0,4)), b1=1 ([4,16)),
        // b3=1 ([64,256)), count=4.
        let mut h = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        for v in [0u64, 1, 5, 100] {
            h.count += 1;
            h.sum += v;
            h.buckets[bucket_index(v)] += 1;
        }
        // p50: rank ceil(0.5*4)=2 lands in b0 (2 records). Interpolate at
        // rank midpoint: 0 + (2 - 0 - 0.5)/2 * (4 - 0) = 3.0.
        assert_eq!(h.quantile(0.50), 3.0);
        // p95: rank ceil(0.95*4)=4 lands in b3 (1 record, 3 below):
        // 64 + (4 - 3 - 0.5)/1 * (256 - 64) = 160.0.
        assert_eq!(h.quantile(0.95), 160.0);
        // p99: same rank 4 as p95 with only 4 records.
        assert_eq!(h.quantile(0.99), 160.0);
        assert_eq!(h.percentiles(), (3.0, 160.0, 160.0));

        // A single record estimates every quantile at its bucket midpoint:
        // 10 falls in [4, 16), midpoint 10.0.
        let mut single = HistogramSnapshot {
            count: 1,
            sum: 10,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        single.buckets[bucket_index(10)] = 1;
        assert_eq!(single.quantile(0.5), 10.0);
        assert_eq!(single.quantile(0.99), 10.0);

        // Empty histogram reports zeros.
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn bucket_edges_bracket_their_indices() {
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i).max(1)), i);
            if i < HISTOGRAM_BUCKETS - 1 {
                assert_eq!(bucket_index(bucket_upper(i) - 1), i);
                assert_eq!(bucket_index(bucket_upper(i)), i + 1);
            }
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 4);
        assert_eq!(bucket_lower(2), 16);
        assert_eq!(bucket_upper(2), 64);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let _g = gauge("test.metrics.kind_mismatch");
        let _c = counter("test.metrics.kind_mismatch");
    }

    #[test]
    fn snapshot_keys_are_sorted() {
        let _g = test_lock::hold();
        let _ = counter("test.metrics.zz");
        let _ = counter("test.metrics.aa");
        let snap = snapshot();
        let keys: Vec<&String> = snap.counters.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
