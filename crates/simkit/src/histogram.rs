//! Log-bucketed latency histograms and a named-histogram registry.
//!
//! Buckets follow an HDR-style scheme: values below 8 get exact
//! buckets; above that, each power of two is split into 8 sub-buckets,
//! bounding the relative quantile error at 12.5%. All state is plain
//! integers, so recording, querying, and [`Histogram::merge`] are
//! fully deterministic — two runs that record the same value sequence
//! produce bit-identical histograms, which is what lets run reports be
//! byte-compared across runs.

use crate::clock::SimDuration;
use crate::intern::{KeyId, SymbolTable};
use std::cell::RefCell;
use std::rc::Rc;

/// Sub-buckets per power of two (as a shift).
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS; // 8
/// Enough buckets for the full u64 range: group 0 holds values 0..8
/// exactly; groups 1..=61 each hold one power of two.
const BUCKETS: usize = 62 * SUBS;

/// Bucket index for `v`.
fn index_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let group = (exp - SUB_BITS + 1) as usize;
    let sub = ((v >> (exp - SUB_BITS)) as usize) - SUBS;
    group * SUBS + sub
}

/// Inclusive upper bound of bucket `idx` (the value reported for
/// quantiles landing in it).
fn upper_bound(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let group = (idx / SUBS) as u32;
    let sub = (idx % SUBS) as u128;
    // The topmost buckets would overflow u64; clamp to u64::MAX.
    let ub = ((SUBS as u128 + sub + 1) << (group - 1)) - 1;
    ub.min(u64::MAX as u128) as u64
}

/// A log-bucketed histogram of `u64` samples (typically latencies in
/// nanoseconds).
///
/// # Example
///
/// ```
/// use simkit::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.p50() >= 200 && h.p99() >= 10_000);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("p50", &self.p50())
            .field("p90", &self.p90())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[index_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Value at quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the bucket containing the `ceil(q * count)`-th sample (0 if
    /// empty). The true max is reported for `q = 1`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = crate::units::f64_to_u64((q * crate::units::to_f64(self.count)).ceil()).max(1);
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges `other` into `self` bucket-by-bucket. Deterministic:
    /// merge order never changes any reported statistic.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A registry of named [`Histogram`]s, shared via [`crate::Sim`] so
/// any layer can record latencies under a dotted name such as
/// `rpc.nfs.lookup` or `disk.m0.service`.
///
/// Hot paths should obtain a [`MetricHandle`] once at wiring time and
/// record through it — a handle record touches the histogram directly,
/// with no per-sample name formatting or map lookup.
///
/// Names are interned (see [`crate::intern`]): series live in a `Vec`
/// indexed by dense [`KeyId`], and name-keyed listings are materialized
/// in name order only at snapshot time.
#[derive(Debug, Default)]
pub struct Metrics {
    table: SymbolTable,
    slots: RefCell<Vec<Rc<RefCell<Histogram>>>>,
}

/// A live reference to one named histogram.
///
/// Handles stay valid across [`Metrics::reset`] (reset empties the
/// shared histogram in place), so components wired before a
/// measurement window keep recording into the same series afterwards.
#[derive(Debug, Clone)]
pub struct MetricHandle(Rc<RefCell<Histogram>>);

impl MetricHandle {
    /// Records one sample.
    pub(crate) fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Records a duration as its nanosecond count.
    pub fn record_duration(&self, d: SimDuration) {
        self.record(d.as_nanos());
    }
}

impl Metrics {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Metrics::default()
    }

    /// Interns `name` and returns its dense id, creating an empty
    /// series if absent. The id stays valid for the life of this
    /// registry (including across [`reset`](Metrics::reset)).
    pub(crate) fn id(&self, name: &str) -> KeyId {
        let id = self.table.intern(name);
        let mut slots = self.slots.borrow_mut();
        while slots.len() <= id.index() {
            slots.push(Rc::new(RefCell::new(Histogram::new())));
        }
        id
    }

    /// Records `v` into the series behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry.
    pub(crate) fn record_id(&self, id: KeyId, v: u64) {
        self.slots.borrow()[id.index()].borrow_mut().record(v);
    }

    /// Records `v` into the histogram named `name`, creating it if
    /// absent.
    pub(crate) fn record(&self, name: &str, v: u64) {
        match self.table.lookup(name) {
            Some(id) => self.record_id(id, v),
            None => self.record_id(self.id(name), v),
        }
    }

    /// Records a duration (in nanoseconds) under `name`.
    pub fn record_duration(&self, name: &str, d: SimDuration) {
        self.record(name, d.as_nanos());
    }

    /// Returns a live handle to the histogram named `name`, creating
    /// an empty one if absent. See [`MetricHandle`].
    pub fn handle(&self, name: &str) -> MetricHandle {
        let id = self.id(name);
        MetricHandle(Rc::clone(&self.slots.borrow()[id.index()]))
    }

    /// A copy of the histogram named `name`, if any samples were
    /// recorded under it.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.table
            .lookup(name)
            .map(|id| self.slots.borrow()[id.index()].borrow().clone())
            .filter(|h| h.count() > 0)
    }

    /// Copies of all non-empty histograms, in name order. Names that
    /// exist only as never-recorded (or reset) handles are skipped, so
    /// reports only ever show series with samples.
    pub fn snapshot(&self) -> Vec<(String, Histogram)> {
        let slots = self.slots.borrow();
        self.table
            .sorted_ids()
            .into_iter()
            .filter(|id| slots[id.index()].borrow().count() > 0)
            .map(|id| (self.table.name(id), slots[id.index()].borrow().clone()))
            .collect()
    }

    /// Empties every histogram. Names are retained and existing
    /// [`MetricHandle`]s stay attached to their (now empty) series.
    pub fn reset(&self) {
        for v in self.slots.borrow().iter() {
            *v.borrow_mut() = Histogram::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0 / 8.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_tight() {
        let mut prev = 0;
        for idx in 0..BUCKETS {
            let ub = upper_bound(idx);
            assert!(idx == 0 || ub > prev, "idx {idx}: {ub} <= {prev}");
            prev = ub;
        }
        // Every value lands in a bucket whose bounds contain it, with
        // bounded relative error.
        for v in [1u64, 7, 8, 9, 100, 1_000, 123_456, 10_000_000_000] {
            let ub = upper_bound(index_of(v));
            assert!(ub >= v, "{v} above its bucket upper bound {ub}");
            assert!(
                ub as f64 <= v as f64 * 1.125 + 1.0,
                "{v} bucket too wide: {ub}"
            );
        }
    }

    #[test]
    fn quantiles_order_correctly() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
        // p50 of 1..=1000 (x1000 ns) is ~500_000 within bucket error.
        let p50 = h.p50() as f64;
        assert!((440_000.0..=570_000.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in [5u64, 900, 32_000, 1_000_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [1u64, 64, 2_000_000_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        assert_eq!(a.count(), 7);
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        // The sweep engine merges per-cell histograms in cell-index
        // order, but correctness must not depend on that: merging the
        // same parts in any order yields an identical histogram.
        let parts: Vec<Histogram> = (0..5u64)
            .map(|i| {
                let mut h = Histogram::new();
                for k in 0..50 {
                    h.record(i * 1_000 + k * 37 + 1);
                }
                h
            })
            .collect();
        let mut forward = Histogram::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = Histogram::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        let mut shuffled = Histogram::new();
        for i in [3usize, 0, 4, 2, 1] {
            shuffled.merge(&parts[i]);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward, shuffled);
        assert_eq!(forward.p50(), shuffled.p50());
        assert_eq!(forward.p99(), shuffled.p99());
    }

    #[test]
    fn metric_handles_share_and_survive_reset() {
        let m = Metrics::new();
        let h = m.handle("rpc.nfs.read");
        assert!(
            m.snapshot().is_empty(),
            "a bare handle is not a recorded series"
        );
        h.record(100);
        m.record("rpc.nfs.read", 300);
        assert_eq!(m.histogram("rpc.nfs.read").unwrap().count(), 2);
        m.reset();
        assert!(m.snapshot().is_empty());
        assert!(m.histogram("rpc.nfs.read").is_none());
        h.record(7);
        assert_eq!(
            m.histogram("rpc.nfs.read").unwrap().count(),
            1,
            "handle stays attached after reset"
        );
    }

    #[test]
    fn metrics_registry_records_and_snapshots() {
        let m = Metrics::new();
        assert!(m.snapshot().is_empty());
        m.record("rpc.nfs.lookup", 100);
        m.record("rpc.nfs.lookup", 200);
        m.record_duration("disk.service", SimDuration::from_micros(5));
        assert_eq!(m.snapshot().len(), 2);
        assert_eq!(m.histogram("rpc.nfs.lookup").unwrap().count(), 2);
        assert!(m.histogram("absent").is_none());
        let snap = m.snapshot();
        assert_eq!(snap[0].0, "disk.service");
        assert_eq!(snap[0].1.max(), 5_000);
        m.reset();
        assert!(m.snapshot().is_empty());
    }
}
