//! Deterministic time-series gauge sampling on the virtual clock.
//!
//! A [`GaugeSampler`] is a [`Daemon`](crate::Daemon) that reads a set
//! of registered gauges — read-only closures returning an instantaneous
//! `u64` (link utilization percent, disk queue depth, pagecache
//! occupancy) — every `period` of *virtual* time, aligned to absolute
//! multiples of the period so the sampling instants are a function of
//! the clock alone, never of when the sampler was constructed or which
//! foreground operation moved time. Per-gauge [`GaugeStats`] summarize
//! the series (count/min/max/sum); summaries merge order-independently
//! across sweep cells, and a gauge that never sampled still contributes
//! a stable zero row.
//!
//! **Per-host zero-row rule:** gauges whose name carries a per-host
//! segment (`.c<i>.` or `.s<j>.`, the client/server host namespaces)
//! are *dropped* from [`GaugeSampler::stats`] while they have no
//! samples. A thousand-client topology registers a per-host gauge per
//! client; emitting a stable zero row for each would swamp every
//! report with thousands of constant lines. Global gauge names keep
//! the stable-zero-row guarantee unchanged. The rule is deterministic
//! (a pure function of the name and the sample count), so report bytes
//! remain independent of jobs/snapshot mode.

use crate::clock::{SimDuration, SimTime};
use crate::Daemon;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Summary of one gauge's sampled series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeStats {
    /// Number of samples taken.
    pub samples: u64,
    /// Smallest sampled value (0 when `samples == 0`).
    pub min: u64,
    /// Largest sampled value (0 when `samples == 0`).
    pub max: u64,
    /// Sum of sampled values (mean = `sum / samples`).
    pub sum: u64,
}

impl GaugeStats {
    /// Folds one sample in.
    pub fn observe(&mut self, v: u64) {
        if self.samples == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.samples += 1;
        self.sum += v;
    }

    /// Merges another summary in. Commutative and associative, with
    /// empty summaries as identity — fragment merge order does not
    /// matter.
    pub fn merge(&mut self, other: &GaugeStats) {
        if other.samples == 0 {
            return;
        }
        if self.samples == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.samples += other.samples;
        self.sum += other.sum;
    }
}

type GaugeFn = Box<dyn Fn() -> u64>;

/// Whether a gauge name addresses one host of a topology: it contains
/// a dotted `c<digits>` or `s<digits>` segment (`disk.s2.busy_pct`,
/// `cache.c731.pages`). Per-host gauges follow the zero-row rule in
/// the [module docs](self).
pub(crate) fn per_host_gauge(name: &str) -> bool {
    name.split('.').any(|seg| {
        let mut chars = seg.chars();
        matches!(chars.next(), Some('c') | Some('s'))
            && chars.clone().next().is_some()
            && chars.all(|c| c.is_ascii_digit())
    })
}

/// Virtual-clock gauge sampler. The sampling contract is in the
/// `gauge` module's docs.
pub struct GaugeSampler {
    period: SimDuration,
    /// Next sampling instant, always an absolute multiple of `period`.
    next: Cell<u64>,
    gauges: RefCell<Vec<(String, GaugeFn)>>,
    /// Parallel to `gauges` (registration order), so a tick indexes
    /// instead of looking names up; sorted by name only in `stats()`.
    stats: RefCell<Vec<GaugeStats>>,
}

impl std::fmt::Debug for GaugeSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaugeSampler")
            .field("period", &self.period)
            .field("gauges", &self.gauges.borrow().len())
            .finish()
    }
}

impl GaugeSampler {
    /// A sampler with the given virtual-time cadence.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "gauge period must be non-zero");
        GaugeSampler {
            period,
            next: Cell::new(period.as_nanos()),
            gauges: RefCell::new(Vec::new()),
            stats: RefCell::new(Vec::new()),
        }
    }

    /// Registers a gauge. The closure must be read-only with respect to
    /// simulation state (it runs from a daemon callback and must not
    /// perturb counters, RNG, or the clock). Registering also creates
    /// the zero-valued stats row, so never-sampled runs still report
    /// the gauge — unless the name is per-host (see the module docs),
    /// in which case the row only materializes once it has samples.
    pub fn register(&self, name: impl Into<String>, f: impl Fn() -> u64 + 'static) {
        self.stats.borrow_mut().push(GaugeStats::default());
        self.gauges.borrow_mut().push((name.into(), Box::new(f)));
    }

    /// Re-arms the schedule from `now` (next sample at the next
    /// absolute multiple of the period) and zeroes the collected stats;
    /// the testbed calls this at the end of construction so the settle
    /// phase doesn't pollute measured series.
    pub fn reset(&self, now: SimTime) {
        let p = self.period.as_nanos();
        let n = now.as_nanos();
        self.next.set((n / p + 1) * p);
        self.stats.borrow_mut().fill(GaugeStats::default());
    }

    /// Snapshot of the per-gauge summaries. Registered-but-never-
    /// sampled gauges appear with `samples == 0`, except per-host
    /// names (see the module docs), which are filtered while empty.
    pub fn stats(&self) -> BTreeMap<String, GaugeStats> {
        let mut out: BTreeMap<String, GaugeStats> = BTreeMap::new();
        for ((name, _), g) in self.gauges.borrow().iter().zip(self.stats.borrow().iter()) {
            if g.samples > 0 || !per_host_gauge(name) {
                // Two gauges registered under one name share a row.
                out.entry(name.clone()).or_default().merge(g);
            }
        }
        out
    }

    /// The next sampling instant, or `None` when no gauges are
    /// registered (an idle sampler schedules nothing). The owner arms
    /// the first wakeup with [`Sim::schedule_daemon`] at this time —
    /// after any [`reset`](GaugeSampler::reset) — and the sampler
    /// re-schedules itself from then on.
    ///
    /// [`Sim::schedule_daemon`]: crate::Sim::schedule_daemon
    pub fn next_wake(&self) -> Option<SimTime> {
        if self.gauges.borrow().is_empty() {
            return None;
        }
        Some(SimTime::from_nanos(self.next.get()))
    }
}

impl Daemon for GaugeSampler {
    fn fire(&self, now: SimTime) -> Option<SimTime> {
        let next = self.next.get();
        if now.as_nanos() < next {
            // Stale wakeup: a reset() pushed the schedule forward
            // after this event was armed. Re-arm without sampling.
            return Some(SimTime::from_nanos(next));
        }
        let gauges = self.gauges.borrow();
        let mut stats = self.stats.borrow_mut();
        for ((_, f), g) in gauges.iter().zip(stats.iter_mut()) {
            g.observe(f());
        }
        self.next.set(next + self.period.as_nanos());
        Some(SimTime::from_nanos(self.next.get()))
    }

    fn name(&self) -> &str {
        "gauge-sampler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostId, Sim};
    use std::rc::{Rc, Weak};

    /// Arms the sampler's first wakeup the way the testbed does.
    fn arm(sim: &Sim, g: &Rc<GaugeSampler>) {
        sim.schedule_daemon(
            g.next_wake().expect("gauges registered"),
            HostId::BACKGROUND,
            Rc::downgrade(g) as Weak<dyn Daemon>,
        );
    }

    #[test]
    fn cadence_follows_virtual_time_only() {
        let sim = Sim::new(1);
        let g = Rc::new(GaugeSampler::new(SimDuration::from_millis(100)));
        let times = Rc::new(RefCell::new(Vec::new()));
        {
            let sim2 = Rc::clone(&sim);
            let times = Rc::clone(&times);
            g.register("clock.ms", move || {
                times.borrow_mut().push(sim2.now().as_nanos());
                sim2.now().as_nanos() / 1_000_000
            });
        }
        arm(&sim, &g);
        sim.advance(SimDuration::from_millis(350));
        assert_eq!(
            *times.borrow(),
            vec![100_000_000, 200_000_000, 300_000_000],
            "samples land exactly on period multiples of the virtual clock"
        );
        let s = g.stats()["clock.ms"];
        assert_eq!(s.samples, 3);
        assert_eq!((s.min, s.max, s.sum), (100, 300, 600));
    }

    #[test]
    fn reset_realigns_to_absolute_multiples() {
        let sim = Sim::new(1);
        let g = Rc::new(GaugeSampler::new(SimDuration::from_millis(100)));
        g.register("x", || 7);
        arm(&sim, &g);
        // Construction-phase time passes mid-period...
        sim.advance(SimDuration::from_millis(250));
        g.reset(sim.now());
        // ...and the next sample still lands on an absolute multiple.
        sim.advance(SimDuration::from_millis(100));
        let s = g.stats()["x"];
        // Samples at 100ms and 200ms happened before the reset wiped
        // them; the one surviving sample is t=300ms.
        assert_eq!(s.samples, 1, "sampled at t=300ms, earlier points wiped");
        assert_eq!(s.sum, 7);
    }

    #[test]
    fn stale_wakeup_after_reset_skips_sampling() {
        let sim = Sim::new(1);
        let g = Rc::new(GaugeSampler::new(SimDuration::from_millis(100)));
        g.register("x", || 7);
        arm(&sim, &g);
        // A reset *forward* (to a later multiple than the armed
        // wakeup) leaves a stale event in the calendar; it must
        // re-arm silently rather than sample early.
        g.reset(SimTime::from_nanos(
            SimDuration::from_millis(250).as_nanos(),
        ));
        sim.advance(SimDuration::from_millis(250));
        assert_eq!(g.stats()["x"].samples, 0, "wakeups before 300ms are stale");
        sim.advance(SimDuration::from_millis(100));
        assert_eq!(g.stats()["x"].samples, 1, "sampled at the reset cadence");
    }

    #[test]
    fn merge_is_order_independent_with_empty_identity() {
        let mut a = GaugeStats::default();
        a.observe(5);
        a.observe(1);
        let mut b = GaugeStats::default();
        b.observe(9);
        let empty = GaugeStats::default();

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!((ab.samples, ab.min, ab.max, ab.sum), (3, 1, 9, 15));

        let mut with_empty = a;
        with_empty.merge(&empty);
        assert_eq!(with_empty, a, "empty is right identity");
        let mut from_empty = empty;
        from_empty.merge(&a);
        assert_eq!(from_empty, a, "empty is left identity");
    }

    #[test]
    fn unsampled_gauges_emit_stable_zero_rows() {
        let g = GaugeSampler::new(SimDuration::from_millis(100));
        g.register("never.sampled", || 42);
        let s = g.stats();
        assert_eq!(s["never.sampled"], GaugeStats::default());
        // Reset keeps the row.
        g.reset(SimTime::ZERO);
        assert_eq!(g.stats()["never.sampled"], GaugeStats::default());
    }

    #[test]
    fn per_host_names_are_recognized() {
        assert!(per_host_gauge("disk.s2.busy_pct"));
        assert!(per_host_gauge("cache.c731.pages"));
        assert!(per_host_gauge("c0.x"));
        assert!(!per_host_gauge("disk.busy_pct"));
        assert!(!per_host_gauge("link.util_pct"));
        assert!(!per_host_gauge("cache.chunks.total"), "non-numeric tail");
        assert!(!per_host_gauge("s.x"), "bare prefix is not a host");
    }

    #[test]
    fn empty_per_host_rows_are_filtered_until_sampled() {
        let sim = Sim::new(1);
        let g = Rc::new(GaugeSampler::new(SimDuration::from_millis(100)));
        g.register("disk.s1.busy_pct", || 3);
        g.register("global.row", || 9);
        // Unsampled: the per-host row is hidden, the global row stays.
        let s = g.stats();
        assert!(!s.contains_key("disk.s1.busy_pct"));
        assert_eq!(s["global.row"], GaugeStats::default());
        // Once sampled, the per-host row appears like any other.
        arm(&sim, &g);
        sim.advance(SimDuration::from_millis(150));
        let s = g.stats();
        assert_eq!(s["disk.s1.busy_pct"].samples, 1);
        assert_eq!(s["disk.s1.busy_pct"].sum, 3);
    }

    #[test]
    fn idle_sampler_schedules_nothing() {
        let g = GaugeSampler::new(SimDuration::from_millis(100));
        assert_eq!(g.next_wake(), None, "no gauges, no wakeups");
        g.register("x", || 1);
        assert!(g.next_wake().is_some());
    }
}
