//! Deterministic simulation core for the `ipstorage` testbed.
//!
//! Every component of the testbed (disks, network links, file systems,
//! protocol clients and servers) shares a single [`Sim`] context that
//! provides:
//!
//! * a virtual clock measured in nanoseconds ([`SimTime`], [`SimDuration`]),
//! * a discrete-event calendar ([`events::EventQueue`]) of *daemons* —
//!   background activities such as the ext3 journal commit timer or
//!   the gauge sampler that must fire while the virtual clock advances
//!   through a foreground operation,
//! * a seeded, deterministic random number generator ([`SplitMix64`]),
//! * named [`Counters`] used for message/byte accounting.
//!
//! The simulation is deliberately single threaded: determinism is what
//! lets the experiment harness regenerate the paper's tables exactly on
//! every run. Advancing the clock drains the event calendar in
//! `(time, host, seq)` order — see [`events`] for the total-order
//! contract — rather than polling every registered component per step,
//! so idle components cost nothing.
//!
//! # Example
//!
//! ```
//! use simkit::{Sim, SimDuration};
//!
//! let sim = Sim::new(42);
//! sim.advance(SimDuration::from_millis(5));
//! assert_eq!(sim.now().as_nanos(), 5_000_000);
//! ```

pub mod chrome;
mod clock;
mod counters;
pub mod critpath;
pub mod events;
mod gauge;
mod histogram;
pub mod intern;
mod rng;
pub mod sweep;
mod trace;
pub mod units;

pub use clock::{SimDuration, SimTime};
pub use counters::{CounterHandle, CounterSnapshot, Counters};
pub use events::{EventId, EventKey, EventQueue, EventQueueStats};
pub use gauge::{GaugeSampler, GaugeStats};
pub use histogram::{Histogram, MetricHandle, Metrics};
pub use intern::KeyId;
pub use rng::SplitMix64;
pub use trace::{HostId, SpanCtx, SpanId, SpanRecord, TraceId, Tracer, DEFAULT_TRACE_CAPACITY};
pub use units::{Bps, Bytes};

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

/// A background activity that fires at scheduled points in virtual time.
///
/// Daemons are *scheduled*, not polled: a component arms its first
/// wakeup with [`Sim::schedule_daemon`], and each
/// [`fire`](Daemon::fire) returns the next wake time (the simulation
/// re-schedules it on the same host automatically) or `None` to go
/// idle. An idle daemon costs nothing until something schedules it
/// again.
///
/// Implementations typically wrap their mutable state in a `RefCell`;
/// `fire` must not re-enter [`Sim::advance`].
pub trait Daemon {
    /// Run the daemon's work at virtual time `now` and return the next
    /// virtual time it wants to run, or `None` to go idle.
    fn fire(&self, now: SimTime) -> Option<SimTime>;
    /// Short name used in diagnostics.
    fn name(&self) -> &str {
        "daemon"
    }
}

/// Shared simulation context. See the [crate documentation](crate) for
/// an overview.
pub struct Sim {
    now: Cell<u64>,
    /// Pending daemon wakeups, drained in `(time, host, seq)` order.
    events: RefCell<EventQueue<Weak<dyn Daemon>>>,
    rng: RefCell<SplitMix64>,
    counters: Counters,
    metrics: Metrics,
    tracer: Tracer,
    /// Guards against re-entrant `advance` calls from daemon callbacks.
    advancing: Cell<bool>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("pending_events", &self.events.borrow().len())
            .finish()
    }
}

impl Sim {
    /// Creates a new simulation context with the given RNG seed.
    pub fn new(seed: u64) -> Rc<Self> {
        // The tracer derives causal span IDs from the same seed, so
        // equal-seed runs trace identically.
        let tracer = Tracer::new();
        tracer.set_seed(seed);
        Rc::new(Sim {
            now: Cell::new(0),
            // A full testbed keeps a handful of timers in flight
            // (journal commit, write-back, gauge sampling, ...);
            // pre-size so arming them never reallocates mid-run.
            events: RefCell::new(EventQueue::with_capacity(16)),
            rng: RefCell::new(SplitMix64::new(seed)),
            counters: Counters::new(),
            metrics: Metrics::new(),
            tracer,
            advancing: Cell::new(false),
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now.get())
    }

    /// Named counters shared by all components.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Named latency histograms shared by all components.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The span tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Draws a value from the simulation RNG.
    pub fn rng_u64(&self) -> u64 {
        self.rng.borrow_mut().next_u64()
    }

    /// Schedules a daemon wakeup at virtual time `at`, attributed to
    /// `host` for equal-time ordering (see [`events::EventKey`]). The
    /// simulation holds only a weak reference, so dropping the
    /// component cancels its pending wakeups automatically. When the
    /// event fires, the value [`Daemon::fire`] returns re-schedules
    /// the daemon on the same host; returning `None` idles it.
    pub fn schedule_daemon(&self, at: SimTime, host: HostId, d: Weak<dyn Daemon>) -> EventId {
        self.events.borrow_mut().schedule(at, host, d)
    }

    /// Lifetime activity counters of the event calendar (the
    /// `event_bench` binary reports these).
    pub fn event_stats(&self) -> EventQueueStats {
        self.events.borrow().stats()
    }

    /// Advances virtual time by `dt`, draining the event calendar:
    /// every wakeup due in the interval fires in `(time, host, seq)`
    /// order, and a daemon that returns a next wake time is
    /// re-scheduled before the drain continues.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from a daemon's `fire`.
    pub fn advance(&self, dt: SimDuration) {
        assert!(
            !self.advancing.get(),
            "Sim::advance called re-entrantly from a daemon"
        );
        let target = self.now.get() + dt.as_nanos();
        loop {
            // The borrow must not be held across `fire`: daemons may
            // schedule further events.
            let popped = self
                .events
                .borrow_mut()
                .pop_due(SimTime::from_nanos(target));
            let Some((key, weak)) = popped else { break };
            let Some(daemon) = weak.upgrade() else {
                continue; // component dropped; its wakeup dies with it
            };
            // An event scheduled in the past (e.g. armed before a
            // snapshot epoch shift) fires "now": the clock never runs
            // backwards.
            let t = key.time.as_nanos().max(self.now.get());
            self.now.set(t);
            self.advancing.set(true);
            // Daemon work is causally unrelated to whichever request is
            // advancing the clock: shelve the tracer's open-span stack
            // so daemon-recorded spans become roots of their own traces
            // instead of nesting under the foreground operation.
            self.tracer.shelve_stack();
            let next = daemon.fire(SimTime::from_nanos(t));
            self.tracer.unshelve_stack();
            self.advancing.set(false);
            if let Some(at) = next {
                let at = at.max(SimTime::from_nanos(t));
                self.events.borrow_mut().schedule(at, key.host, weak);
            }
        }
        self.now.set(target);
    }

    /// Advances virtual time to `t` (no-op if `t` is in the past).
    pub fn advance_to(&self, t: SimTime) {
        let now = self.now.get();
        if t.as_nanos() > now {
            self.advance(SimDuration::from_nanos(t.as_nanos() - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    struct Ticker {
        period: SimDuration,
        fired: RefCell<Vec<u64>>,
    }

    impl Daemon for Ticker {
        fn fire(&self, now: SimTime) -> Option<SimTime> {
            self.fired.borrow_mut().push(now.as_nanos());
            Some(now + self.period)
        }
    }

    #[test]
    fn clock_advances() {
        let sim = Sim::new(1);
        assert_eq!(sim.now().as_nanos(), 0);
        sim.advance(SimDuration::from_micros(3));
        assert_eq!(sim.now().as_nanos(), 3_000);
        sim.advance(SimDuration::from_nanos(10));
        assert_eq!(sim.now().as_nanos(), 3_010);
    }

    #[test]
    fn daemon_fires_on_schedule() {
        let sim = Sim::new(1);
        let t = Rc::new(Ticker {
            period: SimDuration::from_secs(5),
            fired: RefCell::new(Vec::new()),
        });
        sim.schedule_daemon(
            SimTime::ZERO + SimDuration::from_secs(5),
            HostId::SERVER,
            Rc::downgrade(&t) as Weak<dyn Daemon>,
        );
        sim.advance(SimDuration::from_secs(12));
        assert_eq!(
            *t.fired.borrow(),
            vec![
                SimDuration::from_secs(5).as_nanos(),
                SimDuration::from_secs(10).as_nanos()
            ]
        );
        assert_eq!(sim.now().as_secs_f64(), 12.0);
    }

    #[test]
    fn multiple_daemons_fire_in_order() {
        let sim = Sim::new(1);
        let a = Rc::new(Ticker {
            period: SimDuration::from_secs(3),
            fired: RefCell::new(Vec::new()),
        });
        let b = Rc::new(Ticker {
            period: SimDuration::from_secs(2),
            fired: RefCell::new(Vec::new()),
        });
        sim.schedule_daemon(
            SimTime::ZERO + SimDuration::from_secs(3),
            HostId::SERVER,
            Rc::downgrade(&a) as Weak<dyn Daemon>,
        );
        sim.schedule_daemon(
            SimTime::ZERO + SimDuration::from_secs(2),
            HostId::SERVER,
            Rc::downgrade(&b) as Weak<dyn Daemon>,
        );
        sim.advance(SimDuration::from_secs(6));
        assert_eq!(a.fired.borrow().len(), 2); // 3s, 6s
        assert_eq!(b.fired.borrow().len(), 3); // 2s, 4s, 6s
    }

    #[test]
    fn equal_time_wakeups_fire_in_host_order() {
        let sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        struct Tag {
            order: Rc<RefCell<Vec<u16>>>,
            tag: u16,
        }
        impl Daemon for Tag {
            fn fire(&self, _now: SimTime) -> Option<SimTime> {
                self.order.borrow_mut().push(self.tag);
                None
            }
        }
        let at = SimTime::ZERO + SimDuration::from_secs(1);
        // Scheduled high-host first: pop order must follow hosts, not
        // insertion.
        let mk = |tag| {
            Rc::new(Tag {
                order: Rc::clone(&order),
                tag,
            })
        };
        let (d9, d0, d3) = (mk(9), mk(0), mk(3));
        sim.schedule_daemon(at, HostId(9), Rc::downgrade(&d9) as Weak<dyn Daemon>);
        sim.schedule_daemon(at, HostId(0), Rc::downgrade(&d0) as Weak<dyn Daemon>);
        sim.schedule_daemon(at, HostId(3), Rc::downgrade(&d3) as Weak<dyn Daemon>);
        sim.advance(SimDuration::from_secs(2));
        assert_eq!(*order.borrow(), vec![0, 3, 9]);
    }

    #[test]
    fn dropped_daemon_is_unregistered() {
        let sim = Sim::new(1);
        let t = Rc::new(Ticker {
            period: SimDuration::from_secs(1),
            fired: RefCell::new(Vec::new()),
        });
        sim.schedule_daemon(
            SimTime::ZERO,
            HostId::SERVER,
            Rc::downgrade(&t) as Weak<dyn Daemon>,
        );
        drop(t);
        // Must not panic or loop: the weak ref is dead.
        sim.advance(SimDuration::from_secs(10));
        assert_eq!(sim.events.borrow().len(), 0);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let sim = Sim::new(1);
        sim.advance_to(SimTime::from_nanos(100));
        assert_eq!(sim.now().as_nanos(), 100);
        sim.advance_to(SimTime::from_nanos(50)); // past: no-op
        assert_eq!(sim.now().as_nanos(), 100);
    }

    #[test]
    fn rng_is_deterministic() {
        let a = Sim::new(7);
        let b = Sim::new(7);
        for _ in 0..100 {
            assert_eq!(a.rng_u64(), b.rng_u64());
        }
    }
}
