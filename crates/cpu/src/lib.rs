//! CPU cost model and utilization accounting.
//!
//! The paper explains the server-CPU gap between the protocols by
//! their *processing paths* (§5.4): an iSCSI request traverses the
//! network layer, the SCSI server layer, and the block driver; an NFS
//! request additionally crosses the RPC layer, the NFS server, the
//! VFS, and the local file system — about twice the path length. This
//! crate encodes those paths as per-layer costs ([`CostModel`]) and
//! tracks busy time per machine ([`CpuAccount`]), reporting vmstat-style
//! windowed utilization percentiles for Tables 9 and 10.
//!
//! An account's busy total is a running sum. Of the dated samples it
//! keeps only those a utilization window can still count: until
//! [`CpuAccount::sample_from`] is called, the ones dated at or after
//! its latest charge instant (the future chunks of spread charges, and
//! the charges at that instant); from then on, all of them. A caller
//! that wants windows calls `sample_from(t0)` before the measured phase
//! and asks only for windows starting at `t0` or later. Memory then
//! stays bounded in every phase but the sampled one.
//!
//! # Example
//!
//! ```
//! use cpu::CostModel;
//! use simkit::units::Bytes;
//! let m = CostModel::p3_933();
//! // The paper's 2x processing-path observation:
//! let nfs = m.nfs_request(Bytes::new(4096));
//! let iscsi = m.iscsi_request(Bytes::new(4096));
//! assert!(nfs.as_nanos() > 1 * iscsi.as_nanos() && nfs.as_nanos() < 3 * iscsi.as_nanos());
//! ```

use simkit::units::{self, Bytes};
use simkit::{HostId, Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Per-layer CPU costs for one machine, plus a per-kilobyte
/// data-touching cost (copies and checksums).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one traversal of each fixed layer.
    pub layer: SimDuration,
    /// Extra cost per KiB of payload moved.
    pub per_kib: SimDuration,
}

impl CostModel {
    /// Calibrated for the paper's dual 933 MHz Pentium-III server:
    /// ~50 µs per layer traversal and ~8 µs per KiB touched.
    pub fn p3_933() -> CostModel {
        CostModel {
            layer: SimDuration::from_micros(50),
            per_kib: SimDuration::from_micros(8),
        }
    }

    fn path_cost(&self, layers: u32, bytes: Bytes) -> SimDuration {
        self.layer * layers as u64 + self.per_kib * bytes.get().div_ceil(1024)
    }

    /// Server cost of one NFS RPC: network → RPC → NFS server → VFS →
    /// file system → block → driver (7 layers).
    pub fn nfs_request(&self, bytes: Bytes) -> SimDuration {
        self.path_cost(7, bytes)
    }

    /// Server cost of one iSCSI command: network → SCSI server →
    /// block → driver (4 layers, about half the NFS path).
    pub fn iscsi_request(&self, bytes: Bytes) -> SimDuration {
        self.path_cost(4, bytes)
    }

    /// Client cost of one local-filesystem system call under iSCSI
    /// (VFS + ext3 + block + driver): meta-data work happens at the
    /// client, which the paper measures as order-of-magnitude higher
    /// client utilization for PostMark (Table 10).
    pub fn iscsi_client_syscall(&self) -> SimDuration {
        self.path_cost(4, Bytes::ZERO)
    }

    /// Client cost of one NFS system call (VFS + NFS client + RPC +
    /// network): thin, because the file system runs at the server.
    pub fn nfs_client_syscall(&self) -> SimDuration {
        self.path_cost(2, Bytes::ZERO)
    }

    /// Client dispatch cost of a read/write system call, excluding the
    /// data movement itself (charged per page by the cache layers).
    pub fn data_syscall(&self) -> SimDuration {
        self.layer / 2
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::p3_933()
    }
}

/// Busy-time ledger for one machine's CPU.
///
/// `charge` records busy time at an instant; utilization is derived by
/// bucketing the recorded samples into fixed windows, exactly like
/// sampling `vmstat` every 2 seconds as the paper does.
///
/// The account keeps a running busy total and only the samples a
/// utilization window can still count, so its memory does not grow
/// with the length of the run:
///
/// - Before [`sample_from`](CpuAccount::sample_from), a sample dated
///   before the latest charge *instant* (the `at` of the latest charge,
///   never one of its spread chunks) can never fall in a window, and is
///   dropped whenever the list has doubled since the last prune. What
///   stays is the future chunks of spread charges and the charges at
///   the latest instant.
/// - From `sample_from(t)` on, every sample is kept, and windows may
///   start at any instant at or after `t`.
///
/// A sample at the same instant as the one before it folds into it:
/// windows bucket by instant, so the sum is all they see.
#[derive(Default)]
pub struct CpuAccount {
    samples: RefCell<Samples>,
    /// Busy nanoseconds attributed per tag (software layer).
    by_tag: RefCell<BTreeMap<&'static str, u64>>,
    /// When instrumented, tagged charges also emit `"cpu"` spans into
    /// the tracer, attributed to this machine.
    sim: RefCell<Option<(Rc<Sim>, HostId)>>,
}

/// The samples a window can still count, and the totals.
#[derive(Default)]
struct Samples {
    /// `(at ns, busy ns)`, in recording order.
    list: Vec<(u64, u64)>,
    /// Sum of every busy sample ever recorded.
    busy: u64,
    /// Latest charge instant, in ns.
    latest: u64,
    /// The `sample_from` instant, once armed: nothing is dropped after.
    from: Option<u64>,
    /// `list.len()` after the last prune.
    kept: usize,
}

impl Samples {
    /// A list grows to at least twice this before it is pruned: four
    /// samples, the smallest `Vec` of pairs the allocator hands out.
    const MIN_KEPT: usize = 2;

    /// Notes a charge at `at`: later samples of it are dated `at` or
    /// after.
    fn charge_at(&mut self, at: u64) {
        self.latest = self.latest.max(at);
    }

    fn push(&mut self, at: u64, busy: u64) {
        self.busy += busy;
        match self.list.last_mut() {
            Some((last, b)) if *last == at => *b += busy,
            _ => self.list.push((at, busy)),
        }
    }

    /// Drops the samples dated before the latest charge instant if the
    /// account is not sampling yet and the list has doubled since the
    /// last prune.
    fn prune(&mut self) {
        if self.from.is_none() && self.list.len() >= 2 * self.kept.max(Self::MIN_KEPT) {
            let latest = self.latest;
            self.list.retain(|&(at, _)| at >= latest);
            self.kept = self.list.len();
        }
    }
}

impl std::fmt::Debug for CpuAccount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuAccount")
            .field("samples", &self.samples.borrow().list.len())
            .field("tags", &self.by_tag.borrow().len())
            .finish()
    }
}

impl CpuAccount {
    /// Creates an empty account.
    pub fn new() -> CpuAccount {
        CpuAccount::default()
    }

    /// Connects the account to a simulation tracer: tagged charges
    /// become `"cpu"` spans on `host`'s track, nested under whatever
    /// request span is open when the charge lands.
    pub fn instrument(&self, sim: Rc<Sim>, host: HostId) {
        *self.sim.borrow_mut() = Some((sim, host));
    }

    /// Keeps every sample from now on, so that utilization windows can
    /// start at `from` or later. Before this call the account keeps
    /// only what a window starting at its latest charge instant could
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `from` is before an instant already charged: samples
    /// dated between the two may be gone.
    pub fn sample_from(&self, from: SimTime) {
        let mut s = self.samples.borrow_mut();
        assert!(
            from.as_nanos() >= s.latest,
            "sampling from {from:?}, before a charge at {} ns",
            s.latest
        );
        s.from = Some(from.as_nanos());
    }

    fn trace_charge(&self, at: SimTime, busy: SimDuration, tag: &'static str) {
        if let Some((sim, host)) = self.sim.borrow().as_ref() {
            let tracer = sim.tracer();
            if tracer.enabled() {
                // The span covers the busy time itself, not any spread
                // window it is amortized over: attribution wants actual
                // processing time, and a window-length span would
                // swallow its siblings' share of the request.
                tracer.record_at(*host, "cpu", tag, at, at + busy, vec![]);
            }
        }
    }

    /// Records `busy` CPU time spent at time `at`.
    pub(crate) fn charge(&self, at: SimTime, busy: SimDuration) {
        if !busy.is_zero() {
            let mut s = self.samples.borrow_mut();
            s.charge_at(at.as_nanos());
            s.push(at.as_nanos(), busy.as_nanos());
            s.prune();
        }
    }

    /// Records `busy` CPU time spread evenly over `[at, at + span)`,
    /// for background work (write-back destaging) that a sampler like
    /// vmstat would observe as sustained load rather than a spike.
    /// The `busy % n` nanoseconds that do not divide into the `n`
    /// chunks are not recorded.
    pub(crate) fn charge_spread(&self, at: SimTime, busy: SimDuration, span: SimDuration) {
        if busy.is_zero() {
            return;
        }
        const CHUNK: u64 = 200_000_000; // 200 ms granularity
        let n = (span.as_nanos() / CHUNK).max(1);
        let per = busy.as_nanos() / n;
        if per == 0 {
            self.charge(at, busy);
            return;
        }
        let mut s = self.samples.borrow_mut();
        s.charge_at(at.as_nanos());
        for i in 0..n {
            s.push(at.as_nanos() + i * CHUNK, per);
        }
        s.prune();
    }

    /// Like `charge`, but also attributes the
    /// busy time to `tag` (a software layer such as `"nfs_client"` or
    /// `"iscsi_server"`), so reports can break utilization down by
    /// processing path.
    pub fn charge_tagged(&self, at: SimTime, busy: SimDuration, tag: &'static str) {
        if busy.is_zero() {
            return;
        }
        *self.by_tag.borrow_mut().entry(tag).or_insert(0) += busy.as_nanos();
        self.trace_charge(at, busy, tag);
        self.charge(at, busy);
    }

    /// Like `charge_spread`, with the
    /// whole amount attributed to `tag`.
    pub fn charge_spread_tagged(
        &self,
        at: SimTime,
        busy: SimDuration,
        span: SimDuration,
        tag: &'static str,
    ) {
        if busy.is_zero() {
            return;
        }
        *self.by_tag.borrow_mut().entry(tag).or_insert(0) += busy.as_nanos();
        self.trace_charge(at, busy, tag);
        self.charge_spread(at, busy, span);
    }

    /// Busy time attributed to each tag, in tag order. Untagged
    /// charges do not appear here, so the sum can fall short of
    /// [`total_busy`](CpuAccount::total_busy); a tagged spread charge
    /// whose busy time does not divide into its chunks counts in full
    /// here but without the remainder there, so the sum can also
    /// exceed it.
    pub fn busy_by_tag(&self) -> Vec<(&'static str, SimDuration)> {
        self.by_tag
            .borrow()
            .iter()
            .map(|(&t, &n)| (t, SimDuration::from_nanos(n)))
            .collect()
    }

    /// Total busy time recorded: the sum of every sample, dropped ones
    /// included.
    pub fn total_busy(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.borrow().busy)
    }

    /// Per-window utilizations over `[from, to)` using the given
    /// window (each clamped to 100%).
    ///
    /// # Panics
    ///
    /// Panics unless `from` is at or after the
    /// [`sample_from`](CpuAccount::sample_from) instant.
    pub(crate) fn window_utilizations(
        &self,
        from: SimTime,
        to: SimTime,
        window: SimDuration,
    ) -> Vec<f64> {
        assert!(to >= from && !window.is_zero());
        let s = self.samples.borrow();
        assert!(
            s.from.is_some_and(|start| from.as_nanos() >= start),
            "windows from {from:?} on an account sampling from {:?} ns",
            s.from
        );
        let span = to.as_nanos() - from.as_nanos();
        let nwin = span.div_ceil(window.as_nanos()).max(1) as usize;
        let mut busy = vec![0u64; nwin];
        for &(at, b) in &s.list {
            if at < from.as_nanos() || at >= to.as_nanos() {
                continue;
            }
            let w = ((at - from.as_nanos()) / window.as_nanos()) as usize;
            busy[w] += b;
        }
        busy.iter()
            .map(|&b| units::ratio(b, window.as_nanos()).min(1.0))
            .collect()
    }

    /// The `pct` percentile (0–100) of windowed utilization — the
    /// paper reports the 95th percentile of 2-second vmstat samples.
    ///
    /// # Panics
    ///
    /// Panics unless `from` is at or after the
    /// [`sample_from`](CpuAccount::sample_from) instant.
    pub fn utilization_percentile(
        &self,
        from: SimTime,
        to: SimTime,
        window: SimDuration,
        pct: f64,
    ) -> f64 {
        let mut u = self.window_utilizations(from, to, window);
        if u.is_empty() {
            return 0.0;
        }
        u.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = units::f64_to_usize(((pct / 100.0) * (units::usize_f64(u.len()) - 1.0)).round());
        u[idx.min(u.len() - 1)]
    }
}

#[cfg(test)]
mod event_log;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfs_path_is_about_twice_iscsi() {
        let m = CostModel::p3_933();
        let nfs = m.nfs_request(Bytes::ZERO).as_nanos() as f64;
        let iscsi = m.iscsi_request(Bytes::ZERO).as_nanos() as f64;
        assert!((1.5..2.2).contains(&(nfs / iscsi)), "{}", nfs / iscsi);
    }

    #[test]
    fn data_cost_scales_with_bytes() {
        let m = CostModel::p3_933();
        let small = m.iscsi_request(Bytes::new(4096));
        let large = m.iscsi_request(Bytes::new(131_072));
        assert!(large > small);
        assert_eq!(
            (large - small).as_nanos(),
            (m.per_kib * (128 - 4)).as_nanos()
        );
    }

    #[test]
    fn client_side_iscsi_heavier_than_nfs() {
        // The iSCSI client runs the whole file system; the NFS client
        // forwards to the server.
        let m = CostModel::p3_933();
        assert!(m.iscsi_client_syscall() > m.nfs_client_syscall());
    }

    #[test]
    fn utilization_windows_bucket_correctly() {
        let a = CpuAccount::new();
        a.sample_from(SimTime::ZERO);
        let w = SimDuration::from_secs(2);
        // Window 0: 1s busy of 2s = 50%. Window 1: idle.
        a.charge(SimTime::from_nanos(100), SimDuration::from_secs(1));
        let u = a.window_utilizations(SimTime::ZERO, SimTime::from_nanos(4_000_000_000), w);
        assert_eq!(u.len(), 2);
        assert!((u[0] - 0.5).abs() < 1e-9);
        assert_eq!(u[1], 0.0);
    }

    #[test]
    fn utilization_clamps_at_100() {
        let a = CpuAccount::new();
        a.sample_from(SimTime::ZERO);
        a.charge(SimTime::from_nanos(0), SimDuration::from_secs(10));
        let u = a.window_utilizations(
            SimTime::ZERO,
            SimTime::from_nanos(2_000_000_000),
            SimDuration::from_secs(2),
        );
        assert_eq!(u, vec![1.0]);
    }

    #[test]
    fn percentile_picks_upper_tail() {
        let a = CpuAccount::new();
        a.sample_from(SimTime::ZERO);
        let w = SimDuration::from_secs(2);
        // 9 idle windows, 1 busy window.
        a.charge(
            SimTime::from_nanos(19 * 1_000_000_000),
            SimDuration::from_secs(2),
        );
        let p95 =
            a.utilization_percentile(SimTime::ZERO, SimTime::from_nanos(20_000_000_000), w, 95.0);
        assert!(p95 > 0.9, "{p95}");
        let p50 =
            a.utilization_percentile(SimTime::ZERO, SimTime::from_nanos(20_000_000_000), w, 50.0);
        assert_eq!(p50, 0.0);
    }

    #[test]
    fn tagged_charges_attribute_per_layer() {
        let a = CpuAccount::new();
        a.charge_tagged(SimTime::ZERO, SimDuration::from_micros(10), "nfs_server");
        a.charge_tagged(SimTime::ZERO, SimDuration::from_micros(5), "nfs_server");
        a.charge_spread_tagged(
            SimTime::ZERO,
            SimDuration::from_micros(20),
            SimDuration::from_secs(1),
            "writeback",
        );
        a.charge(SimTime::ZERO, SimDuration::from_micros(100)); // untagged
        assert_eq!(
            a.busy_by_tag(),
            vec![
                ("nfs_server", SimDuration::from_micros(15)),
                ("writeback", SimDuration::from_micros(20)),
            ]
        );
        assert_eq!(a.total_busy(), SimDuration::from_micros(135));
    }

    #[test]
    fn instrumented_account_emits_cpu_spans() {
        let sim = Sim::new(1);
        let a = CpuAccount::new();
        a.instrument(Rc::clone(&sim), HostId::SERVER);
        // Tracer off: no spans.
        a.charge_tagged(SimTime::ZERO, SimDuration::from_micros(10), "nfs.server");
        assert!(sim.tracer().is_empty());
        sim.tracer().set_enabled(true);
        a.charge_tagged(
            SimTime::from_nanos(100),
            SimDuration::from_micros(10),
            "nfs.server",
        );
        a.charge_spread_tagged(
            SimTime::from_nanos(200),
            SimDuration::from_micros(20),
            SimDuration::from_secs(5),
            "iscsi.target",
        );
        let spans = sim.tracer().spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].layer, "cpu");
        assert_eq!(spans[0].op, "nfs.server");
        assert_eq!(spans[0].host, HostId::SERVER);
        // Spread charges span their busy time, not the spread window.
        assert_eq!(
            spans[1].end.since(spans[1].start),
            SimDuration::from_micros(20)
        );
    }

    #[test]
    fn zero_charges_are_ignored() {
        let a = CpuAccount::new();
        a.charge(SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(a.total_busy(), SimDuration::ZERO);
        a.charge(SimTime::ZERO, SimDuration::from_micros(5));
        assert_eq!(a.total_busy(), SimDuration::from_micros(5));
    }

    /// Sample dates the account holds, in recording order.
    fn dates(a: &CpuAccount) -> Vec<u64> {
        a.samples.borrow().list.iter().map(|&(at, _)| at).collect()
    }

    #[test]
    fn unsampled_account_stays_small_and_keeps_future_chunks() {
        let a = CpuAccount::new();
        let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
        for i in 0..1_000 {
            a.charge(ms(i), SimDuration::from_micros(10));
            assert!(a.samples.borrow().list.len() <= 4, "charge {i}");
        }
        assert_eq!(a.total_busy(), SimDuration::from_micros(10_000));
        // A spread charge's chunks outlive later charges until their
        // own dates pass.
        a.charge_spread(
            ms(1_000),
            SimDuration::from_micros(50),
            SimDuration::from_secs(1),
        );
        for i in 1..=8 {
            a.charge(ms(1_000 + 100 * i), SimDuration::from_micros(1));
        }
        let latest = 1_800_000_000;
        let mut kept: Vec<u64> = dates(&a).into_iter().filter(|&d| d >= latest).collect();
        kept.sort_unstable();
        assert_eq!(kept, [latest, latest], "the last chunk and the last charge");
        assert!(dates(&a).len() <= 8, "{:?}", dates(&a));
        a.charge(ms(1_900), SimDuration::from_micros(1));
        a.charge(ms(1_900), SimDuration::from_micros(1));
        a.sample_from(ms(1_900));
        let w = SimDuration::from_millis(100);
        let u = a.window_utilizations(ms(1_900), ms(2_000), w);
        assert_eq!(u, [0.00002], "two charges folded at one instant");
    }

    #[test]
    fn sampled_account_keeps_every_sample() {
        let a = CpuAccount::new();
        a.sample_from(SimTime::ZERO);
        for i in 0..100 {
            a.charge(SimTime::from_nanos(i), SimDuration::from_nanos(1));
        }
        assert_eq!(dates(&a), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_samples_fold() {
        let a = CpuAccount::new();
        a.sample_from(SimTime::ZERO);
        a.charge(SimTime::ZERO, SimDuration::from_nanos(3));
        a.charge(SimTime::ZERO, SimDuration::from_nanos(4));
        a.charge(SimTime::from_nanos(1), SimDuration::from_nanos(5));
        assert_eq!(*a.samples.borrow().list, [(0, 7), (1, 5)]);
    }

    #[test]
    #[should_panic(expected = "before a charge")]
    fn sampling_from_before_a_charge_panics() {
        let a = CpuAccount::new();
        a.charge(SimTime::from_nanos(10), SimDuration::from_nanos(1));
        a.sample_from(SimTime::from_nanos(9));
    }

    #[test]
    #[should_panic(expected = "sampling from")]
    fn windows_before_the_sampling_start_panic() {
        let a = CpuAccount::new();
        a.sample_from(SimTime::from_nanos(10));
        a.utilization_percentile(
            SimTime::from_nanos(9),
            SimTime::from_nanos(20),
            SimDuration::from_nanos(5),
            95.0,
        );
    }

    #[test]
    #[should_panic(expected = "sampling from None")]
    fn windows_of_an_unsampled_account_panic() {
        CpuAccount::new().window_utilizations(
            SimTime::ZERO,
            SimTime::from_nanos(1),
            SimDuration::from_nanos(1),
        );
    }
}
