//! An Ethereal-style packet monitor.
//!
//! The paper instruments its testbed with Ethereal to count and
//! classify messages; this module gives the simulated LAN the same
//! facility: when attached, every message on every channel is recorded
//! as a [`PacketRecord`] (timestamp, channel, payload size), and
//! summaries can be dumped per channel — without influencing the
//! measured workload, exactly like a passive tap.

use simkit::units::{self, Bytes};
use simkit::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Classification of a captured segment. The TCP flow model tags its
/// loss-recovery traffic so a capture can separate goodput from
/// retransmissions — the distinction the paper reads off its Ethereal
/// traces in §4.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegKind {
    /// Ordinary first-transmission data (every pipe-model message).
    #[default]
    Payload,
    /// A segment transmitted more than once by a TCP flow.
    Retransmit,
    /// A duplicate cumulative ACK (the fast-retransmit trigger).
    DupAck,
}

/// One captured message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Capture timestamp (virtual).
    pub at: SimTime,
    /// Channel label (`nfs`, `iscsi`, ...).
    pub channel: String,
    /// Payload bytes (headers excluded).
    pub payload: Bytes,
    /// What kind of segment this was.
    pub kind: SegKind,
}

/// Capture bound: enough for any micro-benchmark, small enough that a
/// day-long macro run cannot exhaust memory.
const CAPTURE_CAPACITY: usize = 1 << 20;

/// A passive tap on the simulated link.
///
/// The capture buffer is bounded: once `capacity` records are held,
/// further messages are *dropped* (newest-lost, like a kernel ring
/// losing packets under load) but still counted per channel, so
/// [`summary`](Sniffer::summary) stays honest about what was missed.
///
/// A tap belongs to one simulation, and a simulation runs on one
/// thread: the state sits in `RefCell`s, so `Sniffer` is `!Sync` and
/// the compiler rejects sharing one tap between parallel sweep cells.
/// [`Fabric::attach_sniffer`](crate::Fabric::attach_sniffer) turns
/// capture on (`Some`) and off (`None`).
#[derive(Debug)]
pub struct Sniffer {
    records: RefCell<Vec<PacketRecord>>,
    capacity: usize,
    dropped: RefCell<BTreeMap<String, u64>>,
}

/// Per-channel capture summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelSummary {
    /// Messages captured (all kinds).
    pub messages: u64,
    /// Payload bytes captured (all kinds).
    pub bytes: Bytes,
    /// Messages seen but not recorded because the capture buffer was
    /// full.
    pub dropped: u64,
    /// Captured records tagged [`SegKind::Retransmit`].
    pub retransmits: u64,
    /// Captured records tagged [`SegKind::DupAck`].
    pub dup_acks: u64,
}

/// Field by field, as a report folds the captures of several runs.
impl std::ops::AddAssign for ChannelSummary {
    fn add_assign(&mut self, other: ChannelSummary) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.dropped += other.dropped;
        self.retransmits += other.retransmits;
        self.dup_acks += other.dup_acks;
    }
}

impl Sniffer {
    /// Creates an empty tap.
    pub fn new() -> Rc<Sniffer> {
        Rc::new(Sniffer::with_capacity(CAPTURE_CAPACITY))
    }

    fn with_capacity(capacity: usize) -> Sniffer {
        Sniffer {
            records: RefCell::new(Vec::new()),
            capacity,
            dropped: RefCell::new(BTreeMap::new()),
        }
    }

    /// Records one ordinary message (called by the network layer).
    pub(crate) fn observe(&self, at: SimTime, channel: &str, payload: Bytes) {
        self.observe_kind(at, channel, payload, SegKind::Payload);
    }

    /// Records one message with an explicit [`SegKind`] (the TCP flow
    /// model tags retransmissions and duplicate ACKs). A message a
    /// full buffer misses, of any kind, is counted dropped on its
    /// channel instead, so every message lands in exactly one of the
    /// two tallies.
    pub(crate) fn observe_kind(&self, at: SimTime, channel: &str, payload: Bytes, kind: SegKind) {
        let mut records = self.records.borrow_mut();
        if records.len() >= self.capacity {
            let mut dropped = self.dropped.borrow_mut();
            if let Some(n) = dropped.get_mut(channel) {
                *n += 1;
            } else {
                dropped.insert(channel.to_owned(), 1);
            }
            return;
        }
        records.push(PacketRecord {
            at,
            channel: channel.to_owned(),
            payload,
            kind,
        });
    }

    /// A copy of the records in `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> Vec<PacketRecord> {
        self.records
            .borrow()
            .iter()
            .filter(|r| r.at >= from && r.at < to)
            .cloned()
            .collect()
    }

    /// Per-channel message/byte summary of everything captured, with
    /// per-channel drop counts. Channels whose messages were *all*
    /// dropped still appear (with `messages == 0`).
    pub fn summary(&self) -> BTreeMap<String, ChannelSummary> {
        let mut out: BTreeMap<String, ChannelSummary> = BTreeMap::new();
        for r in self.records.borrow().iter() {
            let e = out.entry(r.channel.clone()).or_default();
            e.messages += 1;
            e.bytes += r.payload;
            match r.kind {
                SegKind::Payload => {}
                SegKind::Retransmit => e.retransmits += 1,
                SegKind::DupAck => e.dup_acks += 1,
            }
        }
        for (chan, &n) in self.dropped.borrow().iter() {
            out.entry(chan.clone()).or_default().dropped = n;
        }
        out
    }

    /// Mean payload size over the capture (the paper quotes mean
    /// request sizes: 4.7 KB for NFS writes vs 128 KB for iSCSI).
    pub fn mean_payload(&self, channel: &str) -> f64 {
        let (n, total) = self
            .records
            .borrow()
            .iter()
            .filter(|r| r.channel == channel)
            .fold((0u64, Bytes::ZERO), |(n, t), r| (n + 1, t + r.payload));
        if n == 0 {
            0.0
        } else {
            units::ratio(total.get(), n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> Bytes {
        Bytes::new(n)
    }

    #[test]
    fn capture_and_summarize() {
        let s = Sniffer::new();
        s.observe(SimTime::from_nanos(10), "nfs", b(100));
        s.observe(SimTime::from_nanos(20), "nfs", b(300));
        s.observe(SimTime::from_nanos(30), "iscsi", b(4096));
        let sum = s.summary();
        assert_eq!(sum["nfs"].messages, 2);
        assert_eq!(sum["nfs"].bytes, b(400));
        assert_eq!(sum["iscsi"].messages, 1);
        assert_eq!(s.mean_payload("nfs"), 200.0);
        assert_eq!(s.mean_payload("missing"), 0.0);
    }

    #[test]
    fn windows_are_half_open() {
        let s = Sniffer::new();
        for t in [5u64, 10, 15] {
            s.observe(SimTime::from_nanos(t), "x", b(1));
        }
        let w = s.window(SimTime::from_nanos(5), SimTime::from_nanos(15));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn capacity_bound_drops_and_counts() {
        let s = Sniffer::with_capacity(3);
        for t in 0..5u64 {
            s.observe(SimTime::from_nanos(t), "nfs", b(100));
        }
        s.observe(SimTime::from_nanos(9), "iscsi", b(4096));
        assert_eq!(s.records.borrow().len(), 3, "buffer bounded at capacity");
        assert_eq!(s.dropped.borrow().values().sum::<u64>(), 3);
        let sum = s.summary();
        assert_eq!(sum["nfs"].messages, 3);
        assert_eq!(sum["nfs"].dropped, 2);
        // A channel whose traffic was entirely dropped still shows up.
        assert_eq!(sum["iscsi"].messages, 0);
        assert_eq!(sum["iscsi"].bytes, Bytes::ZERO);
        assert_eq!(sum["iscsi"].dropped, 1);
        // The retained records are the earliest ones (newest-lost).
        assert_eq!(s.window(SimTime::ZERO, SimTime::from_nanos(3)).len(), 3);
    }

    #[test]
    fn tagged_segments_summarize_by_kind() {
        let s = Sniffer::new();
        s.observe(SimTime::from_nanos(1), "nfs", b(1000));
        s.observe_kind(SimTime::from_nanos(2), "nfs", b(1460), SegKind::Retransmit);
        s.observe_kind(SimTime::from_nanos(3), "nfs", b(1460), SegKind::Retransmit);
        s.observe_kind(SimTime::from_nanos(4), "nfs", Bytes::ZERO, SegKind::DupAck);
        let sum = s.summary();
        assert_eq!(sum["nfs"].messages, 4, "all kinds count as messages");
        assert_eq!(sum["nfs"].bytes, b(1000 + 2 * 1460));
        assert_eq!(sum["nfs"].retransmits, 2);
        assert_eq!(sum["nfs"].dup_acks, 1);
        // Untagged observes default to Payload.
        let w = s.window(SimTime::ZERO, SimTime::from_nanos(2));
        assert_eq!(w[0].kind, SegKind::Payload);
    }

    #[test]
    fn capacity_bound_applies_to_tagged_kinds_too() {
        // Regression: the new kinds must obey the same record-or-drop
        // contract as plain payloads — a full buffer counts them
        // dropped instead of growing without bound.
        let s = Sniffer::with_capacity(2);
        s.observe_kind(SimTime::from_nanos(1), "tcp", b(1460), SegKind::Retransmit);
        s.observe_kind(SimTime::from_nanos(2), "tcp", Bytes::ZERO, SegKind::DupAck);
        s.observe_kind(SimTime::from_nanos(3), "tcp", b(1460), SegKind::Retransmit);
        s.observe_kind(
            SimTime::from_nanos(4),
            "other",
            Bytes::ZERO,
            SegKind::DupAck,
        );
        assert_eq!(s.records.borrow().len(), 2, "buffer bounded at capacity");
        assert_eq!(s.dropped.borrow().values().sum::<u64>(), 2);
        let sum = s.summary();
        assert_eq!(sum["tcp"].messages, 2);
        assert_eq!(sum["tcp"].retransmits, 1);
        assert_eq!(sum["tcp"].dup_acks, 1);
        assert_eq!(sum["tcp"].dropped, 1, "third tcp record was dropped");
        // The all-dropped channel still surfaces, kinds at zero.
        assert_eq!(sum["other"].messages, 0);
        assert_eq!(sum["other"].dropped, 1);
        assert_eq!(sum["other"].retransmits, 0);
        assert_eq!(sum["other"].dup_acks, 0);
    }

    #[test]
    fn window_edge_cases() {
        let s = Sniffer::new();
        // Empty capture: any window is empty.
        assert!(s.window(SimTime::ZERO, SimTime::from_nanos(100)).is_empty());
        s.observe(SimTime::from_nanos(10), "x", b(1));
        // from == to: half-open interval is empty even on a record.
        assert!(s
            .window(SimTime::from_nanos(10), SimTime::from_nanos(10))
            .is_empty());
        // Exact bounds: start inclusive, end exclusive.
        assert_eq!(
            s.window(SimTime::from_nanos(10), SimTime::from_nanos(11))
                .len(),
            1
        );
    }

    #[test]
    fn mean_payload_edge_cases() {
        let s = Sniffer::new();
        // No records at all.
        assert_eq!(s.mean_payload("nfs"), 0.0);
        s.observe(SimTime::from_nanos(1), "iscsi", b(128));
        // Records exist, but not on the queried channel.
        assert_eq!(s.mean_payload("nfs"), 0.0);
        assert_eq!(s.mean_payload("iscsi"), 128.0);
    }
}
