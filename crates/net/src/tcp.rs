//! Congestion-aware TCP flow model for [`Channel`](crate::Channel)s;
//! the model and its contracts are documented on [`TransportModel`].

use crate::LinkParams;
use simkit::units::{self, Bytes};
use simkit::{EventId, EventQueue, HostId, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// TCP maximum segment size: payload bytes carried per segment
/// (Ethernet MTU 1500 minus 40 bytes of IP+TCP header).
pub const MSS: u64 = 1460;

/// Wire overhead per segment; matches
/// [`Transport::Tcp.header_bytes()`](crate::Transport::header_bytes)
/// so single-segment exchanges cost exactly what the pipe model
/// charges for one message.
pub(crate) const SEGMENT_HEADER_BYTES: u64 = 66;

/// Bottleneck queue capacity in full-size segments per direction
/// (~48 KiB — the shallow per-port buffer of paper-era edge gear).
/// A window burst beyond the bandwidth-delay product plus this
/// backlog is tail-dropped.
pub(crate) const QUEUE_CAP_SEGMENTS: usize = 32;

/// Initial congestion window in segments (RFC 6928's IW10).
const INITIAL_CWND: f64 = 10.0;

/// Duplicate-ACK count that triggers fast retransmit.
const DUP_ACK_THRESHOLD: u32 = 3;

/// Conservative initial retransmission timeout (RFC 6298).
const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// Lower bound on the flow RTO (Linux's 200 ms floor).
const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// Upper bound on the backed-off flow RTO.
const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// How a channel's timing is modeled: the legacy closed-form pipe
/// (default, byte-identical to every golden) or event-scheduled TCP
/// flows with congestion.
///
/// The legacy transport ([`TransportModel::Pipe`]) treats the link as a
/// fixed-bandwidth pipe: every transfer costs a closed-form
/// `rtt/2 + serialize(bytes)` and congestion cannot happen. The opt-in
/// alternative ([`TransportModel::Tcp`]) models TCP: transfers are
/// segmented at the TCP MSS and pushed through per-connection
/// congestion windows (slow start, AIMD, fast retransmit on a triple
/// duplicate ACK, retransmission timeout on loss) into a shared-link
/// FIFO queue whose occupancy induces RTT and whose finite capacity
/// induces loss. Segment completions are scheduled on a
/// [`simkit::EventQueue`] keyed by `(time, host, seq)` — the same
/// total order as the rest of the event core (detlint rule D6) — so
/// the model is deterministic and needs no randomness: the only loss
/// is deterministic tail drop when a window burst overruns the queue.
///
/// # Queue-induced RTT contract
///
/// Each [`TcpLink`] direction is a FIFO with a serialization server:
/// a segment offered at `now` starts serializing once every segment
/// present at `now` has drained, and departs after its own
/// serialization time. The wait behind those k queued segments *is*
/// the queueing delay — exactly how NISTNet-style added RTT arises on
/// a congested bottleneck. A segment is tail-dropped when
/// `QUEUE_CAP_SEGMENTS` segments already occupy the queue at its
/// arrival; dropped segments vanish and are recovered by the flow's
/// fast-retransmit or RTO machinery, never by the caller.
///
/// # What completes a transfer
///
/// A transfer completes when the *receiver* holds every byte in order
/// — the last in-order data arrival, not the final ACK. An uncongested
/// transfer that fits in one congestion window therefore costs exactly
/// `serialize(payload + nsegs·hdr) + rtt/2`, the pipe closed form,
/// which is what the Pipe↔Tcp equivalence tests pin down.
///
/// # MC/S and nconnect
///
/// A [`TcpEndpoint`] owns `connections` independent flows over the
/// shared link. Request/response exchanges pick one flow round-robin
/// and keep both legs on it (iSCSI's per-connection allegiance; an RPC
/// retransmit naturally goes out the *next* flow, nconnect-style).
/// Bulk data phases stripe their segments across every flow
/// (`transfer_striped`), which is how iSCSI MC/S data-out/data-in
/// bursts use the aggregate window of the whole session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportModel {
    /// Fixed-bandwidth pipe with static RTT; transfers cost
    /// `rtt/2 + serialize(bytes)` and never queue or drop.
    #[default]
    Pipe,
    /// Event-scheduled TCP flows over a shared finite queue.
    Tcp {
        /// Connections per endpoint: iSCSI MC/S sessions and NFS
        /// nconnect mounts open this many flows (minimum 1).
        connections: u32,
    },
}

impl TransportModel {
    /// Flows per endpoint under this model (1 for the pipe).
    pub fn connections(self) -> u32 {
        match self {
            TransportModel::Pipe => 1,
            TransportModel::Tcp { connections } => connections.max(1),
        }
    }
}

/// Direction of a transfer over the shared link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server (requests, data-out).
    Up,
    /// Server → client (responses, data-in).
    Down,
}

/// One direction of the bottleneck: a FIFO serialization server with
/// finite capacity. Interior mutability mirrors [`crate::Network`]'s
/// Cell-based link parameters.
///
/// Occupancy is tracked per segment as `(arrival, departure)` pairs
/// rather than a single busy-until frontier. Offers are not
/// monotonic in time: the cost-returning simulation style issues
/// concurrent requests at one frozen instant while an earlier
/// transfer's loss recovery has already placed segments seconds
/// ahead. A frontier would let those future segments inflate the
/// backlog seen *at the frozen instant* (and vice versa), cascading
/// into spurious total loss; counting only the segments actually
/// present at the offer's arrival time keeps the two timelines from
/// poisoning each other.
#[derive(Debug)]
pub(crate) struct LinkQueue {
    cap_segments: usize,
    /// Accepted segments possibly still queued, pruned once a later
    /// offer shows they have drained. Present-set size is bounded by
    /// `cap_segments`, so scans stay cheap.
    queued: RefCell<Vec<(SimTime, SimTime)>>,
}

impl LinkQueue {
    fn new(cap_segments: usize) -> Self {
        LinkQueue {
            cap_segments,
            queued: RefCell::new(Vec::new()),
        }
    }

    /// Offers one segment needing `ser` of serialization at `now`.
    /// Returns the departure instant, or `None` when `cap_segments`
    /// segments already occupy the queue at `now` and this one is
    /// tail-dropped.
    fn offer(&self, now: SimTime, ser: SimDuration) -> Option<SimTime> {
        let mut q = self.queued.borrow_mut();
        q.retain(|&(_, depart)| depart > now);
        // Occupancy at `now`: segments that arrived by `now` and have
        // not departed. Later arrivals (a retransmission computed
        // ahead of this offer) are not ahead of this segment.
        let mut occupied = 0usize;
        let mut frontier = now;
        for &(arrival, depart) in q.iter() {
            if arrival <= now {
                occupied += 1;
                if depart > frontier {
                    frontier = depart;
                }
            }
        }
        if occupied >= self.cap_segments {
            return None;
        }
        let depart = frontier + ser;
        q.push((now, depart));
        Some(depart)
    }
}

/// The shared bottleneck: one queue per direction. Each
/// [`Fabric`](crate::Fabric) port owns one, shared by every host
/// endpoint on the port, so all its clients contend for the same
/// server port queue.
#[derive(Debug)]
pub struct TcpLink {
    up: LinkQueue,
    down: LinkQueue,
}

impl TcpLink {
    /// A fresh idle link with the default queue capacity.
    pub(crate) fn new() -> Rc<Self> {
        Rc::new(TcpLink {
            up: LinkQueue::new(QUEUE_CAP_SEGMENTS),
            down: LinkQueue::new(QUEUE_CAP_SEGMENTS),
        })
    }

    /// The queue serving `dir`.
    pub(crate) fn queue(&self, dir: Direction) -> &LinkQueue {
        match dir {
            Direction::Up => &self.up,
            Direction::Down => &self.down,
        }
    }
}

/// Persistent congestion state of one connection. Survives across
/// transfers: a flow that just recovered from loss starts the next
/// RPC with its reduced window, which is where multi-RTT replies (and
/// hence emergent RPC retransmits) come from.
#[derive(Debug)]
struct FlowState {
    /// Congestion window, in segments. Fractional growth implements
    /// congestion avoidance's +1/cwnd per ACK.
    cwnd: Cell<f64>,
    /// Slow-start threshold, in segments.
    ssthresh: Cell<f64>,
    /// Smoothed RTT estimate, nanoseconds (0 = no sample yet).
    srtt: Cell<u64>,
    /// RTT variance estimate, nanoseconds.
    rttvar: Cell<u64>,
    /// Current retransmission timeout, with exponential backoff.
    rto: Cell<SimDuration>,
    /// Lifetime retransmitted segments on this flow.
    retrans: Cell<u64>,
}

impl FlowState {
    fn new() -> Self {
        FlowState {
            cwnd: Cell::new(INITIAL_CWND),
            ssthresh: Cell::new(f64::MAX),
            srtt: Cell::new(0),
            rttvar: Cell::new(0),
            rto: Cell::new(INITIAL_RTO),
            retrans: Cell::new(0),
        }
    }

    /// RFC 6298 estimator update from one clean (never-retransmitted,
    /// Karn's rule) sample.
    fn rtt_sample(&self, sample_ns: u64) {
        if self.srtt.get() == 0 {
            self.srtt.set(sample_ns);
            self.rttvar.set(sample_ns / 2);
        } else {
            let srtt = self.srtt.get();
            let var = self.rttvar.get();
            let err = srtt.abs_diff(sample_ns);
            self.rttvar.set((3 * var + err) / 4);
            self.srtt.set((7 * srtt + sample_ns) / 8);
        }
        let rto = SimDuration::from_nanos(self.srtt.get() + 4 * self.rttvar.get().max(1));
        self.rto.set(rto.max(MIN_RTO).min(MAX_RTO));
    }

    /// Multiplicative decrease on any loss signal: halve the flight,
    /// floor at two segments.
    fn on_loss(&self, flight_segments: u64) {
        let half = (units::to_f64(flight_segments) / 2.0).max(2.0);
        self.ssthresh.set(half);
    }
}

/// Aggregate outcome of one modeled transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Transfer {
    /// Time from the offer until the receiver holds every byte in
    /// order.
    pub duration: SimDuration,
    /// Data segments the transfer was cut into (first transmissions).
    pub segments: u64,
    /// Segments transmitted more than once.
    pub retrans_segments: u64,
    /// Wire bytes of those retransmissions (payload + headers).
    pub retrans_bytes: Bytes,
    /// Duplicate ACKs the sender processed.
    pub dup_acks: u64,
}

/// Per-transfer sender+receiver bookkeeping for one participating
/// flow. The congestion window and RTO estimator live in the
/// persistent [`FlowState`]; everything here is scoped to a single
/// transfer.
struct Sender {
    /// Index into `TcpEndpoint::flows`.
    flow: usize,
    /// Payload bytes of each segment assigned to this flow.
    segs: Vec<u64>,
    /// Transmission count per segment (Karn's rule needs it).
    sent: Vec<u32>,
    /// Last transmission instant per segment.
    sent_at: Vec<SimTime>,
    /// Receiver-side: which segments have arrived (possibly out of
    /// order).
    recvd: Vec<bool>,
    /// Receiver-side in-order high-water mark.
    cum: usize,
    /// Sender-side cumulative-ACK knowledge.
    acked: usize,
    /// Next never-sent segment.
    next: usize,
    /// Consecutive duplicate ACKs seen.
    dup: u32,
    /// Loss recovery (fast retransmit or RTO) is in progress until
    /// `acked` passes this mark; partial ACKs below it retransmit the
    /// next hole immediately (NewReno-style).
    recover: Option<usize>,
    /// Armed RTO timer, if any.
    rto_ev: Option<EventId>,
    /// Receiver has everything in order.
    done: bool,
}

/// Transfer-engine events, keyed on the local event queue by
/// `(absolute time, HostId::client(sender), seq)`.
enum Ev {
    /// Data segment `seq` of sender `s` fully arrived at the receiver.
    Arrive { s: usize, seq: usize },
    /// Cumulative ACK reached the sender. `echo` is the segment whose
    /// arrival generated it and `echo_tx` that segment's transmission
    /// count at the time (Karn's rule: sample RTT only when both are
    /// still 1 at processing time).
    Ack {
        s: usize,
        cum: usize,
        echo: usize,
        echo_tx: u32,
    },
    /// Retransmission timer of sender `s` fired.
    Rto { s: usize },
}

/// One channel's set of TCP connections over a shared [`TcpLink`].
#[derive(Debug)]
pub struct TcpEndpoint {
    link: Rc<TcpLink>,
    flows: Vec<FlowState>,
    rr: Cell<usize>,
}

impl TcpEndpoint {
    /// Opens `connections` flows (minimum 1) over `link`.
    pub(crate) fn new(link: Rc<TcpLink>, connections: u32) -> Self {
        let n = connections.max(1) as usize;
        TcpEndpoint {
            link,
            flows: (0..n).map(|_| FlowState::new()).collect(),
            rr: Cell::new(0),
        }
    }

    /// Picks the next flow round-robin (one pick per exchange: both
    /// legs of a request/response ride the same connection).
    pub(crate) fn next_flow(&self) -> usize {
        let f = self.rr.get();
        self.rr.set((f + 1) % self.flows.len());
        f
    }

    /// Models `bytes` of payload moving in `dir` on a single flow.
    pub(crate) fn transfer_on(
        &self,
        p: &LinkParams,
        now: SimTime,
        bytes: Bytes,
        dir: Direction,
        flow: usize,
    ) -> Transfer {
        self.run(p, now, bytes, dir, &[flow])
    }

    /// Models `bytes` striped across every flow of the endpoint (MC/S
    /// data phases, multi-flow streams).
    pub(crate) fn transfer_striped(
        &self,
        p: &LinkParams,
        now: SimTime,
        bytes: Bytes,
        dir: Direction,
    ) -> Transfer {
        let all: Vec<usize> = (0..self.flows.len()).collect();
        self.run(p, now, bytes, dir, &all)
    }

    /// The discrete-event transfer engine. Cuts `bytes` into MSS
    /// segments, deals them round-robin to the participating `flows`,
    /// and drives every flow's window against the shared queue until
    /// the receiver holds all bytes in order.
    fn run(
        &self,
        p: &LinkParams,
        now: SimTime,
        bytes: Bytes,
        dir: Direction,
        flows: &[usize],
    ) -> Transfer {
        // Segment arithmetic below is raw nanosecond/byte math; the
        // dimension boundary is this function's signature.
        let bytes = bytes.get();
        let queue = self.link.queue(dir);
        let half_rtt = p.rtt / 2;
        let nsegs = bytes.div_ceil(MSS).max(1) as usize;

        // Deal segments to flows: segment i has MSS payload except the
        // last, which carries the remainder (or all of a sub-MSS
        // transfer, including 0-payload control exchanges).
        let mut senders: Vec<Sender> = flows
            .iter()
            .map(|&flow| Sender {
                flow,
                segs: Vec::new(),
                sent: Vec::new(),
                sent_at: Vec::new(),
                recvd: Vec::new(),
                cum: 0,
                acked: 0,
                next: 0,
                dup: 0,
                recover: None,
                rto_ev: None,
                done: false,
            })
            .collect();
        for i in 0..nsegs {
            let payload = if i + 1 == nsegs {
                bytes - MSS * (nsegs as u64 - 1)
            } else {
                MSS
            };
            let stripe = i % senders.len();
            let s = &mut senders[stripe];
            s.segs.push(payload);
            s.sent.push(0);
            s.sent_at.push(now);
            s.recvd.push(false);
        }
        // A striped transfer smaller than the stripe width leaves some
        // flows idle; they are born done.
        for s in &mut senders {
            s.done = s.segs.is_empty();
        }

        let mut q: EventQueue<Ev> = EventQueue::with_capacity(nsegs * 2);
        let mut out = Transfer {
            segments: nsegs as u64,
            ..Transfer::default()
        };
        let mut done_at = now;

        // Transmits segment `seq` of sender `s` (first time or
        // retransmission) into the queue.
        macro_rules! transmit {
            ($s:expr, $seq:expr, $t:expr) => {{
                let snd = &mut senders[$s];
                let seq: usize = $seq;
                let t: SimTime = $t;
                let wire = snd.segs[seq] + SEGMENT_HEADER_BYTES;
                snd.sent[seq] += 1;
                snd.sent_at[seq] = t;
                if snd.sent[seq] > 1 {
                    out.retrans_segments += 1;
                    out.retrans_bytes += Bytes::new(wire);
                    self.flows[snd.flow]
                        .retrans
                        .set(self.flows[snd.flow].retrans.get() + 1);
                }
                if let Some(depart) = queue.offer(t, p.serialize(Bytes::new(wire))) {
                    q.schedule(
                        depart + half_rtt,
                        HostId::client($s as u32),
                        Ev::Arrive { s: $s, seq },
                    );
                }
                // A drop simply vanishes: the window stays charged and
                // the RTO/fast-retransmit machinery recovers it.
            }};
        }

        // (Re-)arms sender `s`'s RTO at `t + rto`.
        macro_rules! arm_rto {
            ($s:expr, $t:expr) => {{
                let rto = self.flows[senders[$s].flow].rto.get();
                if let Some(id) = senders[$s].rto_ev.take() {
                    q.cancel(id);
                }
                senders[$s].rto_ev =
                    Some(q.schedule($t + rto, HostId::client($s as u32), Ev::Rto { s: $s }));
            }};
        }

        // Sends as much of sender `s`'s tail as its window allows.
        macro_rules! try_send {
            ($s:expr, $t:expr) => {{
                loop {
                    let snd = &senders[$s];
                    let window = self.flows[snd.flow].cwnd.get().max(1.0) as usize;
                    if snd.next >= snd.segs.len() || snd.next - snd.acked >= window {
                        break;
                    }
                    let seq = snd.next;
                    senders[$s].next += 1;
                    transmit!($s, seq, $t);
                }
                if senders[$s].rto_ev.is_none() && senders[$s].acked < senders[$s].segs.len() {
                    arm_rto!($s, $t);
                }
            }};
        }

        // Indexed loop: `try_send!` borrows `senders` mutably, so no
        // iterator may hold it across the macro body.
        #[allow(clippy::needless_range_loop)]
        for s in 0..senders.len() {
            if !senders[s].done {
                try_send!(s, now);
            }
        }

        while let Some((key, ev)) = q.pop() {
            let t = key.time;
            match ev {
                Ev::Arrive { s, seq } => {
                    let snd = &mut senders[s];
                    if !snd.recvd[seq] {
                        snd.recvd[seq] = true;
                        while snd.cum < snd.recvd.len() && snd.recvd[snd.cum] {
                            snd.cum += 1;
                        }
                    }
                    if snd.cum == snd.segs.len() && !snd.done {
                        snd.done = true;
                        done_at = done_at.max(t);
                    }
                    let (cum, echo_tx) = (snd.cum, snd.sent[seq]);
                    q.schedule(
                        t + half_rtt,
                        HostId::client(s as u32),
                        Ev::Ack {
                            s,
                            cum,
                            echo: seq,
                            echo_tx,
                        },
                    );
                    if senders.iter().all(|s| s.done) {
                        break;
                    }
                }
                Ev::Ack {
                    s,
                    cum,
                    echo,
                    echo_tx,
                } => {
                    let fl = &self.flows[senders[s].flow];
                    if cum > senders[s].acked {
                        let newly = (cum - senders[s].acked) as u64;
                        senders[s].acked = cum;
                        senders[s].dup = 0;
                        // Karn: sample only a segment transmitted
                        // exactly once, and unretransmitted since.
                        if echo_tx == 1 && senders[s].sent[echo] == 1 {
                            fl.rtt_sample(t.since(senders[s].sent_at[echo]).as_nanos());
                        }
                        match senders[s].recover {
                            Some(mark) if cum < mark => {
                                // Partial ACK during recovery: the
                                // next hole is also lost — resend it
                                // now instead of waiting out an RTO.
                                let hole = senders[s].acked;
                                transmit!(s, hole, t);
                            }
                            Some(_) => {
                                senders[s].recover = None;
                                fl.cwnd.set(fl.ssthresh.get().max(2.0));
                            }
                            None => {
                                for _ in 0..newly {
                                    let c = fl.cwnd.get();
                                    if c < fl.ssthresh.get() {
                                        fl.cwnd.set(c + 1.0);
                                    } else {
                                        fl.cwnd.set(c + 1.0 / c);
                                    }
                                }
                            }
                        }
                        if senders[s].acked < senders[s].segs.len() {
                            arm_rto!(s, t);
                        } else if let Some(id) = senders[s].rto_ev.take() {
                            q.cancel(id);
                        }
                        try_send!(s, t);
                    } else if senders[s].acked < senders[s].segs.len() {
                        senders[s].dup += 1;
                        out.dup_acks += 1;
                        if senders[s].dup == DUP_ACK_THRESHOLD && senders[s].recover.is_none() {
                            let flight = (senders[s].next - senders[s].acked) as u64;
                            fl.on_loss(flight);
                            fl.cwnd.set(fl.ssthresh.get());
                            senders[s].recover = Some(senders[s].next);
                            let hole = senders[s].acked;
                            transmit!(s, hole, t);
                            arm_rto!(s, t);
                        }
                    }
                }
                Ev::Rto { s } => {
                    senders[s].rto_ev = None;
                    if senders[s].acked >= senders[s].segs.len() {
                        continue;
                    }
                    let fl = &self.flows[senders[s].flow];
                    let flight = (senders[s].next - senders[s].acked) as u64;
                    fl.on_loss(flight);
                    fl.cwnd.set(1.0);
                    fl.rto.set((fl.rto.get() * 2).min(MAX_RTO));
                    senders[s].dup = 0;
                    senders[s].recover = Some(senders[s].next);
                    let hole = senders[s].acked;
                    transmit!(s, hole, t);
                    arm_rto!(s, t);
                }
            }
        }

        out.duration = done_at.since(now);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> Bytes {
        Bytes::new(n)
    }

    fn lan() -> LinkParams {
        LinkParams::gigabit_lan()
    }

    fn ep(conns: u32) -> TcpEndpoint {
        TcpEndpoint::new(TcpLink::new(), conns)
    }

    #[test]
    fn single_segment_matches_pipe_one_way_exactly() {
        let p = lan();
        let e = ep(1);
        let t = e.transfer_on(&p, SimTime::ZERO, b(1000), Direction::Up, 0);
        assert_eq!(t.duration, p.one_way(b(1000 + SEGMENT_HEADER_BYTES)));
        assert_eq!(t.segments, 1);
        assert_eq!(t.retrans_segments, 0);
    }

    #[test]
    fn window_fitting_burst_matches_stream_closed_form() {
        // 6 segments fit inside IW10: completion is the last segment's
        // serialization plus one propagation — the pipe stream form
        // with per-segment headers.
        let p = lan();
        let e = ep(1);
        let bytes = 6 * MSS;
        let t = e.transfer_on(&p, SimTime::ZERO, b(bytes), Direction::Up, 0);
        let expected = p.rtt / 2 + p.serialize(b(bytes + 6 * SEGMENT_HEADER_BYTES));
        assert_eq!(t.duration, expected);
        assert_eq!(t.segments, 6);
    }

    #[test]
    fn zero_byte_exchange_still_costs_a_segment() {
        let p = lan();
        let e = ep(1);
        let t = e.transfer_on(&p, SimTime::ZERO, Bytes::ZERO, Direction::Up, 0);
        assert_eq!(t.segments, 1);
        assert_eq!(t.duration, p.one_way(b(SEGMENT_HEADER_BYTES)));
    }

    #[test]
    fn large_transfer_needs_multiple_windows_yet_terminates() {
        let p = lan();
        let e = ep(1);
        let bytes = 100 * MSS;
        let t = e.transfer_on(&p, SimTime::ZERO, b(bytes), Direction::Up, 0);
        // More than one window: slow start needs extra round trips
        // over the single-burst closed form.
        let one_burst = p.rtt / 2 + p.serialize(b(bytes + 100 * SEGMENT_HEADER_BYTES));
        assert!(t.duration > one_burst);
        assert_eq!(t.segments, 100);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = LinkParams::wan(SimDuration::from_millis(40));
        let x = ep(2).transfer_striped(&p, SimTime::ZERO, b(2_000_000), Direction::Down);
        let y = ep(2).transfer_striped(&p, SimTime::ZERO, b(2_000_000), Direction::Down);
        assert_eq!(x, y);
    }

    #[test]
    fn queue_backlog_induces_delay_for_later_transfers() {
        let p = lan();
        let e = ep(1);
        let idle = e.transfer_on(&p, SimTime::ZERO, b(8192), Direction::Up, 0);
        // Re-offered at the same instant, the second transfer queues
        // behind the first one's segments.
        let queued = e.transfer_on(&p, SimTime::ZERO, b(8192), Direction::Up, 0);
        assert!(queued.duration > idle.duration);
    }

    #[test]
    fn sustained_overload_tail_drops_and_retransmits() {
        let p = lan();
        let e = ep(1);
        // Many transfers offered at the same instant: the backlog
        // blows past the queue cap and loss recovery kicks in.
        let mut retrans = 0;
        for _ in 0..80 {
            let t = e.transfer_on(&p, SimTime::ZERO, b(8 * MSS), Direction::Up, 0);
            retrans += t.retrans_segments;
        }
        assert!(retrans > 0, "tail drops were retransmitted");
    }

    #[test]
    fn striping_uses_every_flow() {
        let p = lan();
        let e = ep(4);
        let t = e.transfer_striped(&p, SimTime::ZERO, b(8 * MSS), Direction::Down);
        assert_eq!(t.segments, 8);
        // Aggregate initial window is 4×IW10, so 8 segments still go
        // out in one burst.
        let expected = p.rtt / 2 + p.serialize(b(8 * MSS + 8 * SEGMENT_HEADER_BYTES));
        assert_eq!(t.duration, expected);
    }

    #[test]
    fn round_robin_allegiance_cycles_flows() {
        let e = ep(3);
        assert_eq!(e.next_flow(), 0);
        assert_eq!(e.next_flow(), 1);
        assert_eq!(e.next_flow(), 2);
        assert_eq!(e.next_flow(), 0);
    }

    #[test]
    fn rtt_estimator_converges_and_floors_rto() {
        let f = FlowState::new();
        for _ in 0..20 {
            f.rtt_sample(200_000); // 200 µs LAN
        }
        assert!(f.srtt.get() > 150_000 && f.srtt.get() < 250_000);
        assert_eq!(f.rto.get(), MIN_RTO);
    }
}
