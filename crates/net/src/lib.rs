//! Simulated IP network for the `ipstorage` testbed.
//!
//! The paper's testbed is a single client and a single server on an
//! isolated Gigabit Ethernet LAN, optionally with NISTNet-injected
//! wide-area delay (§4.6). This crate models that link, and the
//! multi-host topologies that generalize it, with one type: a
//! [`Fabric`] of server ports holds the link parameters (round-trip
//! time, bandwidth, the transport model), and each host's end of a
//! port is a full-duplex [`Network`] endpoint that protocols open
//! [`Channel`]s over. The paper's pair is the unnamed endpoint of a
//! one-port fabric, [`Network::new`]. Links are loss-free, as the
//! paper's isolated LAN is; under the TCP model a full bottleneck
//! queue still drops segments.
//!
//! Channels do the accounting that every message-count column in the
//! paper's tables is built from: each send bumps `net.<label>.msgs`
//! and `net.<label>.bytes` counters on the shared [`Sim`].
//!
//! Like block devices, the network never advances the clock itself:
//! sends and round trips return the [`SimDuration`] they would take,
//! and the caller decides whether that time is foreground latency or
//! overlapped background transfer.
//!
//! # Example
//!
//! ```
//! use simkit::{Bytes, Sim, SimDuration};
//! use net::{LinkParams, Network, Transport};
//!
//! let sim = Sim::new(1);
//! let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
//! let ch = netw.channel("rpc", Transport::Tcp);
//! let rt = ch.round_trip(Bytes::new(128), Bytes::new(128));
//! sim.advance(rt);
//! assert_eq!(sim.counters().get("net.rpc.msgs"), 2);
//! ```

mod fabric;
mod sniffer;
mod tcp;

pub use fabric::Fabric;
pub use sniffer::{ChannelSummary, PacketRecord, SegKind, Sniffer};
pub use tcp::{Direction, TcpEndpoint, TcpLink, Transfer, TransportModel, MSS};

use simkit::units::{self, Bps, Bytes};
use simkit::{HostId, Sim, SimDuration, StatKey};
use std::rc::Rc;

/// Transport used by a channel. The distinction matters for the RPC
/// layer (NFS v2 runs over UDP, v3/v4 and iSCSI over TCP) and for the
/// per-message header overhead added to the byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Datagram transport (no delivery guarantee; the RPC layer
    /// retransmits).
    Udp,
    /// Stream transport (reliable and ordered; retransmission below
    /// the RPC layer is invisible except as added latency).
    Tcp,
}

impl Transport {
    /// Ethernet + IP + transport header bytes added to each message.
    pub(crate) fn header_bytes(self) -> Bytes {
        match self {
            Transport::Udp => Bytes::new(14 + 20 + 8),
            Transport::Tcp => Bytes::new(14 + 20 + 32), // options-bearing TCP header
        }
    }
}

/// Physical parameters of the simulated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Round-trip time (propagation only, both directions).
    pub rtt: SimDuration,
    /// Link bandwidth in bits per second, each direction.
    pub bandwidth_bps: Bps,
    /// How transfer timing is modeled: the default closed-form pipe,
    /// or event-scheduled TCP flows with congestion
    /// ([`TransportModel::Tcp`]).
    pub transport: TransportModel,
}

impl LinkParams {
    /// The paper's isolated Gigabit Ethernet LAN: sub-millisecond RTT
    /// (we use 200 µs), 1 Gb/s, no loss.
    pub fn gigabit_lan() -> Self {
        Self::wan(SimDuration::from_micros(200))
    }

    /// A wide-area emulation in the style of the paper's NISTNet
    /// setup: the given RTT at Gigabit bandwidth.
    pub fn wan(rtt: SimDuration) -> Self {
        LinkParams {
            rtt,
            bandwidth_bps: Bps::new(1_000_000_000),
            transport: TransportModel::Pipe,
        }
    }

    /// The same link under a different transport model (the opt-in
    /// switch for [`TransportModel::Tcp`]).
    pub fn with_transport(mut self, transport: TransportModel) -> Self {
        self.transport = transport;
        self
    }

    /// Serialization (transmission) delay for `bytes` on this link
    /// (`u128`-widened — exact for any `u64` byte count, where the old
    /// `saturating_mul` formulation pinned transfers above ~2.3 GB).
    pub fn serialize(&self, bytes: Bytes) -> SimDuration {
        units::transfer_time(bytes, self.bandwidth_bps)
    }

    /// One-way latency for a message of `bytes`.
    pub fn one_way(&self, bytes: Bytes) -> SimDuration {
        self.rtt / 2 + self.serialize(bytes)
    }
}

/// One host's end of a [`Fabric`] port: the link its channels time and
/// account against. Link parameters live in the fabric, contention
/// state in the port; the endpoint itself holds only its host, the
/// counter prefix. Built by [`Fabric::host_on`] (or [`Network::new`]).
#[derive(Debug)]
pub struct Network {
    fabric: Rc<Fabric>,
    port: Rc<fabric::Port>,
    /// `Some(host)`: channels also account under
    /// `net.<host>.<label>.*`. `None`: the paper's unnamed pair, which
    /// registers only the per-label and total names.
    host: Option<HostId>,
}

impl Network {
    /// The paper's point-to-point link: the unnamed endpoint of a
    /// one-port [`Fabric`] with the given parameters.
    pub fn new(sim: Rc<Sim>, params: LinkParams) -> Rc<Self> {
        Fabric::new(sim, params).host_on(None, 0)
    }

    /// Current link parameters: the fabric's, with the bandwidth this
    /// endpoint's port currently grants — the edge rate divided by its
    /// active-host count. The share is cached on active-set changes, so
    /// this is one `Cell` read.
    pub fn params(&self) -> LinkParams {
        LinkParams {
            bandwidth_bps: self.port.share.effective_bps(),
            ..self.fabric.link
        }
    }

    /// The shared simulation context.
    pub fn sim(&self) -> &Rc<Sim> {
        &self.fabric.sim
    }

    /// Opens an accounting channel. The label appears in counter names
    /// (`net.<label>.msgs`, `net.<label>.bytes`).
    pub fn channel(self: &Rc<Self>, label: &'static str, transport: Transport) -> Channel {
        self.channel_flows(label, transport, None)
    }

    /// Like [`Network::channel`], but with an explicit flow count for
    /// the TCP model: `flows` overrides the link-level connection
    /// count (the NFS `nconnect` mount option, which picks a flow
    /// count per mount rather than per link). `None` inherits the
    /// link's count; the override is ignored entirely under
    /// [`TransportModel::Pipe`].
    pub fn channel_flows(
        self: &Rc<Self>,
        label: &'static str,
        transport: Transport,
        flows: Option<u32>,
    ) -> Channel {
        let c = self.sim().counters();
        // Counters are resolved once here; the per-message path
        // (`account`) only bumps the handles.
        let net = StatKey::new("net");
        let msgs = c.handle(net.push(label).push("msgs"));
        let bytes = c.handle(net.push(label).push("bytes"));
        let total_msgs = c.handle("net.total.msgs");
        let total_bytes = c.handle("net.total.bytes");
        // Named endpoints additionally account per host, layered over
        // the per-label and grand totals. The unnamed pair registers no
        // extra names, keeping single-client reports byte-identical.
        let host = self.host.map(|h| {
            let per_host = net.host(h).push(label);
            (
                c.handle(per_host.push("msgs")),
                c.handle(per_host.push("bytes")),
            )
        });
        // Under the TCP model, stream-transport channels get their own
        // flow set over the shared bottleneck (UDP channels keep the
        // closed form: the flow machinery models TCP's window, which a
        // datagram transport does not have).
        let tcp = match (transport, self.fabric.link.transport) {
            (Transport::Tcp, TransportModel::Tcp { connections }) => Some(Rc::new(
                TcpEndpoint::new(Rc::clone(&self.port.tcp_link), flows.unwrap_or(connections)),
            )),
            _ => None,
        };
        Channel {
            net: Rc::clone(self),
            label,
            transport,
            msgs,
            bytes,
            total_msgs,
            total_bytes,
            host,
            tcp,
        }
    }
}

/// One protocol's view of the link, with per-channel accounting.
#[derive(Debug, Clone)]
pub struct Channel {
    net: Rc<Network>,
    label: &'static str,
    transport: Transport,
    msgs: simkit::CounterHandle,
    bytes: simkit::CounterHandle,
    total_msgs: simkit::CounterHandle,
    total_bytes: simkit::CounterHandle,
    /// `(msgs, bytes)` under `net.<host>.<label>.*` on named endpoints.
    host: Option<(simkit::CounterHandle, simkit::CounterHandle)>,
    /// Congestion-modeled flows when the link selects
    /// [`TransportModel::Tcp`] and this channel is stream transport.
    tcp: Option<Rc<TcpEndpoint>>,
}

impl Channel {
    /// The channel's accounting label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The network this channel runs over.
    pub fn network(&self) -> &Rc<Network> {
        &self.net
    }

    /// Adds raw wire bytes to the channel's byte counters without
    /// counting a message. Used by segmented transfers (iSCSI data
    /// PDUs) where the exchange is tallied as one transaction but
    /// every PDU's bytes must still appear in `net.*.bytes`.
    pub fn account_extra_bytes(&self, bytes: Bytes) {
        self.bytes.add(bytes.get());
        self.total_bytes.add(bytes.get());
        if let Some((_, host_bytes)) = &self.host {
            host_bytes.add(bytes.get());
        }
    }

    fn account(&self, payload: Bytes) {
        let fabric = &self.net.fabric;
        if let Some(s) = fabric.sniffer.borrow().as_ref() {
            s.observe(fabric.sim.now(), self.label, payload);
        }
        let wire = payload + self.transport.header_bytes();
        self.msgs.incr();
        self.bytes.add(wire.get());
        self.total_msgs.incr();
        self.total_bytes.add(wire.get());
        if let Some((host_msgs, host_bytes)) = &self.host {
            host_msgs.incr();
            host_bytes.add(wire.get());
        }
    }

    /// Whether this channel's timing is modeled by TCP flows instead
    /// of the closed-form pipe.
    pub fn tcp_modeled(&self) -> bool {
        self.tcp.is_some()
    }

    /// Folds one modeled transfer's loss-recovery traffic into the
    /// books: retransmitted wire bytes join the byte counters (they
    /// crossed the link), and the sniffer tags the segments with
    /// their [`SegKind`] so a capture can separate goodput from
    /// recovery.
    fn tcp_account(&self, t: &tcp::Transfer) {
        let sim = self.net.sim();
        if t.retrans_segments > 0 {
            self.account_extra_bytes(t.retrans_bytes);
            // Retransmit counters exist only once a segment is resent
            // (reports list every created series).
            let c = sim.counters();
            c.add("net.tcp.retx_segs", t.retrans_segments);
            c.add(
                StatKey::new("net").push(self.label).push("retx_segs"),
                t.retrans_segments,
            );
        }
        if t.dup_acks > 0 {
            sim.counters().add("net.tcp.dup_acks", t.dup_acks);
        }
        if let Some(s) = self.net.fabric.sniffer.borrow().as_ref() {
            let now = sim.now();
            for _ in 0..t.retrans_segments {
                s.observe_kind(now, self.label, Bytes::new(tcp::MSS), SegKind::Retransmit);
            }
            for _ in 0..t.dup_acks {
                s.observe_kind(now, self.label, Bytes::ZERO, SegKind::DupAck);
            }
        }
    }

    /// Models one leg on a specific flow and books its recovery
    /// traffic.
    fn tcp_leg(
        &self,
        ep: &TcpEndpoint,
        at: simkit::SimTime,
        payload: Bytes,
        dir: Direction,
        flow: usize,
    ) -> SimDuration {
        let t = ep.transfer_on(&self.net.params(), at, payload, dir, flow);
        self.tcp_account(&t);
        t.duration
    }

    /// Models `bytes` striped across every connection of the channel
    /// (iSCSI MC/S data phases). Returns `None` on pipe-modeled
    /// channels, whose callers keep the closed form.
    pub fn tcp_burst(&self, bytes: Bytes, dir: Direction) -> Option<SimDuration> {
        let ep = self.tcp.as_ref()?;
        let t = ep.transfer_striped(&self.net.params(), self.net.sim().now(), bytes, dir);
        self.tcp_account(&t);
        Some(t.duration)
    }

    /// Sends one message of `payload` bytes; returns its one-way
    /// delay. Under the flow model a lost segment is retransmitted and
    /// shows up as latency.
    pub fn send(&self, payload: Bytes) -> SimDuration {
        self.account(payload);
        if let Some(ep) = &self.tcp {
            let flow = ep.next_flow();
            return self.tcp_leg(ep, self.net.sim().now(), payload, Direction::Up, flow);
        }
        self.net
            .params()
            .one_way(payload + self.transport.header_bytes())
    }

    /// A request-response exchange: two messages. Returns the total
    /// elapsed time. Under the TCP model both legs ride the same
    /// connection (per-connection allegiance); successive exchanges
    /// rotate round-robin across the channel's connections, which is
    /// exactly nconnect's dispatch rule.
    pub fn round_trip(&self, request: Bytes, response: Bytes) -> SimDuration {
        self.account(request);
        self.account(response);
        if let Some(ep) = &self.tcp {
            let flow = ep.next_flow();
            let now = self.net.sim().now();
            let d1 = self.tcp_leg(ep, now, request, Direction::Up, flow);
            let d2 = self.tcp_leg(ep, now + d1, response, Direction::Down, flow);
            return d1 + d2;
        }
        let p = self.net.params();
        p.one_way(request + self.transport.header_bytes())
            + p.one_way(response + self.transport.header_bytes())
    }

    /// Time to stream `bytes` in `nmsgs` back-to-back messages after
    /// an initial half-RTT (used for multi-segment data transfers
    /// where only the first segment pays propagation). Under the TCP
    /// model the message framing still drives the byte accounting, but
    /// the timing comes from striping the payload across the channel's
    /// connections.
    pub fn stream(&self, bytes: Bytes, nmsgs: u64) -> SimDuration {
        let p = self.net.params();
        // Even segments, with the division remainder carried by the
        // final one so `net.*.bytes` accounts every byte of transfers
        // that don't divide evenly.
        let base = bytes / nmsgs.max(1);
        for i in 0..nmsgs {
            let tail = if i + 1 == nmsgs {
                bytes - base * nmsgs
            } else {
                Bytes::ZERO
            };
            self.account(base + tail);
        }
        if nmsgs > 0 {
            if let Some(d) = self.tcp_burst(bytes, Direction::Up) {
                return d;
            }
        }
        p.rtt / 2 + p.serialize(bytes + self.transport.header_bytes() * nmsgs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> Bytes {
        Bytes::new(n)
    }

    fn setup() -> (Rc<Sim>, Rc<Network>) {
        let sim = Sim::new(7);
        let net = Network::new(sim.clone(), LinkParams::gigabit_lan());
        (sim, net)
    }

    #[test]
    fn serialization_delay_scales() {
        let p = LinkParams::gigabit_lan();
        // 1 Gb/s → 125 MB/s → 4096 B ≈ 32.768 µs
        assert_eq!(p.serialize(b(4096)).as_nanos(), 32_768);
        assert_eq!(p.serialize(Bytes::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn round_trip_counts_two_messages() {
        let (sim, net) = setup();
        let ch = net.channel("rpc", Transport::Tcp);
        let d = ch.round_trip(b(100), b(200));
        assert!(d >= sim.now().since(simkit::SimTime::ZERO)); // positive
        assert_eq!(sim.counters().get("net.rpc.msgs"), 2);
        let hdr = Transport::Tcp.header_bytes().get();
        assert_eq!(sim.counters().get("net.rpc.bytes"), 300 + 2 * hdr);
        assert_eq!(sim.counters().get("net.total.msgs"), 2);
    }

    #[test]
    fn stream_pays_one_propagation() {
        let (_sim, net) = setup();
        let ch = net.channel("s", Transport::Tcp);
        let p = net.params();
        let d = ch.stream(b(1_000_000), 8);
        let expected = p.rtt / 2 + p.serialize(b(1_000_000) + Transport::Tcp.header_bytes() * 8);
        assert_eq!(d, expected);
    }

    #[test]
    fn stream_accounts_every_byte_of_uneven_transfers() {
        let (sim, net) = setup();
        let ch = net.channel("s", Transport::Tcp);
        // 1003 / 4 = 250 rem 3: the final segment must carry the
        // remainder instead of dropping it.
        ch.stream(b(1003), 4);
        let hdr = Transport::Tcp.header_bytes().get();
        assert_eq!(sim.counters().get("net.s.msgs"), 4);
        assert_eq!(sim.counters().get("net.s.bytes"), 1003 + 4 * hdr);
        assert_eq!(sim.counters().get("net.total.bytes"), 1003 + 4 * hdr);
    }

    #[test]
    fn stream_with_zero_messages_accounts_nothing() {
        let (sim, net) = setup();
        let ch = net.channel("z", Transport::Tcp);
        ch.stream(b(512), 0);
        assert_eq!(sim.counters().get("net.z.msgs"), 0);
        assert_eq!(sim.counters().get("net.z.bytes"), 0);
    }

    #[test]
    fn separate_channels_account_separately() {
        let (sim, net) = setup();
        let a = net.channel("a", Transport::Tcp);
        let b = net.channel("b", Transport::Udp);
        a.send(Bytes::new(10));
        b.send(Bytes::new(10));
        b.send(Bytes::new(10));
        assert_eq!(sim.counters().get("net.a.msgs"), 1);
        assert_eq!(sim.counters().get("net.b.msgs"), 2);
        assert_eq!(sim.counters().get("net.total.msgs"), 3);
    }
}
