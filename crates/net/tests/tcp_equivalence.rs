//! Pipe ↔ TCP equivalence: on an uncongested link, a single
//! TCP-modeled connection must charge exactly what the closed-form
//! pipe charges, so switching [`net::TransportModel`] never moves a
//! number except where congestion is the point. These tests pin the
//! contract stated in `net::TransportModel`'s docs: a transfer that fits
//! in one congestion window completes at the last in-order data
//! arrival, `rtt/2 + serialize(payload + nsegs·hdr)`.

use net::{LinkParams, Network, Transport, TransportModel, MSS};
use simkit::units::Bytes;
use simkit::{Sim, SimDuration};

fn pipe_net() -> std::rc::Rc<Network> {
    Network::new(Sim::new(11), LinkParams::gigabit_lan())
}

fn tcp_net(connections: u32) -> std::rc::Rc<Network> {
    let link = LinkParams::gigabit_lan().with_transport(TransportModel::Tcp { connections });
    Network::new(Sim::new(11), link)
}

/// A request/response exchange whose legs each fit one segment costs
/// the same to the nanosecond under both models.
#[test]
fn single_segment_round_trip_matches_pipe_exactly() {
    for (req, resp) in [(1, 1), (128, 8192_u64.min(MSS)), (MSS, MSS)] {
        let pipe = pipe_net()
            .channel("rpc", Transport::Tcp)
            .round_trip(Bytes::new(req), Bytes::new(resp));
        let tcp = tcp_net(1)
            .channel("rpc", Transport::Tcp)
            .round_trip(Bytes::new(req), Bytes::new(resp));
        assert_eq!(
            pipe, tcp,
            "uncongested single-segment round_trip must be byte-identical \
             (req={req}, resp={resp})"
        );
    }
}

/// A streamed transfer that fits the initial congestion window and is
/// framed at the MSS costs the same to the nanosecond: only the first
/// segment pays propagation, the rest pay pure serialization.
#[test]
fn window_fitting_stream_matches_pipe_exactly() {
    // 8 segments < IW10, framed exactly at the MSS.
    let bytes = 8 * MSS;
    let nmsgs = 8;
    let pipe = pipe_net()
        .channel("data", Transport::Tcp)
        .stream(Bytes::new(bytes), nmsgs);
    let tcp = tcp_net(1)
        .channel("data", Transport::Tcp)
        .stream(Bytes::new(bytes), nmsgs);
    assert_eq!(pipe, tcp, "window-fitting stream must be byte-identical");
}

/// Beyond one window the TCP model pays real window-growth RTTs the
/// pipe never sees: strictly slower, but still loss-free while every
/// burst fits the bottleneck buffer (no retransmit counters appear).
#[test]
fn multi_window_stream_is_slower_but_lossless() {
    // Two slow-start rounds: a 10-segment burst, then the remaining
    // 14 — both under QUEUE_CAP_SEGMENTS, so nothing can drop.
    let bytes = 24 * MSS;
    let nmsgs = 24;
    let pipe = pipe_net()
        .channel("data", Transport::Tcp)
        .stream(Bytes::new(bytes), nmsgs);
    let sim = Sim::new(11);
    let link = LinkParams::gigabit_lan().with_transport(TransportModel::Tcp { connections: 1 });
    let netw = Network::new(sim.clone(), link);
    let tcp = netw
        .channel("data", Transport::Tcp)
        .stream(Bytes::new(bytes), nmsgs);
    assert!(
        tcp > pipe,
        "multi-window transfer must pay slow-start RTTs: pipe {pipe:?}, tcp {tcp:?}"
    );
    // Growth costs at most a handful of RTTs on top of the pipe time.
    let p = LinkParams::gigabit_lan();
    assert!(
        tcp < pipe + SimDuration::from_nanos(p.rtt.as_nanos() * 8),
        "uncongested growth overhead stays within a few RTTs: pipe {pipe:?}, tcp {tcp:?}"
    );
    assert_eq!(
        sim.counters().get("net.tcp.retx_segs"),
        0,
        "an uncongested link never drops"
    );
}

/// The byte/message books are model-independent: the framing drives
/// accounting, the transport model only drives timing.
#[test]
fn accounting_is_model_independent() {
    let run = |netw: std::rc::Rc<Network>| {
        let ch = netw.channel("x", Transport::Tcp);
        ch.round_trip(Bytes::new(500), Bytes::new(9000));
        // Fits the initial window per flow, so the TCP side moves no
        // recovery traffic: the books must match to the byte. (A
        // congested transfer legitimately adds retransmitted wire
        // bytes, which is covered by the congestion tests.)
        ch.stream(Bytes::new(8 * MSS), 8);
        let c = netw.sim().counters();
        (c.get("net.x.msgs"), c.get("net.x.bytes"))
    };
    assert_eq!(run(pipe_net()), run(tcp_net(4)));
}
