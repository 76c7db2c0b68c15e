//! The one way to build a link: host endpoints on the ports of a
//! [`Fabric`] (the topology, counter and contention model are on the
//! type).

use crate::tcp::TcpLink;
use crate::{LinkParams, Network, Sniffer};
use simkit::units::Bps;
use simkit::Sim;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// One port's edge link: hosts actively contending for a link of
/// `base_bps`, with the resulting fair share cached.
#[derive(Debug)]
pub(crate) struct LinkShare {
    base_bps: Bps,
    /// `base_bps / active`, maintained by `set_active` so the
    /// per-message path never divides.
    share_bps: Cell<Bps>,
}

impl LinkShare {
    fn new(base_bps: Bps) -> Self {
        LinkShare {
            base_bps,
            share_bps: Cell::new(base_bps),
        }
    }

    /// Sets the contender count and recomputes the cached fair share —
    /// the only place the division happens. An idle link (`n = 0`)
    /// counts one contender: whoever uses it next has it whole.
    fn set_active(&self, n: u32) {
        self.share_bps.set(self.base_bps / u64::from(n.max(1)));
    }

    /// The effective per-host rate: the cached fair share.
    pub(crate) fn effective_bps(&self) -> Bps {
        self.share_bps.get()
    }
}

/// One server-side attachment point: the edge share its hosts contend
/// on, and the TCP bottleneck queue pair its flows share.
#[derive(Debug)]
pub(crate) struct Port {
    pub(crate) share: LinkShare,
    pub(crate) tcp_link: Rc<TcpLink>,
}

/// A topology of host endpoints attached to one or more server ports.
///
/// A [`Network`] is always one host's end of a fabric port. The paper's
/// testbed — one client and one server on a dedicated link — is the
/// unnamed endpoint of a one-port fabric ([`Network::new`] is the
/// shorthand). Larger topologies grow the same structure:
///
/// * **One server, N clients** ([`Fabric::new`]): every named host gets
///   its own endpoint (per-host message accounting stays separate),
///   while all endpoints contend for the server port's bandwidth.
/// * **M servers** ([`Fabric::add_port`] once per server past the
///   first): each server has its own edge link (a port: a fair-share
///   level plus a private TCP bottleneck queue pair). Ports share
///   nothing, so one edge per server is the whole tree:
///
/// ```text
///   c0 c4 … c996 ── edge s0      c1 c5 … c997 ── edge s1
///   c2 c6 … c998 ── edge s2      c3 c7 … c999 ── edge s3
/// ```
///
/// The link parameters — RTT, loss, transport model, edge bandwidth —
/// are stored once per fabric and fixed at construction; every endpoint
/// reads them from there. [`Fabric::attach_sniffer`] likewise reaches
/// every endpoint, present and future.
///
/// Counter layering: the host name is data. A channel opened on the
/// endpoint named `c1` with label `nfs` bumps `net.c1.nfs.msgs` /
/// `net.c1.nfs.bytes` *in addition to* the per-label names
/// (`net.nfs.*`) and the grand totals (`net.total.*`); an unnamed
/// endpoint registers only the latter two. Endpoints carry no identity
/// beyond their name and port, so asking for the same host twice gives
/// two handles that account under the same names and share the port.
///
/// Contention model: a server NIC serializes at its edge `bandwidth_bps`
/// overall, so with `k` hosts marked active on the port each endpoint's
/// effective bandwidth is `bandwidth_bps / k` — the fair-share steady
/// state of TCP flows over one bottleneck. Shares are *cached*: they are
/// recomputed on active-set changes, never per message, so a
/// thousand-client hot path reads one `Cell` instead of redoing the
/// division. One active host (the default) reproduces the
/// dedicated-link timing exactly: the arithmetic is bit-for-bit
/// `base / active`.
///
/// # Example
///
/// ```
/// use simkit::{Bytes, Sim};
/// use net::{Fabric, LinkParams, Transport};
///
/// let sim = Sim::new(1);
/// let fabric = Fabric::new(sim.clone(), LinkParams::gigabit_lan());
/// let a = fabric.host("c0").channel("nfs", Transport::Tcp);
/// let b = fabric.host("c1").channel("nfs", Transport::Tcp);
/// fabric.set_active(2); // both hosts now share the server link
/// a.round_trip(Bytes::new(128), Bytes::new(128));
/// b.round_trip(Bytes::new(128), Bytes::new(128));
/// assert_eq!(sim.counters().get("net.c0.nfs.msgs"), 2);
/// assert_eq!(sim.counters().get("net.c1.nfs.msgs"), 2);
/// assert_eq!(sim.counters().get("net.nfs.msgs"), 4); // layered total
/// ```
#[derive(Debug)]
pub struct Fabric {
    pub(crate) sim: Rc<Sim>,
    /// The link parameters every endpoint reads; `bandwidth_bps` is the
    /// uncontended edge rate a new port starts from.
    pub(crate) link: LinkParams,
    /// Optional passive tap on every endpoint (the paper's Ethereal).
    pub(crate) sniffer: RefCell<Option<Rc<Sniffer>>>,
    ports: RefCell<Vec<Rc<Port>>>,
}

impl Fabric {
    /// Creates a fabric with one server port whose link has the given
    /// parameters: one server, any number of hosts. Call
    /// [`Fabric::add_port`] once per further server.
    ///
    /// # Panics
    ///
    /// Panics if `params.loss` is outside `[0, 1)`.
    pub fn new(sim: Rc<Sim>, params: LinkParams) -> Rc<Self> {
        params.validate();
        let f = Rc::new(Fabric {
            sim,
            link: params,
            sniffer: RefCell::new(None),
            ports: RefCell::new(Vec::new()),
        });
        f.add_port();
        f
    }

    /// Adds a server port (edge link + private TCP bottleneck) and
    /// returns its index.
    pub fn add_port(&self) -> usize {
        let mut ports = self.ports.borrow_mut();
        ports.push(Rc::new(Port {
            share: LinkShare::new(self.link.bandwidth_bps),
            tcp_link: TcpLink::new(),
        }));
        ports.len() - 1
    }

    /// Marks `n` hosts as actively contending on port 0.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has no ports.
    pub fn set_active(&self, n: u32) {
        self.set_port_active(0, n);
    }

    /// Marks `n` hosts as actively contending for port `port`'s edge
    /// link. An idle port (`n = 0`) keeps one contender's share.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn set_port_active(&self, port: usize, n: u32) {
        self.ports.borrow()[port].share.set_active(n);
    }

    /// An endpoint named `name` on port 0.
    pub fn host(self: &Rc<Self>, name: &str) -> Rc<Network> {
        self.host_on(Some(name), 0)
    }

    /// An endpoint attached to server port `port`. `Some(name)` makes
    /// its channels also account under `net.<name>.<label>.*`; `None`
    /// registers only the per-label and total names (the paper's
    /// point-to-point pair). The endpoint shares the port's edge
    /// bandwidth with the port's other hosts.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of bounds.
    pub fn host_on(self: &Rc<Self>, name: Option<&str>, port: usize) -> Rc<Network> {
        Rc::new(Network {
            fabric: Rc::clone(self),
            port: Rc::clone(&self.ports.borrow()[port]),
            host: name.map(str::to_string),
        })
    }

    /// Attaches one passive monitor to every endpoint, present and
    /// future; every subsequent message is recorded. Pass `None` to
    /// detach.
    pub fn attach_sniffer(&self, s: Option<Rc<Sniffer>>) {
        *self.sniffer.borrow_mut() = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transport;
    use simkit::Bytes;

    fn b(n: u64) -> Bytes {
        Bytes::new(n)
    }

    fn setup() -> (Rc<Sim>, Rc<Fabric>) {
        let sim = Sim::new(11);
        let fabric = Fabric::new(sim.clone(), LinkParams::gigabit_lan());
        (sim, fabric)
    }

    #[test]
    fn the_host_name_is_the_only_counter_difference() {
        // Every counter name one round trip registers, in order.
        let registered = |host: Option<&str>| {
            let (sim, fabric) = setup();
            let ch = fabric.host_on(host, 0).channel("rpc", Transport::Tcp);
            ch.round_trip(b(1), b(1));
            let mut names = Vec::new();
            sim.counters().for_each(|n, _| names.push(n.to_string()));
            names
        };
        let pair = ["net.rpc.msgs", "net.rpc.bytes", "net.total.msgs"];
        let pair = [&pair[..], &["net.total.bytes"]].concat();
        assert_eq!(registered(None), pair);
        let named = [&pair[..], &["net.c0.rpc.msgs", "net.c0.rpc.bytes"]].concat();
        assert_eq!(registered(Some("c0")), named);
    }

    #[test]
    fn asking_for_a_host_twice_gives_one_host() {
        let (sim, fabric) = setup();
        let first = fabric.host("c0");
        let again = fabric.host("c0");
        first
            .channel("nfs", Transport::Tcp)
            .round_trip(b(100), b(100));
        again
            .channel("nfs", Transport::Tcp)
            .round_trip(b(100), b(100));
        assert_eq!(sim.counters().get("net.c0.nfs.msgs"), 4);
        assert_eq!(sim.counters().get("net.nfs.msgs"), 4);
        // Both handles see the port's contention state and queue
        // behind each other on its TCP bottleneck.
        fabric.set_active(4);
        assert_eq!(first.params(), again.params());
        assert_eq!(again.params().bandwidth_bps, Bps::new(1_000_000_000 / 4));
        assert!(Rc::ptr_eq(&first.port.tcp_link, &again.port.tcp_link));
    }

    #[test]
    fn per_host_counters_layer_over_totals() {
        let (sim, fabric) = setup();
        let a = fabric.host("c0").channel("nfs", Transport::Tcp);
        let ch = fabric.host("c1").channel("nfs", Transport::Tcp);
        a.round_trip(b(100), b(100));
        ch.round_trip(b(100), b(100));
        ch.round_trip(b(100), b(100));
        let c = sim.counters();
        assert_eq!(c.get("net.c0.nfs.msgs"), 2);
        assert_eq!(c.get("net.c1.nfs.msgs"), 4);
        assert_eq!(c.get("net.nfs.msgs"), 6, "per-label total spans hosts");
        assert_eq!(c.get("net.total.msgs"), 6);
        assert_eq!(
            c.get("net.c0.nfs.bytes") + c.get("net.c1.nfs.bytes"),
            c.get("net.nfs.bytes"),
            "host byte counters partition the label total"
        );
    }

    #[test]
    fn extra_bytes_land_in_host_namespace() {
        let (sim, fabric) = setup();
        let ch = fabric.host("c3").channel("iscsi", Transport::Tcp);
        ch.account_extra_bytes(b(4096));
        assert_eq!(sim.counters().get("net.c3.iscsi.bytes"), 4096);
        assert_eq!(sim.counters().get("net.iscsi.bytes"), 4096);
        assert_eq!(sim.counters().get("net.c3.iscsi.msgs"), 0);
    }

    #[test]
    fn active_hosts_split_the_server_bandwidth() {
        let (_sim, fabric) = setup();
        let base = LinkParams::gigabit_lan();
        let one = fabric.host("c0");
        assert_eq!(one.params().bandwidth_bps, base.bandwidth_bps);
        fabric.set_active(4);
        assert_eq!(one.params().bandwidth_bps, base.bandwidth_bps / 4);
        // Serialization time scales inversely with the share.
        assert_eq!(
            one.params().serialize(b(4096)).as_nanos(),
            base.serialize(b(4096)).as_nanos() * 4
        );
        fabric.set_active(1);
        assert_eq!(one.params().bandwidth_bps, base.bandwidth_bps);
    }

    #[test]
    fn the_sniffer_reaches_existing_and_future_hosts() {
        let (_sim, fabric) = setup();
        let early_ch = fabric.host_on(None, 0).channel("x", Transport::Tcp);
        let tap = Sniffer::new();
        fabric.attach_sniffer(Some(tap.clone()));
        let late_ch = fabric.host("c1").channel("x", Transport::Tcp);
        early_ch.send(b(10));
        late_ch.send(b(10));
        assert_eq!(
            tap.summary()["x"].messages,
            2,
            "one tap sees both endpoints"
        );
        fabric.attach_sniffer(None);
        early_ch.send(b(10));
        assert_eq!(tap.summary()["x"].messages, 2, "detached");
    }

    #[test]
    fn link_parameters_are_fabric_wide() {
        let sim = Sim::new(11);
        let link = LinkParams {
            loss: 0.25,
            ..LinkParams::wan(simkit::SimDuration::from_millis(30))
        };
        let fabric = Fabric::new(sim, link);
        for host in [fabric.host_on(None, 0), fabric.host("c7")] {
            assert_eq!(host.params(), link);
        }
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1)")]
    fn fabric_rejects_invalid_loss() {
        let sim = Sim::new(1);
        let _ = Fabric::new(
            sim,
            LinkParams {
                loss: -0.1,
                ..LinkParams::gigabit_lan()
            },
        );
    }

    #[test]
    fn an_idle_port_keeps_the_whole_link() {
        let (_sim, fabric) = setup();
        let a = fabric.host("c0");
        fabric.set_active(3);
        fabric.set_active(0);
        assert_eq!(a.params().bandwidth_bps, Bps::new(1_000_000_000));
    }

    #[test]
    fn edge_contention_is_per_port() {
        let sim = Sim::new(3);
        let fabric = Fabric::new(sim, LinkParams::gigabit_lan());
        let p1 = fabric.add_port();
        let a = fabric.host_on(Some("c0"), 0);
        let b = fabric.host_on(Some("c1"), p1);
        fabric.set_port_active(0, 4);
        assert_eq!(
            a.params().bandwidth_bps,
            Bps::new(1_000_000_000 / 4),
            "port 0's hosts split its edge"
        );
        assert_eq!(
            b.params().bandwidth_bps,
            Bps::new(1_000_000_000),
            "port 1 is unaffected by port 0's load"
        );
    }

    #[test]
    fn ports_have_private_tcp_bottlenecks() {
        let sim = Sim::new(3);
        let fabric = Fabric::new(sim, LinkParams::gigabit_lan());
        let p1 = fabric.add_port();
        let a = fabric.host_on(Some("c0"), 0);
        let b = fabric.host_on(Some("c1"), 0);
        let c = fabric.host_on(Some("c2"), p1);
        assert!(Rc::ptr_eq(&a.port.tcp_link, &b.port.tcp_link));
        assert!(!Rc::ptr_eq(&a.port.tcp_link, &c.port.tcp_link));
    }

    #[test]
    fn share_cache_matches_direct_division() {
        let s = LinkShare::new(Bps::new(1_000_000_007));
        for n in 1..=13u32 {
            s.set_active(n);
            assert_eq!(s.effective_bps(), Bps::new(1_000_000_007 / n as u64));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn host_on_unknown_port_is_rejected() {
        let sim = Sim::new(3);
        let fabric = Fabric::new(sim, LinkParams::gigabit_lan());
        fabric.add_port();
        let _ = fabric.host_on(Some("c0"), 2);
    }
}
