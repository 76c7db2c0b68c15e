//! The one way to build a link: host endpoints on the ports of a
//! [`Fabric`].
//!
//! A [`Network`] is always one host's end of a fabric port. The paper's
//! testbed — one client and one server on a dedicated link — is the
//! unnamed endpoint of a one-port fabric ([`Network::new`] is the
//! shorthand). Larger topologies grow the same structure in two steps:
//!
//! * **One server, N clients** ([`Fabric::new`]): every named host gets
//!   its own endpoint (per-host message accounting stays separate),
//!   while all endpoints contend for the server port's bandwidth.
//! * **M servers behind a core switch** ([`Fabric::with_core`]): each
//!   server has its own edge link (a port: a fair-share level plus a
//!   private TCP bottleneck queue pair), and every edge link feeds a
//!   shared *core* level. An endpoint's effective bandwidth is the
//!   minimum of its edge share and the core share — the two-level
//!   fair-share tree of a thousand-client sharded topology:
//!
//! ```text
//!   c0 … c249 ──┐                      ┌── c250 … c499
//!               ├─ edge s0 ─┐  ┌─ edge s1 ─┤
//!                           core switch
//!               ├─ edge s2 ─┘  └─ edge s3 ─┤
//!   c500 … c749 ┘                      └── c750 … c999
//! ```
//!
//! The link parameters — RTT, loss, transport model, edge bandwidth —
//! are stored once per fabric and fixed at construction; every endpoint
//! reads them from there. [`Fabric::attach_sniffer`] likewise reaches
//! every endpoint, present and future.
//!
//! Counter layering: the host name is data. A channel opened on the
//! endpoint named `c1` with label `nfs` bumps `net.c1.nfs.msgs` /
//! `net.c1.nfs.bytes` *in addition to* the per-label names
//! (`net.nfs.*`) and the grand totals (`net.total.*`); an unnamed
//! endpoint registers only the latter two. Endpoints carry no identity
//! beyond their name and port, so asking for the same host twice gives
//! two handles that account under the same names and share the port.
//!
//! Contention model: a server NIC serializes at its edge `bandwidth_bps`
//! overall, so with `k` hosts marked active on the port each endpoint's
//! effective bandwidth is `bandwidth_bps / k` — the fair-share steady
//! state of TCP flows over one bottleneck. The core divides its
//! bandwidth across the fabric's ports the same way. Shares are
//! *cached*: they are recomputed on active-set changes and port
//! creation, never per message, so a thousand-client hot path reads two
//! `Cell`s instead of redoing the division. One active host (the
//! default) reproduces the dedicated-link timing exactly, and a
//! single-port fabric has no core, so its arithmetic is bit-for-bit
//! `base / active`.
//!
//! # Example
//!
//! ```
//! use simkit::{Bytes, Sim};
//! use net::{Fabric, LinkParams, Transport};
//!
//! let sim = Sim::new(1);
//! let fabric = Fabric::new(sim.clone(), LinkParams::gigabit_lan());
//! let a = fabric.host("c0").channel("nfs", Transport::Tcp);
//! let b = fabric.host("c1").channel("nfs", Transport::Tcp);
//! fabric.set_active(2); // both hosts now share the server link
//! a.round_trip(Bytes::new(128), Bytes::new(128));
//! b.round_trip(Bytes::new(128), Bytes::new(128));
//! assert_eq!(sim.counters().get("net.c0.nfs.msgs"), 2);
//! assert_eq!(sim.counters().get("net.c1.nfs.msgs"), 2);
//! assert_eq!(sim.counters().get("net.nfs.msgs"), 4); // layered total
//! ```

use crate::tcp::TcpLink;
use crate::{LinkParams, Network, Sniffer};
use simkit::units::Bps;
use simkit::Sim;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// One level of the link-share tree: hosts actively contending for a
/// link of `base_bps`, with the resulting fair share cached. An
/// optional parent (the core switch link) caps the effective rate from
/// above.
#[derive(Debug)]
pub(crate) struct LinkShare {
    base_bps: Bps,
    /// `base_bps / active`, maintained by `set_active` so the
    /// per-message path never divides.
    share_bps: Cell<Bps>,
    /// The next link level up (core switch), if any.
    parent: Option<Rc<LinkShare>>,
}

impl LinkShare {
    fn new(base_bps: Bps, parent: Option<Rc<LinkShare>>) -> Self {
        LinkShare {
            base_bps,
            share_bps: Cell::new(base_bps),
            parent,
        }
    }

    /// Sets the contender count and recomputes the cached fair share —
    /// the only place the division happens. An idle link (`n = 0`)
    /// counts one contender: whoever uses it next has it whole.
    fn set_active(&self, n: u32) {
        self.share_bps.set(self.base_bps / u64::from(n.max(1)));
    }

    /// The effective per-host rate: this level's cached fair share,
    /// capped by every level above. Two `Cell` reads on the common
    /// two-level tree.
    pub(crate) fn effective_bps(&self) -> Bps {
        let own = self.share_bps.get();
        match &self.parent {
            Some(p) => own.min(p.effective_bps()),
            None => own,
        }
    }
}

/// One server-side attachment point: the edge share its hosts contend
/// on, and the TCP bottleneck queue pair its flows share.
#[derive(Debug)]
pub(crate) struct Port {
    pub(crate) share: LinkShare,
    pub(crate) tcp_link: Rc<TcpLink>,
}

/// A topology of host endpoints attached to one or more server ports,
/// optionally behind a shared core link. See the [module docs](self).
#[derive(Debug)]
pub struct Fabric {
    pub(crate) sim: Rc<Sim>,
    /// The link parameters every endpoint reads; `bandwidth_bps` is the
    /// uncontended edge rate a new port starts from.
    pub(crate) link: LinkParams,
    /// Optional passive tap on every endpoint (the paper's Ethereal).
    pub(crate) sniffer: RefCell<Option<Rc<Sniffer>>>,
    /// The shared core-switch link, present on [`Fabric::with_core`]
    /// fabrics; its active count tracks the port count.
    core: Option<Rc<LinkShare>>,
    ports: RefCell<Vec<Rc<Port>>>,
}

impl Fabric {
    /// Creates a single-port fabric whose server link has the given
    /// parameters: one server, any number of hosts.
    ///
    /// # Panics
    ///
    /// Panics if `params.loss` is outside `[0, 1)`.
    pub fn new(sim: Rc<Sim>, params: LinkParams) -> Rc<Self> {
        let f = Fabric::build(sim, params, None);
        f.add_port();
        f
    }

    /// Creates a fabric whose server ports sit behind a shared core
    /// link of `core_bandwidth_bps`. Starts with no ports; call
    /// [`Fabric::add_port`] once per server.
    ///
    /// # Panics
    ///
    /// Panics if `params.loss` is outside `[0, 1)`.
    pub fn with_core(sim: Rc<Sim>, params: LinkParams, core_bandwidth_bps: Bps) -> Rc<Self> {
        let core = LinkShare::new(core_bandwidth_bps, None);
        Fabric::build(sim, params, Some(Rc::new(core)))
    }

    fn build(sim: Rc<Sim>, params: LinkParams, core: Option<Rc<LinkShare>>) -> Rc<Self> {
        params.validate();
        Rc::new(Fabric {
            sim,
            link: params,
            sniffer: RefCell::new(None),
            core,
            ports: RefCell::new(Vec::new()),
        })
    }

    /// Adds a server port (edge link + private TCP bottleneck) and
    /// returns its index. On a cored fabric the core's contender count
    /// follows the port count: with M servers attached, each port's
    /// traffic competes for `core / M`.
    pub fn add_port(&self) -> usize {
        let mut ports = self.ports.borrow_mut();
        ports.push(Rc::new(Port {
            share: LinkShare::new(self.link.bandwidth_bps, self.core.clone()),
            tcp_link: TcpLink::new(),
        }));
        if let Some(core) = &self.core {
            core.set_active(ports.len() as u32);
        }
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
    /// bandwidth (and, through it, the core) with the port's other
    /// hosts.
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
        assert_eq!(tap.len(), 2, "one tap sees both endpoints");
        fabric.attach_sniffer(None);
        early_ch.send(b(10));
        assert_eq!(tap.len(), 2, "detached");
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
    fn cored_fabric_caps_edges_by_the_core_share() {
        let sim = Sim::new(3);
        let edge = LinkParams::gigabit_lan(); // 1 Gb/s edges
        let fabric = Fabric::with_core(sim, edge, Bps::new(2_000_000_000)); // 2 Gb/s core
        let p0 = fabric.add_port();
        let p1 = fabric.add_port();
        let a = fabric.host_on(Some("c0"), p0);
        let b = fabric.host_on(Some("c1"), p1);
        // Two ports on a 2 Gb/s core: each gets 1 Gb/s — edge-bound.
        assert_eq!(a.params().bandwidth_bps, Bps::new(1_000_000_000));
        // A third port drops the core share to 666 Mb/s < edge: the
        // core now binds every endpoint, idle edges included.
        fabric.add_port();
        assert_eq!(a.params().bandwidth_bps, Bps::new(2_000_000_000 / 3));
        assert_eq!(b.params().bandwidth_bps, Bps::new(2_000_000_000 / 3));
    }

    #[test]
    fn edge_contention_is_per_port() {
        let sim = Sim::new(3);
        // Core wide enough (8 Gb/s) to never bind two ports.
        let fabric = Fabric::with_core(sim, LinkParams::gigabit_lan(), Bps::new(8_000_000_000));
        let p0 = fabric.add_port();
        let p1 = fabric.add_port();
        let a = fabric.host_on(Some("c0"), p0);
        let b = fabric.host_on(Some("c1"), p1);
        fabric.set_port_active(p0, 4);
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
        let fabric = Fabric::with_core(sim, LinkParams::gigabit_lan(), Bps::new(8_000_000_000));
        let p0 = fabric.add_port();
        let p1 = fabric.add_port();
        let a = fabric.host_on(Some("c0"), p0);
        let b = fabric.host_on(Some("c1"), p0);
        let c = fabric.host_on(Some("c2"), p1);
        assert!(Rc::ptr_eq(&a.port.tcp_link, &b.port.tcp_link));
        assert!(!Rc::ptr_eq(&a.port.tcp_link, &c.port.tcp_link));
    }

    #[test]
    fn share_cache_matches_direct_division() {
        let s = LinkShare::new(Bps::new(1_000_000_007), None);
        for n in 1..=13u32 {
            s.set_active(n);
            assert_eq!(s.effective_bps(), Bps::new(1_000_000_007 / n as u64));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn host_on_unknown_port_is_rejected() {
        let sim = Sim::new(3);
        let fabric = Fabric::with_core(sim, LinkParams::gigabit_lan(), Bps::new(1_000_000_000));
        let _ = fabric.host_on(Some("c0"), 2);
    }
}
