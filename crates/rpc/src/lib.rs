//! ONC-RPC-style request/response layer used by the NFS client.
//!
//! Semantically an RPC here is synchronous: the caller provides the
//! request/response sizes and the server-side service time, and gets
//! back the client-observed latency plus accounting. What this crate
//! adds over a bare [`net::Channel`] round trip is the *Linux RPC
//! client's retransmission behaviour* that the paper identifies in
//! §4.6: the client keeps an adaptive retransmission timeout (RTO)
//! seeded from a smoothed RTT estimate, and at high network latencies
//! it fires prematurely — the request is reissued "even though the
//! data is in transit", costing extra messages and stalling the
//! pipeline.
//!
//! ## Message counting convention
//!
//! Throughout the testbed a **transaction** — one RPC call together
//! with its reply, or one SCSI command together with its data and
//! status — counts as one message, matching how the paper's
//! micro-benchmark tables tally operations (e.g. a cold `mkdir` in NFS
//! v2 = LOOKUP + MKDIR = 2 messages). Transactions are counted under
//! `proto.<label>.txns`; raw directional packets remain visible in the
//! `net.*` counters.
//!
//! # Example
//!
//! ```
//! use simkit::{Sim, SimDuration};
//! use net::{LinkParams, Network, Transport};
//! use rpc::RpcClient;
//! use simkit::units::Bytes;
//!
//! let sim = Sim::new(1);
//! let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
//! let client = RpcClient::new(netw.channel("nfs", Transport::Tcp), Default::default());
//! let out = client.call("lookup", Bytes::new(128), Bytes::new(128), SimDuration::from_micros(50));
//! sim.advance(out.latency);
//! assert_eq!(sim.counters().get("proto.nfs.txns"), 1);
//! ```

pub mod wire;

use net::Channel;
use simkit::units::{self, Bytes};
use simkit::{CounterHandle, MetricHandle, Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Bounds on the retransmission loop, lifted out of the engine so the
/// figure-6 sweep can vary them (the Linux client's `retrans` mount
/// option and its capped exponential backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcTimeoutConfig {
    /// Maximum duplicate requests per call before the client gives up
    /// waiting out further RTO intervals.
    pub max_retransmits: u32,
    /// Cap on the exponential-backoff shift: the k-th retransmission
    /// waits `rto * 2^min(k, max_backoff_shift)`.
    pub max_backoff_shift: u32,
}

impl Default for RpcTimeoutConfig {
    fn default() -> Self {
        RpcTimeoutConfig {
            max_retransmits: 8,
            max_backoff_shift: 6,
        }
    }
}

/// Retransmission-timer parameters of the RPC client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpcConfig {
    /// Floor of the adaptive RTO. Linux 2.4's RPC engine is tick-based
    /// (HZ=100), giving a coarse floor around 100 ms.
    pub rto_min: SimDuration,
    /// Cap of the adaptive RTO.
    pub rto_max: SimDuration,
    /// Multiplier applied to the smoothed RTT to form the RTO. Small
    /// values reproduce the premature timeouts the paper observed.
    pub rto_factor: f64,
    /// Relative magnitude of per-call service-time jitter (models
    /// server scheduling and queueing noise that grows with RTT).
    /// Only used under the pipe transport model; with TCP flows the
    /// variance comes from modeled queueing and loss recovery.
    pub jitter_frac: f64,
    /// Smoothing gain of the RTT estimator.
    pub srtt_gain: f64,
    /// Retransmission-loop bounds.
    pub timeout: RpcTimeoutConfig,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            rto_min: SimDuration::from_millis(100),
            rto_max: SimDuration::from_secs(60),
            rto_factor: 1.5,
            jitter_frac: 0.5,
            srtt_gain: 0.125,
            timeout: RpcTimeoutConfig::default(),
        }
    }
}

/// Result of one RPC as seen by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallOutcome {
    /// Client-observed latency from issuing the call to consuming the
    /// reply (including retransmission stalls).
    pub latency: SimDuration,
    /// Number of duplicate requests sent by premature timeouts.
    pub retransmits: u32,
}

/// An RPC client bound to one channel.
///
/// The client is purely a timing/accounting device: the *semantics* of
/// each procedure are executed by the caller (the NFS client invokes
/// the server object directly — there is exactly one client in the
/// paper's testbed, so the synchronous model is exact).
#[derive(Debug)]
pub struct RpcClient {
    chan: Channel,
    config: RpcConfig,
    srtt: Cell<SimDuration>,
    txns: CounterHandle,
    retrans: CounterHandle,
    /// Per-procedure counter/histogram handles, resolved on first use
    /// of each procedure name. Steady-state calls bump handles only —
    /// no name formatting, no registry lookups.
    procs: RefCell<BTreeMap<String, ProcHandles>>,
}

#[derive(Debug, Clone)]
struct ProcHandles {
    calls: CounterHandle,
    latency: MetricHandle,
}

impl RpcClient {
    /// Creates a client over `chan`.
    pub fn new(chan: Channel, config: RpcConfig) -> Self {
        let sim = chan.network().sim().clone();
        let label = chan.label();
        let txns = sim.counters().handle(&format!("proto.{label}.txns"));
        let retrans = sim.counters().handle(&format!("proto.{label}.retrans"));
        RpcClient {
            chan,
            config,
            srtt: Cell::new(SimDuration::ZERO),
            txns,
            retrans,
            procs: RefCell::new(BTreeMap::new()),
        }
    }

    /// Handles for `proc_name`, formatted and registered on first use.
    fn proc_handles(&self, proc_name: &str) -> ProcHandles {
        if let Some(h) = self.procs.borrow().get(proc_name) {
            return h.clone();
        }
        let sim = self.sim();
        let label = self.chan.label();
        let h = ProcHandles {
            calls: sim
                .counters()
                .handle(&format!("proto.{label}.call.{proc_name}")),
            latency: sim.metrics().handle(&format!("rpc.{label}.{proc_name}")),
        };
        self.procs
            .borrow_mut()
            .insert(proc_name.to_owned(), h.clone());
        h
    }

    /// The underlying channel.
    pub fn channel(&self) -> &Channel {
        &self.chan
    }

    fn sim(&self) -> &Rc<Sim> {
        self.chan.network().sim()
    }

    /// Current retransmission timeout derived from the smoothed RTT.
    pub(crate) fn rto(&self) -> SimDuration {
        let base = units::duration_from_nanos_f64(
            units::nanos_f64(self.srtt.get()) * self.config.rto_factor,
        );
        base.max(self.config.rto_min).min(self.config.rto_max)
    }

    /// Executes one RPC: accounts a transaction, estimates the reply
    /// time (round trip + `server_time` + jitter), fires the
    /// retransmission timer if the reply is late, and returns the
    /// client-observed latency.
    ///
    /// Retransmitted requests are extra transactions on the wire (the
    /// paper's Ethereal traces count them), and each one stalls the
    /// caller for an additional half round trip while the duplicate
    /// reply drains.
    pub fn call(
        &self,
        proc_name: &str,
        req_bytes: Bytes,
        resp_bytes: Bytes,
        server_time: SimDuration,
    ) -> CallOutcome {
        let sim = self.sim().clone();
        let procs = self.proc_handles(proc_name);
        // Bracket the whole transaction: wire time recorded below nests
        // under this span, so critical-path analysis can split protocol
        // stalls (jitter, retransmission waits) from raw transfer time.
        let rpc_ctx = sim.tracer().open_span(None);
        self.txns.incr();
        procs.calls.incr();

        let wire = self.chan.round_trip(req_bytes, resp_bytes);
        // Reply-time estimate. Under the pipe model the wire time is a
        // closed form, so cross-traffic variance is injected as
        // parameterized exponential jitter (inverse-CDF on the
        // deterministic sim RNG). Under the TCP flow model the round
        // trip above *is* the modeled delivery time — queueing delay,
        // slow-start rounds, and loss-recovery stalls included — so no
        // jitter is drawn and premature retransmissions emerge from
        // the model alone.
        let jitter = if self.chan.tcp_modeled() {
            SimDuration::ZERO
        } else {
            let u = units::unit_interval_53(sim.rng_u64());
            let jitter_scale =
                units::nanos_f64(self.chan.network().params().rtt) * self.config.jitter_frac;
            units::duration_from_nanos_f64(-(1.0 - u).ln() * jitter_scale)
        };
        let reply_at = wire + server_time + jitter;

        // Premature retransmissions: every RTO interval that elapses
        // before the reply arrives triggers a duplicate request.
        let rto = self.rto();
        let mut retransmits = 0u32;
        let mut deadline = rto;
        let mut latency = reply_at;
        while deadline < reply_at && retransmits < self.config.timeout.max_retransmits {
            retransmits += 1;
            // The duplicate is a full transaction on the wire.
            self.txns.incr();
            self.retrans.incr();
            let _ = self.chan.round_trip(req_bytes, resp_bytes);
            // The client ends up waiting for the duplicate's reply too.
            latency += self.chan.network().params().rtt / 2;
            deadline += rto * 2u64.pow(retransmits.min(self.config.timeout.max_backoff_shift));
        }

        // Update the smoothed RTT estimate (gain-filtered).
        let g = self.config.srtt_gain;
        let prev = units::nanos_f64(self.srtt.get());
        let next = if prev == 0.0 {
            units::nanos_f64(reply_at)
        } else {
            prev + g * (units::nanos_f64(reply_at) - prev)
        };
        self.srtt.set(units::duration_from_nanos_f64(next));

        // Per-procedure client-observed latency distribution, and a
        // span covering the whole transaction (the clock has not been
        // advanced yet — the caller does that — so the span runs from
        // `now` to `now + latency`). The first round trip's transfer
        // time is a nested "net" child; the rpc span's residue is the
        // protocol engine's own contribution (jitter, retransmission
        // stalls).
        procs.latency.record_duration(latency);
        let tracer = sim.tracer();
        let start = sim.now();
        let attrs = if rpc_ctx.is_disabled() {
            Vec::new()
        } else {
            tracer.record(
                "net",
                "wire",
                start,
                start + wire,
                vec![("bytes", (req_bytes + resp_bytes).to_string())],
            );
            vec![
                ("retrans", retransmits.to_string()),
                ("req_bytes", req_bytes.to_string()),
                ("resp_bytes", resp_bytes.to_string()),
            ]
        };
        tracer.close_span(rpc_ctx, "rpc", proc_name, start, start + latency, attrs);

        CallOutcome {
            latency,
            retransmits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net::{LinkParams, Network, Transport};
    use simkit::Sim;

    fn b(n: u64) -> Bytes {
        Bytes::new(n)
    }

    fn client(rtt_ms: u64) -> (Rc<Sim>, RpcClient) {
        let sim = Sim::new(42);
        let netw = Network::new(
            sim.clone(),
            LinkParams::wan(SimDuration::from_millis(rtt_ms)),
        );
        let c = RpcClient::new(netw.channel("nfs", Transport::Tcp), RpcConfig::default());
        (sim, c)
    }

    #[test]
    fn lan_calls_do_not_retransmit() {
        let sim = Sim::new(42);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let c = RpcClient::new(netw.channel("nfs", Transport::Tcp), RpcConfig::default());
        for _ in 0..1000 {
            let out = c.call("read", b(128), b(8192), SimDuration::from_micros(100));
            assert_eq!(out.retransmits, 0);
        }
        assert_eq!(sim.counters().get("proto.nfs.txns"), 1000);
        assert_eq!(sim.counters().get("proto.nfs.retrans"), 0);
    }

    #[test]
    fn high_rtt_induces_retransmissions() {
        let (sim, c) = client(90);
        let mut total = 0;
        for _ in 0..500 {
            total += c
                .call("read", b(128), b(8192), SimDuration::from_micros(100))
                .retransmits;
        }
        assert!(total > 0, "90ms RTT should trip the RTO occasionally");
        assert_eq!(sim.counters().get("proto.nfs.retrans") as u32, total);
    }

    #[test]
    fn retransmissions_increase_with_rtt() {
        let count = |rtt| {
            let (_sim, c) = client(rtt);
            let mut total = 0;
            for _ in 0..500 {
                total += c
                    .call("read", b(128), b(8192), SimDuration::from_micros(100))
                    .retransmits;
            }
            total
        };
        assert!(count(90) > count(30), "more retransmissions at higher RTT");
    }

    #[test]
    fn latency_includes_server_time() {
        let (_sim, c) = client(10);
        let slow = c.call("read", b(128), b(128), SimDuration::from_millis(50));
        let (_sim2, c2) = client(10);
        let fast = c2.call("read", b(128), b(128), SimDuration::ZERO);
        assert!(slow.latency > fast.latency);
        assert!(slow.latency >= SimDuration::from_millis(60)); // rtt + server
    }

    #[test]
    fn per_procedure_counters() {
        let (sim, c) = client(1);
        c.call("lookup", b(64), b(64), SimDuration::ZERO);
        c.call("lookup", b(64), b(64), SimDuration::ZERO);
        c.call("mkdir", b(64), b(64), SimDuration::ZERO);
        assert_eq!(sim.counters().get("proto.nfs.call.lookup"), 2);
        assert_eq!(sim.counters().get("proto.nfs.call.mkdir"), 1);
    }

    #[test]
    fn per_procedure_latency_histograms() {
        let (sim, c) = client(1);
        for _ in 0..10 {
            c.call("lookup", b(64), b(64), SimDuration::from_micros(50));
        }
        c.call("mkdir", b(64), b(64), SimDuration::ZERO);
        let h = sim.metrics().histogram("rpc.nfs.lookup").unwrap();
        assert_eq!(h.count(), 10);
        assert!(h.p50() >= SimDuration::from_millis(1).as_nanos());
        assert_eq!(sim.metrics().histogram("rpc.nfs.mkdir").unwrap().count(), 1);
        assert!(sim.metrics().histogram("rpc.nfs.read").is_none());
    }

    #[test]
    fn calls_emit_spans_when_tracing() {
        let (sim, c) = client(1);
        c.call("lookup", b(64), b(64), SimDuration::ZERO);
        assert!(sim.tracer().is_empty(), "tracer off by default");
        sim.tracer().set_enabled(true);
        let out = c.call("getattr", b(64), b(128), SimDuration::from_micros(30));
        let spans = sim.tracer().spans();
        assert_eq!(spans.len(), 2, "net child + rpc span");
        assert_eq!(spans[0].layer, "net");
        assert_eq!(spans[0].op, "wire");
        assert_eq!(spans[1].layer, "rpc");
        assert_eq!(spans[1].op, "getattr");
        assert_eq!(spans[1].end.since(spans[1].start), out.latency);
        assert_eq!(spans[0].parent, Some(spans[1].span), "wire nests in rpc");
        assert_eq!(spans[0].trace, spans[1].trace);
        assert!(
            spans[0].end.since(spans[0].start) < out.latency,
            "wire time is a strict part of the call"
        );
    }

    #[test]
    fn timeout_config_caps_retransmissions() {
        // max_retransmits = 0 silences the engine entirely, whatever
        // the RTT; the default cap of 8 is what the old hardcoded loop
        // enforced.
        let sim = Sim::new(42);
        let netw = Network::new(sim.clone(), LinkParams::wan(SimDuration::from_millis(90)));
        let cfg = RpcConfig {
            timeout: RpcTimeoutConfig {
                max_retransmits: 0,
                ..RpcTimeoutConfig::default()
            },
            ..RpcConfig::default()
        };
        let c = RpcClient::new(netw.channel("nfs", Transport::Tcp), cfg);
        for _ in 0..500 {
            let out = c.call("read", b(128), b(8192), SimDuration::from_micros(100));
            assert_eq!(out.retransmits, 0);
        }
        assert_eq!(sim.counters().get("proto.nfs.retrans"), 0);
    }

    #[test]
    fn smaller_backoff_shift_retransmits_more() {
        // A reply 1 s late against a 100 ms RTO: flat backoff (shift
        // 0) keeps firing every RTO, while the default doubling covers
        // the same wait in a few intervals.
        let count = |shift| {
            let sim = Sim::new(42);
            let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
            let cfg = RpcConfig {
                timeout: RpcTimeoutConfig {
                    max_retransmits: 64,
                    max_backoff_shift: shift,
                },
                ..RpcConfig::default()
            };
            let c = RpcClient::new(netw.channel("nfs", Transport::Tcp), cfg);
            c.call("read", b(128), b(8192), SimDuration::from_secs(1))
                .retransmits
        };
        assert!(count(0) > count(6), "flat backoff fires more duplicates");
    }

    #[test]
    fn tcp_model_lan_calls_do_not_retransmit() {
        // Uncongested LAN under the flow model: modeled delivery is a
        // handful of microseconds, far under the 100 ms RTO floor.
        let sim = Sim::new(42);
        let netw = Network::new(
            sim.clone(),
            LinkParams::gigabit_lan().with_transport(net::TransportModel::Tcp { connections: 1 }),
        );
        let c = RpcClient::new(netw.channel("nfs", Transport::Tcp), RpcConfig::default());
        for _ in 0..200 {
            let out = c.call("read", b(128), b(8192), SimDuration::from_micros(100));
            assert_eq!(out.retransmits, 0);
            sim.advance(out.latency);
        }
        assert_eq!(sim.counters().get("proto.nfs.retrans"), 0);
    }

    #[test]
    fn tcp_model_congestion_makes_retransmits_emerge() {
        // Back-to-back calls at one instant (the async write-back
        // pattern: the clock does not advance between issues) pile the
        // bottleneck queue up past its capacity; tail drops force the
        // flows into RTO stalls, the modeled replies arrive long after
        // the RPC deadline, and duplicates appear — with zero
        // parameterized jitter anywhere in the path.
        let sim = Sim::new(42);
        let netw = Network::new(
            sim.clone(),
            LinkParams::wan(SimDuration::from_millis(90))
                .with_transport(net::TransportModel::Tcp { connections: 1 }),
        );
        let c = RpcClient::new(netw.channel("nfs", Transport::Tcp), RpcConfig::default());
        let mut total = 0u64;
        for _ in 0..100 {
            total += c
                .call("write", b(8192), b(128), SimDuration::from_micros(100))
                .retransmits as u64;
        }
        assert!(total > 0, "modeled queueing/loss must trip the RPC RTO");
        assert!(
            sim.counters().get("net.tcp.retx_segs") > 0,
            "the stalls come from real segment loss, not injection"
        );
    }

    #[test]
    fn srtt_adapts_and_raises_rto() {
        let (_sim, c) = client(90);
        let initial = c.rto();
        for _ in 0..50 {
            c.call("read", b(128), b(8192), SimDuration::from_micros(100));
        }
        assert!(c.rto() > initial, "RTO should learn the higher RTT");
    }
}
