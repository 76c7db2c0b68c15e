//! iSCSI initiator and target for the `ipstorage` testbed.
//!
//! Models the protocol stack of the paper's Figure 1(b)/2(b): the
//! client runs a local file system over a [`RemoteDisk`]; each block
//! I/O becomes a SCSI command encapsulated in iSCSI PDUs and carried
//! over the simulated TCP link to the [`Target`], which executes it
//! against the server-side block device (the RAID-5 array).
//!
//! The model covers what the paper's measurements depend on:
//!
//! * a login phase negotiating session parameters
//!   ([`SessionParams`]: burst lengths, immediate data),
//! * command/status sequence numbers (`CmdSN`/`StatSN`) with ordering
//!   checks,
//! * data segmentation into `MaxRecvDataSegmentLength`-sized Data-In /
//!   Data-Out PDUs,
//! * per-command accounting: **one SCSI command counts as one
//!   transaction** (`proto.iscsi.txns`), mirroring how the paper
//!   tallies iSCSI messages against NFS RPCs.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use simkit::Sim;
//! use net::{LinkParams, Network, Transport};
//! use blockdev::{BlockDevice, MemDisk, BLOCK_SIZE};
//! use iscsi::{Initiator, Target};
//!
//! let sim = Sim::new(1);
//! let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
//! let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 1024))));
//! let initiator = Initiator::new(netw.channel("iscsi", Transport::Tcp), target);
//! let disk = initiator.login(Default::default()).unwrap();
//! disk.write(0, &vec![9u8; BLOCK_SIZE]).unwrap();
//! let mut buf = vec![0u8; BLOCK_SIZE];
//! disk.read(0, 1, &mut buf).unwrap();
//! assert_eq!(buf[0], 9);
//! ```

mod pdu;

pub use pdu::{BasicHeader, Opcode, Pdu, BHS_LEN};

use blockdev::{BlockDevice, BlockNo, IoCost, Result as BlockResult, BLOCK_SIZE};
use net::Channel;
use scsi::{Cdb, ScsiStatus, ScsiTarget, SenseKey};
use simkit::units::Bytes;
use simkit::{CounterHandle, MetricHandle};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Negotiated session parameters (a practical subset of RFC 3720
/// login keys, plus the initiator's command queue depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionParams {
    /// Largest data segment either side will put in one PDU.
    pub max_recv_data_segment: u32,
    /// Unsolicited data the initiator may send with a command.
    pub first_burst: u32,
    /// Whether write data may ride along with the command PDU.
    pub immediate_data: bool,
    /// Whether the target demands an R2T before any data-out.
    pub initial_r2t: bool,
    /// Tagged commands kept in flight for sequential read streams:
    /// back-to-back reads amortize the round-trip latency by this
    /// factor.
    pub queue_depth: u32,
    /// TCP connections multiplexed into this session (RFC 3720 MC/S;
    /// the paper's §2.2 feature (ii)). Data phases stripe across
    /// connections, dividing serialization delay.
    pub connections: u32,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            max_recv_data_segment: 256 * 1024,
            first_burst: 64 * 1024,
            immediate_data: true,
            initial_r2t: false,
            queue_depth: 4,
            connections: 1,
        }
    }
}

/// Errors surfaced by the iSCSI layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IscsiError {
    /// Login was rejected by the target.
    LoginRejected(&'static str),
    /// The target returned CHECK CONDITION.
    CheckCondition(SenseKey),
    /// A PDU arrived out of sequence.
    SequenceError {
        /// Expected sequence number.
        expected: u32,
        /// Observed sequence number.
        got: u32,
    },
}

impl fmt::Display for IscsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IscsiError::LoginRejected(why) => write!(f, "login rejected: {why}"),
            IscsiError::CheckCondition(k) => write!(f, "scsi check condition: {k:?}"),
            IscsiError::SequenceError { expected, got } => {
                write!(f, "sequence error: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for IscsiError {}

/// Target-side state of one logged-in session: its sequence numbers
/// and the LUN it is bound to.
#[derive(Debug)]
struct SessionState {
    exp_cmd_sn: u32,
    stat_sn: u32,
    lun: usize,
    commands: u64,
}

/// The target-side endpoint: per-session sequence state plus one SCSI
/// execution layer per exported LUN.
///
/// A freshly built target exports a single volume as LUN 0 — the
/// paper's one-initiator setup. Multi-initiator topologies call
/// [`add_lun`](Target::add_lun) to export further (typically disjoint,
/// see `blockdev::Partition`) volumes, and each
/// [`Initiator::login_lun`] opens an independent session with its own
/// `CmdSN`/`StatSN` stream — commands from different initiators no
/// longer share an ordering window, exactly as RFC 3720 scopes
/// sequence numbers per session.
pub struct Target {
    luns: RefCell<Vec<ScsiTarget>>,
    sessions: RefCell<Vec<SessionState>>,
    commands_executed: Cell<u64>,
}

impl fmt::Debug for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Target")
            .field("luns", &self.luns.borrow().len())
            .field("sessions", &self.sessions.borrow().len())
            .field("commands_executed", &self.commands_executed.get())
            .finish()
    }
}

impl Target {
    /// Exports `volume` as LUN 0.
    pub fn new(volume: Rc<dyn BlockDevice>) -> Self {
        Target {
            luns: RefCell::new(vec![ScsiTarget::new(volume)]),
            sessions: RefCell::new(Vec::new()),
            commands_executed: Cell::new(0),
        }
    }

    /// Exports an additional volume; returns its LUN number.
    pub fn add_lun(&self, volume: Rc<dyn BlockDevice>) -> u32 {
        let mut luns = self.luns.borrow_mut();
        luns.push(ScsiTarget::new(volume));
        (luns.len() - 1) as u32
    }

    /// The volume behind `lun`.
    ///
    /// # Panics
    ///
    /// Panics if `lun` was never exported.
    pub(crate) fn lun_volume(&self, lun: u32) -> Rc<dyn BlockDevice> {
        Rc::clone(self.luns.borrow()[lun as usize].device())
    }

    /// Opens a session bound to `lun` with fresh sequence numbers
    /// (called during login); returns the session id.
    fn open_session(&self, lun: u32) -> Result<u32, IscsiError> {
        if lun as usize >= self.luns.borrow().len() {
            return Err(IscsiError::LoginRejected("no such LUN"));
        }
        let mut sessions = self.sessions.borrow_mut();
        sessions.push(SessionState {
            exp_cmd_sn: 0,
            stat_sn: 0,
            lun: lun as usize,
            commands: 0,
        });
        Ok((sessions.len() - 1) as u32)
    }

    /// Admits a command PDU on `session`, enforcing CmdSN ordering and
    /// advancing that session's sequence state. Returns the LUN the
    /// session is bound to.
    fn admit(&self, session: u32, cmd_sn: u32) -> Result<usize, IscsiError> {
        let mut sessions = self.sessions.borrow_mut();
        let s = &mut sessions[session as usize];
        if cmd_sn != s.exp_cmd_sn {
            return Err(IscsiError::SequenceError {
                expected: s.exp_cmd_sn,
                got: cmd_sn,
            });
        }
        s.exp_cmd_sn = s.exp_cmd_sn.wrapping_add(1);
        s.stat_sn = s.stat_sn.wrapping_add(1);
        s.commands += 1;
        self.commands_executed.set(self.commands_executed.get() + 1);
        Ok(s.lun)
    }

    /// Executes a command PDU on `session`, enforcing CmdSN ordering.
    fn execute(
        &self,
        session: u32,
        cmd_sn: u32,
        cdb: Cdb,
        data_out: &[u8],
    ) -> Result<scsi::ScsiCompletion, IscsiError> {
        let lun = self.admit(session, cmd_sn)?;
        Ok(self.luns.borrow()[lun].execute(cdb, data_out))
    }

    /// Executes a `Read10` PDU straight into `buf` (no data-in
    /// allocation), enforcing CmdSN ordering.
    fn execute_read_into(
        &self,
        session: u32,
        cmd_sn: u32,
        lba: u32,
        blocks: u16,
        buf: &mut [u8],
    ) -> Result<scsi::ScsiCompletion, IscsiError> {
        let lun = self.admit(session, cmd_sn)?;
        Ok(self.luns.borrow()[lun].execute_read_into(lba, blocks, buf))
    }
}

/// The initiator-side endpoint. [`login`](Initiator::login) performs
/// the (accounted) login exchange and yields a [`RemoteDisk`].
pub struct Initiator {
    chan: Channel,
    target: Rc<Target>,
}

impl fmt::Debug for Initiator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Initiator")
            .field("channel", &self.chan.label())
            .finish()
    }
}

impl Initiator {
    /// Creates an initiator that will connect to `target` over `chan`.
    pub fn new(chan: Channel, target: Rc<Target>) -> Self {
        Initiator { chan, target }
    }

    /// Performs the login phase (security + operational negotiation:
    /// two PDU round trips, counted) against LUN 0 and returns the
    /// remote disk — the single-initiator configuration.
    ///
    /// # Errors
    ///
    /// Returns [`IscsiError::LoginRejected`] if parameters are
    /// unacceptable (zero burst sizes).
    pub fn login(&self, params: SessionParams) -> Result<RemoteDisk, IscsiError> {
        self.login_lun(params, 0)
    }

    /// Performs the login phase and opens a session bound to `lun`.
    /// Each call yields an independent session with its own
    /// `CmdSN`/`StatSN` stream, so several initiators can drive one
    /// target concurrently over private LUNs.
    ///
    /// # Errors
    ///
    /// Returns [`IscsiError::LoginRejected`] if parameters are
    /// unacceptable (zero burst sizes) or `lun` was never exported.
    pub fn login_lun(&self, params: SessionParams, lun: u32) -> Result<RemoteDisk, IscsiError> {
        if params.max_recv_data_segment == 0 || params.first_burst == 0 {
            return Err(IscsiError::LoginRejected("zero-length bursts"));
        }
        let sim = self.chan.network().sim().clone();
        let session = self.target.open_session(lun)?;
        // Security negotiation stage, then operational stage.
        for stage in ["security", "operational"] {
            let d = self.chan.round_trip(Bytes::new(512), Bytes::new(512));
            sim.counters().incr("proto.iscsi.txns");
            sim.counters().incr(&format!("proto.iscsi.login.{stage}"));
            sim.advance(d);
        }
        Ok(RemoteDisk {
            chan: self.chan.clone(),
            target: Rc::clone(&self.target),
            params,
            session,
            lun,
            cmd_sn: Cell::new(0),
            exp_stat_sn: Cell::new(0),
            read_head: Cell::new(u64::MAX),
            name: format!("iscsi:{}", self.target.lun_volume(lun).name()),
            txns: sim.counters().handle("proto.iscsi.txns"),
            cmds: RefCell::new(BTreeMap::new()),
        })
    }
}

/// A [`BlockDevice`] whose I/Os travel over iSCSI. This is what the
/// client-side ext3 instance mounts.
///
/// The returned [`IoCost`] of each operation is the full remote
/// service time: command propagation, target device time, and
/// data/status return. As everywhere in the testbed, the caller
/// decides whether that cost is foreground latency or background
/// (asynchronous write-back) time.
pub struct RemoteDisk {
    chan: Channel,
    target: Rc<Target>,
    params: SessionParams,
    /// Target-side session this disk's commands flow through.
    session: u32,
    /// LUN the session is bound to.
    lun: u32,
    cmd_sn: Cell<u32>,
    exp_stat_sn: Cell<u32>,
    /// End of the previous read, for tagged-command pipelining of
    /// sequential streams.
    read_head: Cell<BlockNo>,
    name: String,
    txns: CounterHandle,
    /// Per-opcode counter/histogram handles, resolved on the first
    /// command of each kind; the per-command path then only bumps
    /// handles — no name formatting, no registry lookups.
    cmds: RefCell<BTreeMap<&'static str, CmdHandles>>,
}

#[derive(Debug, Clone)]
struct CmdHandles {
    count: CounterHandle,
    latency: MetricHandle,
}

impl fmt::Debug for RemoteDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteDisk")
            .field("name", &self.name)
            .field("cmd_sn", &self.cmd_sn.get())
            .finish()
    }
}

impl RemoteDisk {
    /// Handles for `op`'s per-opcode counters, registered on first use.
    fn cmd_handles(&self, op: &'static str) -> CmdHandles {
        if let Some(h) = self.cmds.borrow().get(op) {
            return h.clone();
        }
        let sim = self.chan.network().sim().clone();
        let h = CmdHandles {
            count: sim.counters().handle(&format!("proto.iscsi.cmd.{op}")),
            latency: sim.metrics().handle(&format!("iscsi.cdb.{op}")),
        };
        self.cmds.borrow_mut().insert(op, h.clone());
        h
    }

    /// Issues one SCSI command as a full iSCSI exchange and returns
    /// the completion and its end-to-end cost.
    ///
    /// `read_into`, when set, receives a `Read10`'s data-in payload
    /// directly (the completion then carries no owned data), sparing
    /// the target-side allocation and initiator-side copy per read.
    fn transact(
        &self,
        cdb: Cdb,
        data_out: &[u8],
        read_into: Option<&mut [u8]>,
    ) -> Result<(scsi::ScsiCompletion, IoCost), IscsiError> {
        let sim = self.chan.network().sim().clone();
        let cmd_sn = self.cmd_sn.get();
        self.cmd_sn.set(cmd_sn.wrapping_add(1));
        let op = opcode_name(&cdb);
        let cmd = self.cmd_handles(op);
        // Bracket the exchange: target-side work recorded during
        // execute (CPU charges, disk service, parity updates) nests
        // under this CDB's span.
        let cdb_ctx = sim.tracer().open_span(None);
        self.txns.incr();
        cmd.count.incr();

        let seg = self.params.max_recv_data_segment as usize;
        let p = self.chan.network().params();
        let conns = self.params.connections.max(1) as u64;
        let mut wire = simkit::SimDuration::ZERO;

        // Command PDU, possibly carrying immediate write data.
        let immediate = if self.params.immediate_data {
            data_out.len().min(self.params.first_burst as usize)
        } else {
            0
        };
        wire += send_accounted(&self.chan, Bytes::new(BHS_LEN as u64 + immediate as u64));

        // Remaining data-out PDUs (solicited; we fold the R2T into the
        // stream as one extra header when initial_r2t is set).
        let mut remaining = data_out.len() - immediate;
        if remaining > 0 && self.params.initial_r2t {
            wire += send_accounted(&self.chan, Bytes::new(BHS_LEN as u64)); // R2T
        }
        let mut out_burst = Bytes::ZERO;
        while remaining > 0 {
            let chunk = remaining.min(seg);
            if self.chan.tcp_modeled() {
                // MC/S under the flow model: the PDU stream is striped
                // across the session's connections below (one burst
                // through every flow's congestion window), so only the
                // bytes are gathered here.
                out_burst += Bytes::new(BHS_LEN as u64 + chunk as u64);
            } else {
                // Pipe model: multiple connections drain data-out PDUs
                // in parallel.
                wire += p.serialize(Bytes::new(BHS_LEN as u64 + chunk as u64)) / conns;
            }
            self.account_bytes(Bytes::new(BHS_LEN as u64 + chunk as u64));
            remaining -= chunk;
        }
        if !out_burst.is_zero() {
            if let Some(d) = self.chan.tcp_burst(out_burst, net::Direction::Up) {
                wire += d;
            }
        }

        // Target executes the command.
        let completion = match read_into {
            Some(buf) => match cdb {
                Cdb::Read10 { lba, blocks } => {
                    self.target
                        .execute_read_into(self.session, cmd_sn, lba, blocks, buf)
                }
                _ => unreachable!("read_into is only meaningful for Read10"),
            },
            None => self.target.execute(self.session, cmd_sn, cdb, data_out),
        };
        let completion = match completion {
            Ok(c) => c,
            Err(e) => {
                // Close the bracketing span (zero-length: the exchange
                // died at admission) before surfacing the error.
                let now = sim.now();
                sim.tracer()
                    .close_span(cdb_ctx, "iscsi", op, now, now, Vec::new());
                return Err(e);
            }
        };

        // Data-in PDUs then the SCSI response (status piggybacked on
        // the final Data-In when there is data). A read-into
        // completion owns no data; its data-in phase is the CDB's
        // declared transfer length.
        let data_in_total = if completion.data.is_empty() && completion.status == ScsiStatus::Good {
            match cdb {
                Cdb::Read10 { .. } => cdb.data_in_len(),
                _ => 0,
            }
        } else {
            completion.data.len()
        };
        let mut data_len = data_in_total;
        if data_len == 0 {
            // Status-only response.
            wire += match self
                .chan
                .tcp_burst(Bytes::new(BHS_LEN as u64), net::Direction::Down)
            {
                Some(d) => d,
                None => p.one_way(Bytes::new(BHS_LEN as u64)),
            };
            self.account_bytes(Bytes::new(BHS_LEN as u64));
        } else if self.chan.tcp_modeled() {
            // The whole data-in sequence is one striped burst across
            // the session's connections: each flow carries every
            // conns-th segment through its own window, all contending
            // for the shared bottleneck queue.
            let mut in_burst = Bytes::ZERO;
            while data_len > 0 {
                let chunk = data_len.min(seg);
                let bytes = Bytes::new(BHS_LEN as u64 + chunk as u64);
                in_burst += bytes;
                self.account_bytes(bytes);
                data_len -= chunk;
            }
            if let Some(d) = self.chan.tcp_burst(in_burst, net::Direction::Down) {
                wire += d;
            }
        } else {
            let mut first = true;
            while data_len > 0 {
                let chunk = data_len.min(seg);
                let bytes = Bytes::new(BHS_LEN as u64 + chunk as u64);
                if first {
                    wire += p.one_way(bytes);
                    first = false;
                } else {
                    // Subsequent Data-In PDUs stripe across the
                    // session's connections.
                    wire += p.serialize(bytes) / conns;
                }
                self.account_bytes(bytes);
                data_len -= chunk;
            }
        }

        let exp = self.exp_stat_sn.get();
        self.exp_stat_sn.set(exp.wrapping_add(1));

        let total = IoCost::new(wire).then(completion.cost);
        // Per-CDB round-trip latency (full exchange: command PDU
        // through status) and a span over the same interval.
        cmd.latency.record_duration(total.time);
        let tracer = sim.tracer();
        let start = sim.now();
        let attrs = if cdb_ctx.is_disabled() {
            Vec::new()
        } else {
            // PDU transfer time as a nested "net" child; the iscsi
            // span's residue is command processing outside wire and
            // device time.
            tracer.record(
                "net",
                "wire",
                start,
                start + wire,
                vec![(
                    "bytes",
                    (data_out.len() as u64 + data_in_total as u64).to_string(),
                )],
            );
            vec![
                ("cmd_sn", cmd_sn.to_string()),
                ("out_bytes", data_out.len().to_string()),
                ("in_bytes", data_in_total.to_string()),
            ]
        };
        tracer.close_span(cdb_ctx, "iscsi", op, start, start + total.time, attrs);
        match completion.status {
            ScsiStatus::Good => Ok((completion, total)),
            ScsiStatus::CheckCondition(k) => Err(IscsiError::CheckCondition(k)),
        }
    }

    fn account_bytes(&self, bytes: Bytes) {
        self.chan.account_extra_bytes(bytes);
    }
}

/// Sends a one-way PDU through the channel (counted in `net.*`) and
/// returns its latency.
fn send_accounted(chan: &Channel, bytes: Bytes) -> simkit::SimDuration {
    match chan.send(bytes) {
        net::Delivery::Delivered(d) => d,
        // iSCSI runs over TCP; loss is invisible above the transport.
        net::Delivery::Lost => chan.network().params().one_way(bytes),
    }
}

fn opcode_name(cdb: &Cdb) -> &'static str {
    match cdb {
        Cdb::Read10 { .. } => "read",
        Cdb::Write10 { .. } => "write",
        Cdb::ReadCapacity10 => "read_capacity",
        Cdb::Inquiry => "inquiry",
        Cdb::SynchronizeCache10 { .. } => "sync_cache",
        Cdb::TestUnitReady => "test_unit_ready",
        Cdb::ModeSense6 { .. } => "mode_sense",
        Cdb::ReportLuns => "report_luns",
    }
}

impl BlockDevice for RemoteDisk {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_count(&self) -> u64 {
        self.target.lun_volume(self.lun).block_count()
    }

    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> BlockResult<IoCost> {
        if buf.len() != nblocks as usize * BLOCK_SIZE {
            return Err(blockdev::BlockError::Misaligned { len: buf.len() });
        }
        let sequential = self.read_head.get() == start;
        self.read_head.set(start + nblocks as u64);
        let (_completion, mut cost) = self
            .transact(
                Cdb::Read10 {
                    lba: start as u32,
                    blocks: nblocks as u16,
                },
                &[],
                Some(buf),
            )
            .map_err(|e| blockdev::BlockError::DeviceFailed {
                device: format!("{}: {e}", self.name),
            })?;
        if sequential && self.params.queue_depth > 1 {
            // Tagged commands keep the pipe full on a sequential
            // stream: propagation is amortized across the queue depth.
            let rtt = self.chan.network().params().rtt;
            let hidden = rtt - rtt / self.params.queue_depth as u64;
            cost = IoCost::new(cost.time.saturating_sub(hidden));
        }
        Ok(cost)
    }

    fn write(&self, start: BlockNo, data: &[u8]) -> BlockResult<IoCost> {
        let nblocks = data.len() / BLOCK_SIZE;
        let (_completion, cost) = self
            .transact(
                Cdb::Write10 {
                    lba: start as u32,
                    blocks: nblocks as u16,
                },
                data,
                None,
            )
            .map_err(|e| blockdev::BlockError::DeviceFailed {
                device: format!("{}: {e}", self.name),
            })?;
        Ok(cost)
    }

    fn flush(&self) -> BlockResult<IoCost> {
        let (_completion, cost) = self
            .transact(Cdb::SynchronizeCache10 { lba: 0, blocks: 0 }, &[], None)
            .map_err(|e| blockdev::BlockError::DeviceFailed {
                device: format!("{}: {e}", self.name),
            })?;
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::MemDisk;
    use net::{LinkParams, Network, Transport};
    use simkit::Sim;

    fn setup() -> (Rc<Sim>, RemoteDisk) {
        let sim = Sim::new(3);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 4096))));
        let init = Initiator::new(netw.channel("iscsi", Transport::Tcp), target);
        let disk = init.login(SessionParams::default()).unwrap();
        (sim, disk)
    }

    #[test]
    fn login_counts_two_transactions() {
        let (sim, _disk) = setup();
        assert_eq!(sim.counters().get("proto.iscsi.txns"), 2);
    }

    #[test]
    fn read_write_round_trip() {
        let (_sim, disk) = setup();
        let data = vec![0x42u8; 3 * BLOCK_SIZE];
        disk.write(100, &data).unwrap();
        let mut buf = vec![0u8; 3 * BLOCK_SIZE];
        disk.read(100, 3, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn each_command_is_one_transaction() {
        let (sim, disk) = setup();
        let base = sim.counters().get("proto.iscsi.txns");
        let data = vec![0u8; BLOCK_SIZE];
        disk.write(0, &data).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        disk.read(0, 1, &mut buf).unwrap();
        disk.flush().unwrap();
        assert_eq!(sim.counters().get("proto.iscsi.txns"), base + 3);
        assert_eq!(sim.counters().get("proto.iscsi.cmd.read"), 1);
        assert_eq!(sim.counters().get("proto.iscsi.cmd.write"), 1);
        assert_eq!(sim.counters().get("proto.iscsi.cmd.sync_cache"), 1);
    }

    #[test]
    fn large_reads_segment_but_stay_one_transaction() {
        let sim = Sim::new(3);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 4096))));
        let init = Initiator::new(netw.channel("iscsi", Transport::Tcp), target);
        let disk = init
            .login(SessionParams {
                max_recv_data_segment: 8 * 1024,
                ..SessionParams::default()
            })
            .unwrap();
        let base = sim.counters().get("proto.iscsi.txns");
        let mut buf = vec![0u8; 32 * BLOCK_SIZE]; // 128 KiB over 8 KiB segments
        disk.read(0, 32, &mut buf).unwrap();
        assert_eq!(sim.counters().get("proto.iscsi.txns"), base + 1);
    }

    #[test]
    fn per_cdb_latency_histograms() {
        let (sim, disk) = setup();
        let data = vec![0u8; BLOCK_SIZE];
        disk.write(0, &data).unwrap();
        disk.write(1, &data).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        disk.read(0, 1, &mut buf).unwrap();
        let w = sim.metrics().histogram("iscsi.cdb.write").unwrap();
        assert_eq!(w.count(), 2);
        // At least the LAN round trip (200 us) shows up in every CDB.
        assert!(w.min() >= simkit::SimDuration::from_micros(200).as_nanos());
        assert_eq!(
            sim.metrics().histogram("iscsi.cdb.read").unwrap().count(),
            1
        );
    }

    #[test]
    fn cdb_spans_recorded_when_tracing() {
        let (sim, disk) = setup();
        sim.tracer().set_enabled(true);
        disk.flush().unwrap();
        let spans = sim.tracer().spans();
        assert_eq!(spans.len(), 2, "net child + iscsi span");
        assert_eq!(spans[0].layer, "net");
        assert_eq!(spans[1].layer, "iscsi");
        assert_eq!(spans[1].op, "sync_cache");
        assert!(spans[1].end > spans[1].start);
        assert_eq!(spans[0].parent, Some(spans[1].span), "wire nests in CDB");
    }

    #[test]
    fn out_of_range_read_is_device_failure() {
        let (_sim, disk) = setup();
        let mut buf = vec![0u8; BLOCK_SIZE];
        let err = disk.read(1_000_000, 1, &mut buf).unwrap_err();
        assert!(matches!(err, blockdev::BlockError::DeviceFailed { .. }));
    }

    #[test]
    fn zero_burst_login_rejected() {
        let sim = Sim::new(3);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 64))));
        let init = Initiator::new(netw.channel("iscsi", Transport::Tcp), target);
        assert!(init
            .login(SessionParams {
                first_burst: 0,
                ..SessionParams::default()
            })
            .is_err());
    }

    #[test]
    fn cmd_sn_ordering_enforced() {
        let target = Target::new(Rc::new(MemDisk::new("lun0", 64)));
        let s = target.open_session(0).unwrap();
        assert!(target.execute(s, 0, Cdb::TestUnitReady, &[]).is_ok());
        // Skipping a sequence number is rejected.
        let err = target.execute(s, 5, Cdb::TestUnitReady, &[]).unwrap_err();
        assert!(matches!(
            err,
            IscsiError::SequenceError {
                expected: 1,
                got: 5
            }
        ));
    }

    #[test]
    fn sessions_sequence_independently() {
        let target = Target::new(Rc::new(MemDisk::new("lun0", 64)));
        let a = target.open_session(0).unwrap();
        let b = target.open_session(0).unwrap();
        // Interleaved commands: each session keeps its own CmdSN window.
        assert!(target.execute(a, 0, Cdb::TestUnitReady, &[]).is_ok());
        assert!(target.execute(b, 0, Cdb::TestUnitReady, &[]).is_ok());
        assert!(target.execute(a, 1, Cdb::TestUnitReady, &[]).is_ok());
        assert!(target.execute(b, 1, Cdb::TestUnitReady, &[]).is_ok());
        assert_eq!(target.sessions.borrow()[a as usize].commands, 2);
        assert_eq!(target.sessions.borrow()[b as usize].commands, 2);
        assert_eq!(target.commands_executed.get(), 4);
    }

    #[test]
    fn login_to_unknown_lun_is_rejected() {
        let sim = Sim::new(3);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 64))));
        let init = Initiator::new(netw.channel("iscsi", Transport::Tcp), target);
        let err = init.login_lun(SessionParams::default(), 3).unwrap_err();
        assert!(matches!(err, IscsiError::LoginRejected("no such LUN")));
    }

    #[test]
    fn per_session_luns_are_private() {
        let sim = Sim::new(3);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 64))));
        let lun1 = target.add_lun(Rc::new(MemDisk::new("lun1", 32)));
        let init = Initiator::new(netw.channel("iscsi", Transport::Tcp), Rc::clone(&target));
        let d0 = init.login_lun(SessionParams::default(), 0).unwrap();
        let d1 = init.login_lun(SessionParams::default(), lun1).unwrap();
        assert_eq!(d0.block_count(), 64);
        assert_eq!(d1.block_count(), 32);
        assert_eq!(d1.name(), "iscsi:lun1");
        d0.write(5, &vec![7u8; BLOCK_SIZE]).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        d1.read(5, 1, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; BLOCK_SIZE], "writes don't cross LUNs");
        assert_eq!(target.sessions.borrow().len(), 2);
    }

    #[test]
    fn remote_cost_exceeds_local_cost() {
        let (_sim, disk) = setup();
        let data = vec![0u8; BLOCK_SIZE];
        let c = disk.write(0, &data).unwrap();
        // Must include at least the LAN round trip.
        assert!(c.time >= simkit::SimDuration::from_micros(200));
    }
}

#[cfg(test)]
mod write_tests {
    use super::*;
    use blockdev::MemDisk;
    use net::{LinkParams, Network, Transport};
    use simkit::Sim;
    use std::rc::Rc;

    fn disk_with(params: SessionParams) -> (Rc<Sim>, RemoteDisk) {
        let sim = Sim::new(8);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 4096))));
        let init = Initiator::new(netw.channel("iscsi", Transport::Tcp), target);
        let d = init.login(params).unwrap();
        (sim, d)
    }

    #[test]
    fn large_write_segments_into_data_out_pdus() {
        // 256 KiB write with 8 KiB segments and a 16 KiB first burst:
        // one command + many data-out PDUs, still one transaction.
        let (sim, d) = disk_with(SessionParams {
            max_recv_data_segment: 8 * 1024,
            first_burst: 16 * 1024,
            immediate_data: true,
            initial_r2t: false,
            queue_depth: 4,
            connections: 1,
        });
        let base = sim.counters().get("proto.iscsi.txns");
        let bytes_before = sim.counters().get("net.iscsi.bytes");
        d.write(0, &vec![9u8; 64 * BLOCK_SIZE]).unwrap();
        assert_eq!(sim.counters().get("proto.iscsi.txns"), base + 1);
        let sent = sim.counters().get("net.iscsi.bytes") - bytes_before;
        assert!(
            sent >= 64 * BLOCK_SIZE as u64,
            "payload plus headers: {sent}"
        );
    }

    #[test]
    fn initial_r2t_adds_a_solicitation() {
        let mk = |r2t| {
            let (sim, d) = disk_with(SessionParams {
                max_recv_data_segment: 8 * 1024,
                first_burst: 8 * 1024,
                immediate_data: true,
                initial_r2t: r2t,
                queue_depth: 4,
                connections: 1,
            });
            let before = sim.counters().get("net.iscsi.msgs");
            d.write(0, &vec![1u8; 16 * BLOCK_SIZE]).unwrap();
            sim.counters().get("net.iscsi.msgs") - before
        };
        assert!(mk(true) > mk(false), "R2T costs an extra PDU");
    }

    #[test]
    fn sequential_read_stream_amortizes_rtt() {
        let (_sim, d) = disk_with(SessionParams::default());
        let mut buf = vec![0u8; BLOCK_SIZE];
        let first = d.read(10, 1, &mut buf).unwrap();
        let second = d.read(11, 1, &mut buf).unwrap(); // sequential
        let random = d.read(100, 1, &mut buf).unwrap(); // breaks the stream
        assert!(second.time < first.time, "TCQ hides propagation");
        assert!(random.time > second.time);
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use blockdev::MemDisk;
    use net::{LinkParams, Network, Transport};
    use simkit::Sim;
    use std::rc::Rc;

    fn disk_with(params: SessionParams) -> (Rc<Sim>, RemoteDisk) {
        let sim = Sim::new(21);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 8192))));
        let init = Initiator::new(netw.channel("iscsi", Transport::Tcp), target);
        let d = init.login(params).unwrap();
        (sim, d)
    }

    #[test]
    fn multiple_connections_speed_large_transfers() {
        let run = |conns| {
            let (_sim, d) = disk_with(SessionParams {
                max_recv_data_segment: 8 * 1024,
                connections: conns,
                ..SessionParams::default()
            });
            let mut buf = vec![0u8; 256 * BLOCK_SIZE]; // 1 MiB read
            d.read(0, 256, &mut buf).unwrap().time
        };
        let one = run(1);
        let four = run(4);
        assert!(four < one, "MC/S must cut data-phase time: {four} !< {one}");
    }

    #[test]
    fn mcs_changes_timing_under_tcp_model() {
        // Under the modeled transport a 1 MiB read at 60 ms RTT spans
        // many congestion windows; striping the data-in PDUs across
        // four connections must land on different flow state than one.
        let run = |conns| {
            let sim = Sim::new(21);
            let link = LinkParams::wan(simkit::SimDuration::from_millis(60))
                .with_transport(net::TransportModel::Tcp { connections: conns });
            let netw = Network::new(sim.clone(), link);
            let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun0", 8192))));
            let init = Initiator::new(netw.channel("iscsi", Transport::Tcp), target);
            let d = init
                .login(SessionParams {
                    connections: conns,
                    ..SessionParams::default()
                })
                .unwrap();
            let mut buf = vec![0u8; 256 * BLOCK_SIZE];
            d.read(0, 256, &mut buf).unwrap().time
        };
        let one = run(1);
        let four = run(4);
        assert_ne!(one, four, "MC/S must change modeled transfer timing");
    }
}
