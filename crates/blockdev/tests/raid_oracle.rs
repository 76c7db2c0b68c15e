//! Differential oracle for the RAID-5 array.
//!
//! [`Raid5`] charges every member request without moving a byte and
//! keeps its content at logical addresses (see its module doc).
//! [`EagerRaid5`] below stores data and parity at the members: it
//! reads the old data and the old parity, folds them, writes both back
//! and reconstructs a lost member by XOR over the survivors. Driving
//! both over mechanical members with the same random requests,
//! failures included, must give the same cost for every request, the
//! same bytes for every read, the same errors, and the same
//! statistics, histograms and spans at every member: the arrays differ
//! in where they store, never in what they charge.

use blockdev::{
    BlockDevice, BlockError, BlockNo, DiskModel, DiskParams, DiskStats, IoCost, MemDisk, Raid5,
    Raid5Geometry, Result, BLOCK_SIZE,
};
use proptest::prelude::*;
use simkit::units::Bytes;
use simkit::{Histogram, MetricHandle, Sim, SimDuration, SpanRecord, StatKey};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

const STRIPE_UNIT: u64 = 4;
const MEMBER_BLOCKS: u64 = 64;

/// The eager-parity array: parity is computed and stored on every
/// write and read back to reconstruct. Same layout, same request
/// order, same observability as [`Raid5`].
struct EagerRaid5 {
    name: String,
    members: Vec<Rc<dyn BlockDevice>>,
    failed: RefCell<Vec<bool>>,
    capacity: u64,
    sim: Rc<Sim>,
    parity_update: MetricHandle,
}

impl EagerRaid5 {
    fn new(name: &str, members: Vec<Rc<dyn BlockDevice>>, sim: Rc<Sim>) -> Self {
        let n = members.len() as u64;
        let capacity = members[0].block_count() / STRIPE_UNIT * STRIPE_UNIT * (n - 1);
        let parity_update = sim
            .metrics()
            .handle(StatKey::new("raid5").text(name).push("parity_update"));
        EagerRaid5 {
            name: name.to_owned(),
            failed: RefCell::new(vec![false; members.len()]),
            members,
            capacity,
            sim,
            parity_update,
        }
    }

    fn note_parity_update(&self, lb: BlockNo, t: SimDuration, degraded: bool) {
        self.parity_update.record_duration(t);
        let tracer = self.sim.tracer();
        if tracer.enabled() {
            let now = self.sim.now();
            tracer.record_at(
                simkit::HostId::SERVER,
                "raid5",
                "parity_update",
                now,
                now + t,
                vec![
                    ("array", self.name.clone()),
                    ("lb", lb.to_string()),
                    ("degraded", degraded.to_string()),
                ],
            );
        }
    }

    /// (data member, parity member, member block), left-symmetric.
    fn placement(&self, lb: BlockNo) -> (usize, usize, BlockNo) {
        let n = self.members.len() as u64;
        let per_stripe = (n - 1) * STRIPE_UNIT;
        let (stripe, within) = (lb / per_stripe, lb % per_stripe);
        let parity_disk = ((n - 1) - (stripe % n)) as usize;
        let data_disk = ((parity_disk as u64 + 1 + within / STRIPE_UNIT) % n) as usize;
        (
            data_disk,
            parity_disk,
            stripe * STRIPE_UNIT + within % STRIPE_UNIT,
        )
    }

    fn is_failed(&self, idx: usize) -> bool {
        self.failed.borrow()[idx]
    }

    fn reconstruct(&self, disk: usize, block: BlockNo, out: &mut [u8]) -> Result<IoCost> {
        out.fill(0);
        let mut tmp = [0u8; BLOCK_SIZE];
        let mut cost = SimDuration::ZERO;
        for (i, member) in self.members.iter().enumerate() {
            if i == disk {
                continue;
            }
            if self.is_failed(i) {
                return Err(BlockError::DeviceFailed {
                    device: format!("{}:{}", self.name, i),
                });
            }
            cost = cost.max(member.read(block, 1, &mut tmp)?.time);
            for (o, t) in out.iter_mut().zip(&tmp) {
                *o ^= t;
            }
        }
        Ok(IoCost::new(cost))
    }

    fn read_one(&self, lb: BlockNo, buf: &mut [u8]) -> Result<IoCost> {
        let (d, _, b) = self.placement(lb);
        if self.is_failed(d) {
            self.reconstruct(d, b, buf)
        } else {
            self.members[d].read(b, 1, buf)
        }
    }

    fn write_one(&self, lb: BlockNo, data: &[u8]) -> Result<IoCost> {
        let (d, q, b) = self.placement(lb);
        let (data_ok, parity_ok) = (!self.is_failed(d), !self.is_failed(q));
        let mut old_data = [0u8; BLOCK_SIZE];
        let mut parity = [0u8; BLOCK_SIZE];
        if data_ok && parity_ok {
            let r1 = self.members[d].read(b, 1, &mut old_data)?;
            let r2 = self.members[q].read(b, 1, &mut parity)?;
            fold_parity(&mut parity, &old_data, data);
            let w1 = self.members[d].write(b, data)?;
            let w2 = self.members[q].write(b, &parity)?;
            let t = r1.time.max(r2.time) + w1.time.max(w2.time);
            self.note_parity_update(lb, t, false);
            Ok(IoCost::new(t))
        } else if data_ok {
            self.members[d].write(b, data)
        } else if parity_ok {
            let rc = self.reconstruct(d, b, &mut old_data)?;
            let r2 = self.members[q].read(b, 1, &mut parity)?;
            fold_parity(&mut parity, &old_data, data);
            let w = self.members[q].write(b, &parity)?;
            let t = rc.time.max(r2.time) + w.time;
            self.note_parity_update(lb, t, true);
            Ok(IoCost::new(t))
        } else {
            Err(BlockError::DeviceFailed {
                device: self.name.clone(),
            })
        }
    }
}

fn fold_parity(parity: &mut [u8; BLOCK_SIZE], old: &[u8; BLOCK_SIZE], new: &[u8]) {
    for ((p, o), n) in parity.iter_mut().zip(old).zip(new) {
        *p ^= o ^ n;
    }
}

impl BlockDevice for EagerRaid5 {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_count(&self) -> u64 {
        self.capacity
    }

    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        in_range(self.capacity, start, nblocks.into())?;
        let mut total = SimDuration::ZERO;
        for (lb, chunk) in (start..).zip(buf.chunks_exact_mut(BLOCK_SIZE)) {
            total += self.read_one(lb, chunk)?.time;
        }
        Ok(IoCost::new(total))
    }

    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        in_range(self.capacity, start, (data.len() / BLOCK_SIZE) as u64)?;
        let mut total = SimDuration::ZERO;
        for (lb, chunk) in (start..).zip(data.chunks_exact(BLOCK_SIZE)) {
            total += self.write_one(lb, chunk)?.time;
        }
        Ok(IoCost::new(total))
    }

    fn flush(&self) -> Result<IoCost> {
        Ok(IoCost::FREE)
    }
}

/// The range half of the crate's request check (the scripts below
/// send only whole blocks).
fn in_range(capacity: u64, start: BlockNo, count: u64) -> Result<()> {
    if start.checked_add(count).is_none_or(|end| end > capacity) {
        return Err(BlockError::OutOfRange {
            start,
            count,
            capacity,
        });
    }
    Ok(())
}

/// An array whose members can fail.
trait Array: BlockDevice {
    fn fail_member(&self, idx: usize);
}

impl Array for EagerRaid5 {
    fn fail_member(&self, idx: usize) {
        self.failed.borrow_mut()[idx] = true;
    }
}

impl Array for Raid5 {
    fn fail_member(&self, idx: usize) {
        Raid5::fail_member(self, idx);
    }
}

/// A decorator shaped like a benchmark's timing shim: it overrides
/// only `read`, `write` and `flush`, so `charge` takes the trait's
/// default through it.
struct PassThrough(Rc<dyn BlockDevice>);

impl BlockDevice for PassThrough {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn block_count(&self) -> u64 {
        self.0.block_count()
    }
    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        self.0.read(start, nblocks, buf)
    }
    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        self.0.write(start, data)
    }
    fn flush(&self) -> Result<IoCost> {
        self.0.flush()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { lb: u64, n: u32 },
    Write { lb: u64, n: u32, tag: u8 },
}

/// A request sequence: `ops`, with member `first` (if any) failing
/// before request `at`, then (if `second` names one) that member
/// failing and `ops` run once more.
#[derive(Debug, Clone)]
struct Script {
    members: usize,
    ops: Vec<Op>,
    first: Option<(usize, usize)>,
    second: Option<usize>,
}

fn script() -> impl Strategy<Value = Script> {
    let op = (0u8..2, 0u64..300, 1u32..9, 0u8..255).prop_map(|(w, lb, n, tag)| {
        if w == 1 {
            Op::Write { lb, n, tag }
        } else {
            Op::Read { lb, n }
        }
    });
    (
        3usize..6,
        prop::collection::vec(op, 1..40),
        0usize..80,
        0usize..5,
        0usize..5,
    )
        .prop_map(|(members, ops, at, first, second)| Script {
            members,
            // Half the scripts run healthy until the second failure.
            first: (at < 40).then_some((at, first % members)),
            second: Some(second % members),
            ops,
        })
}

/// Block contents that differ in every byte from block to block, so a
/// wrong XOR shows anywhere in the block.
fn payload(lb: u64, n: u32, tag: u8) -> Vec<u8> {
    (0..n as usize * BLOCK_SIZE)
        .map(|i| (lb as usize * 131 + i * 7 + tag as usize * 31 + i / BLOCK_SIZE) as u8)
        .collect()
}

/// Everything a request sequence lets an observer see.
struct Outcome {
    /// Per request: its cost or its error.
    replies: Vec<Result<IoCost>>,
    /// Per successful read: the bytes read.
    reads: Vec<Vec<u8>>,
    stats: Vec<DiskStats>,
    histograms: Vec<(String, Histogram)>,
    spans: Vec<SpanRecord>,
}

impl Outcome {
    /// Asserts that `self` and `want` are indistinguishable; the bytes
    /// are compared without printing them.
    fn assert_same(&self, want: &Outcome) {
        assert_eq!(self.replies, want.replies);
        assert!(self.reads == want.reads, "the bytes read back differ");
        assert_eq!(self.stats, want.stats);
        assert_eq!(self.histograms, want.histograms);
        assert_eq!(self.spans, want.spans);
    }
}

/// Puts a member behind a decorator (or not).
type Wrap = fn(Rc<dyn BlockDevice>) -> Rc<dyn BlockDevice>;

/// Builds an array over the (wrapped) members, instrumented on `Sim`.
type Build = fn(Vec<Rc<dyn BlockDevice>>, &Rc<Sim>) -> Box<dyn Array>;

/// `n` mechanical members, instrumented on a fresh traced `Sim`.
fn members(n: usize) -> (Rc<Sim>, Vec<Rc<DiskModel<MemDisk>>>) {
    let sim = Sim::new(3);
    sim.tracer().set_enabled(true);
    let disks = (0..n)
        .map(|i| {
            let d = Rc::new(DiskModel::new(
                MemDisk::new(format!("m{i}"), MEMBER_BLOCKS),
                DiskParams::ultra160_10k(),
            ));
            d.instrument(Rc::clone(&sim));
            d
        })
        .collect();
    (sim, disks)
}

fn bare(d: Rc<dyn BlockDevice>) -> Rc<dyn BlockDevice> {
    d
}

fn shimmed(d: Rc<dyn BlockDevice>) -> Rc<dyn BlockDevice> {
    Rc::new(PassThrough(d))
}

fn lazy(devs: Vec<Rc<dyn BlockDevice>>, sim: &Rc<Sim>) -> Box<dyn Array> {
    let r = Raid5::new(
        "r5",
        devs,
        Raid5Geometry {
            stripe_unit: STRIPE_UNIT,
        },
    );
    r.instrument(Rc::clone(sim));
    Box::new(r)
}

fn eager(devs: Vec<Rc<dyn BlockDevice>>, sim: &Rc<Sim>) -> Box<dyn Array> {
    Box::new(EagerRaid5::new("r5", devs, Rc::clone(sim)))
}

fn run(s: &Script, wrap: Wrap, build: Build) -> Outcome {
    let (sim, disks) = members(s.members);
    let devs = disks
        .iter()
        .map(|d| wrap(Rc::clone(d) as Rc<dyn BlockDevice>))
        .collect();
    let array = build(devs, &sim);
    let (mut replies, mut reads) = (Vec::new(), Vec::new());
    let mut step = |op: Op| {
        replies.push(match op {
            Op::Read { lb, n } => {
                let mut buf = vec![0u8; n as usize * BLOCK_SIZE];
                let reply = array.read(lb, n, &mut buf);
                if reply.is_ok() {
                    reads.push(buf);
                }
                reply
            }
            Op::Write { lb, n, tag } => array.write(lb, &payload(lb, n, tag)),
        });
    };
    for (i, &op) in s.ops.iter().enumerate() {
        if let Some((at, m)) = s.first {
            if at == i {
                array.fail_member(m);
            }
        }
        step(op);
    }
    if let Some(m) = s.second {
        array.fail_member(m);
        for &op in &s.ops {
            step(op);
        }
    }
    Outcome {
        replies,
        reads,
        stats: disks.iter().map(|d| d.stats()).collect(),
        histograms: sim.metrics().snapshot(),
        spans: sim.tracer().spans(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The charge-only array and the eager-parity array are
    /// indistinguishable to everything outside the members' stores.
    #[test]
    fn lazy_parity_matches_eager_parity(s in script()) {
        let got = run(&s, bare, lazy);
        got.assert_same(&run(&s, bare, eager));
    }

    /// Members behind a decorator that knows nothing of `charge` cost
    /// and count exactly what bare members do, failures included: the
    /// trait's default issues the real request.
    #[test]
    fn default_charge_costs_what_the_override_does(s in script()) {
        run(&s, shimmed, lazy).assert_same(&run(&s, bare, lazy));
    }

    /// No member stores a block, data or parity, whichever member is
    /// down: the array's own store holds exactly the logical blocks
    /// written.
    #[test]
    fn members_store_nothing(
        members in 3usize..6,
        failed in 0usize..8,
        writes in prop::collection::vec((0u64..200, 1u32..9), 1..30),
    ) {
        let stores: Vec<Rc<MemDisk>> = (0..members)
            .map(|i| Rc::new(MemDisk::new(format!("m{i}"), MEMBER_BLOCKS)))
            .collect();
        let devs = stores
            .iter()
            .map(|m| {
                Rc::new(DiskModel::new(Rc::clone(m), DiskParams::ultra160_10k()))
                    as Rc<dyn BlockDevice>
            })
            .collect();
        let store = Rc::new(MemDisk::new("r5", MEMBER_BLOCKS * (members as u64 - 1)));
        let r = Raid5::with_store(
            "r5",
            devs,
            Raid5Geometry { stripe_unit: STRIPE_UNIT },
            Rc::clone(&store),
        );
        // A member index past the last leaves the array healthy.
        if failed < members {
            r.fail_member(failed);
        }
        let cap = r.block_count();
        let mut written = BTreeSet::new();
        for (lb, n) in writes {
            let lb = lb % (cap - u64::from(n));
            r.write(lb, &payload(lb, n, 0)).unwrap();
            written.extend(lb..lb + u64::from(n));
        }
        let at_members: usize = stores.iter().map(|m| m.diverged_blocks()).sum();
        prop_assert_eq!(at_members, 0);
        prop_assert_eq!(store.diverged_blocks(), written.len());
    }
}

/// A charge through a `DiskModel` over a shared `MemDisk` bills the
/// request and stores nothing.
#[test]
fn charge_through_the_member_stack_moves_no_bytes() {
    let store = Rc::new(MemDisk::new("m0", MEMBER_BLOCKS));
    let disk = DiskModel::new(Rc::clone(&store), DiskParams::ultra160_10k());
    let w = disk.charge(5, 1, true).unwrap();
    let r = disk.charge(6, 3, false).unwrap();
    assert_eq!(store.diverged_blocks(), 0);
    let s = disk.stats();
    assert_eq!((s.write_reqs, s.write_blocks), (1, 1));
    assert_eq!((s.read_reqs, s.read_blocks), (1, 3));
    assert_eq!(s.sequential_reqs, 1, "the read follows the write's head");
    assert_eq!(s.busy, w.time + r.time);
    assert!(disk.charge(MEMBER_BLOCKS, 1, false).is_err());
}

/// Where logical block `lb` of an `n`-member array lives: (data
/// member, member block) under the left-symmetric layout both arrays
/// use.
fn home(n: usize, lb: BlockNo) -> (usize, BlockNo) {
    let n = n as u64;
    let per_stripe = (n - 1) * STRIPE_UNIT;
    let (stripe, within) = (lb / per_stripe, lb % per_stripe);
    let parity_disk = (n - 1) - (stripe % n);
    let data_disk = (parity_disk + 1 + within / STRIPE_UNIT) % n;
    (
        data_disk as usize,
        stripe * STRIPE_UNIT + within % STRIPE_UNIT,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Healing a member costs one one-block write service per distinct
    /// member block written while it was down, issued in block order to
    /// that member, and a second heal costs nothing.
    #[test]
    fn heal_charges_one_write_per_block_written_while_down(
        n in 3usize..6,
        failed in 0usize..5,
        writes in prop::collection::vec((0u64..200, 1u32..9), 1..30),
    ) {
        let failed = failed % n;
        let (_sim, disks) = members(n);
        let devs = disks
            .iter()
            .map(|d| Rc::clone(d) as Rc<dyn BlockDevice>)
            .collect();
        let r = Raid5::new("r5", devs, Raid5Geometry { stripe_unit: STRIPE_UNIT });
        r.fail_member(failed);
        let cap = r.block_count();
        let mut down = BTreeSet::new();
        for (lb, len) in writes {
            let lb = lb % (cap - u64::from(len));
            r.write(lb, &payload(lb, len, 0)).unwrap();
            for (m, b) in (lb..lb + u64::from(len)).map(|lb| home(n, lb)) {
                if m == failed {
                    down.insert(b);
                }
            }
        }
        // The member has served nothing since it failed, so its head is
        // unset and the first write-back pays positioning.
        let params = DiskParams::ultra160_10k();
        let (mut want, mut head) = (SimDuration::ZERO, None);
        for &b in &down {
            want += params.transfer(Bytes::new(BLOCK_SIZE as u64));
            if head != Some(b) {
                want += params.positioning();
            }
            head = Some(b + 1);
        }
        let before = disks[failed].stats();
        prop_assert_eq!(r.heal_member(failed).unwrap(), IoCost::new(want));
        let after = disks[failed].stats();
        let count = down.len() as u64;
        prop_assert_eq!(after.write_reqs - before.write_reqs, count);
        prop_assert_eq!(after.write_blocks - before.write_blocks, count);
        prop_assert_eq!(after.read_reqs, before.read_reqs);
        prop_assert_eq!(after.busy - before.busy, want);
        prop_assert_eq!(r.heal_member(failed).unwrap(), IoCost::FREE);
    }
}
