//! The work itself: PostMark pools and 128 MB streams, generated here
//! from `--seed` and pushed through a [`Bed`] — either the product's
//! own `Testbed` (timed pass) or the benchmark-assembled stack with
//! span shims (traced pass). Both passes run this same code, which is
//! what makes traced ÷ untraced an honest overhead figure.

use crate::pinned::{FileSystem, PostmarkConfig, PostmarkSession};
use crate::stats::{PaperCell, Rng};
use std::time::Instant;

/// What a workload needs from a stack besides the system calls.
pub trait Bed {
    /// The client's system-call layer.
    fn fs(&self) -> &dyn FileSystem;
    /// Lets deferred write-back and journal commits land.
    fn settle(&self);
    /// The paper's cold-cache protocol (remount + server restart).
    fn cold_caches(&self);
    /// Virtual time, ns.
    fn now_ns(&self) -> u64;
    /// Protocol transactions so far (the paper's "messages").
    fn messages(&self) -> u64;
    /// Bytes on the wire so far.
    fn wire_bytes(&self) -> u64;
}

/// Result of one unit of work.
#[derive(Debug, Default)]
pub struct UnitOut {
    /// Denominator of the per-op metrics.
    pub ops: u64,
    /// Operations attempted / failed (an `Err` from a system call, a
    /// panicked cell, a non-zero child exit).
    pub attempted: u64,
    pub failed: u64,
    /// Every simulated output of the unit, in a fixed order. Exact:
    /// the digest folds these and any movement means the model moved.
    pub sim: Vec<(String, u64)>,
    /// Simulated completion time, messages and wire bytes, summed over
    /// the unit's parts.
    pub completion_ns: u64,
    pub messages: u64,
    pub wire_bytes: u64,
    /// Simulated values against the paper's, where the paper has them.
    pub paper: Vec<PaperCell>,
    /// Host ns per request of each named phase (`data_stream`).
    pub phases: Vec<(String, f64)>,
    /// Correctness violations found while running.
    pub problems: Vec<String>,
}

impl UnitOut {
    fn record(&mut self, label: &str, completion_ns: u64, messages: u64, wire_bytes: u64) {
        self.sim
            .push((format!("{label}.completion_ns"), completion_ns));
        self.sim.push((format!("{label}.messages"), messages));
        self.sim.push((format!("{label}.wire_bytes"), wire_bytes));
        self.completion_ns += completion_ns;
        self.messages += messages;
        self.wire_bytes += wire_bytes;
    }
}

/// A PostMark shape: pool size and transaction count.
#[derive(Debug, Clone, Copy)]
pub struct PmShape {
    pub files: usize,
    pub transactions: usize,
}

/// Paper Table 5, row 1 (1 000 files, 100 000 transactions):
/// completion time NFSv3 146 s / iSCSI 12 s, messages 371 963 / 101.
const TABLE5_ROW1: PmShape = PmShape {
    files: 1000,
    transactions: 100_000,
};

fn table5_row1_reference(label: &str) -> Option<(f64, f64)> {
    match label {
        "nfsv3" => Some((146.0, 371_963.0)),
        "iscsi" => Some((12.0, 101.0)),
        _ => None,
    }
}

/// One protocol's half of a PostMark unit: pool creation, the
/// transactions, teardown — the whole benchmark, as the paper times it
/// and as users pay for it.
pub fn postmark_half(bed: &dyn Bed, label: &str, shape: PmShape, seed: u64, out: &mut UnitOut) {
    let cfg = PostmarkConfig {
        file_count: shape.files,
        transactions: shape.transactions,
        // The product's Table 5 directory spread.
        subdirs: (shape.files / 500).clamp(10, 100),
        seed,
        ..PostmarkConfig::default()
    };
    let fs = bed.fs();
    let (m0, b0, t0) = (bed.messages(), bed.wire_bytes(), bed.now_ns());
    let mut session = PostmarkSession::new(fs, "/postmark", cfg);
    let planned = (shape.files * 2 + shape.transactions) as u64;
    let ran = (|| {
        session.setup()?;
        while session.step()? {}
        let before = session.report().deleted;
        session.teardown()?;
        Ok::<u64, crate::pinned::FsError>(session.report().deleted - before)
    })();
    let completion = bed.now_ns() - t0;
    bed.settle();
    out.record(
        label,
        completion,
        bed.messages() - m0,
        bed.wire_bytes() - b0,
    );
    match ran {
        Ok(torn_down) => {
            // Pool creates + transactions + teardown deletes.
            let ops = (shape.files + shape.transactions) as u64 + torn_down;
            out.ops += ops;
            out.attempted += ops;
            let r = session.report();
            if r.created != r.deleted {
                out.problems.push(format!(
                    "{label}: postmark created {} files but deleted {}",
                    r.created, r.deleted
                ));
            }
            for s in 0..cfg.subdirs {
                match fs.readdir(&format!("/postmark/s{s}")) {
                    Ok(names) if names.iter().all(|n| n == "." || n == "..") => {}
                    Ok(names) => out.problems.push(format!(
                        "{label}: /postmark/s{s} still holds {} entries after teardown",
                        names.len()
                    )),
                    Err(e) => out.problems.push(format!("{label}: readdir s{s}: {e:?}")),
                }
            }
        }
        Err(e) => {
            out.attempted += planned;
            out.failed += planned.saturating_sub(session.report().created);
            out.problems
                .push(format!("{label}: postmark stopped: {e:?}"));
        }
    }
    if shape.files == TABLE5_ROW1.files && shape.transactions == TABLE5_ROW1.transactions {
        if let Some((secs, msgs)) = table5_row1_reference(label) {
            out.paper.push(PaperCell {
                cite: "Table 5 row 1, completion time (s)",
                simulated: completion as f64 / 1e9,
                paper: secs,
            });
            out.paper.push(PaperCell {
                cite: "Table 5 row 1, messages",
                simulated: (bed.messages() - m0) as f64,
                paper: msgs,
            });
        }
    }
}

/// Paper Table 4: 128 MB in 4 KB requests.
pub const STREAM_BLOCKS: u64 = 128 * 256;
const CHUNK: usize = 4096;

/// Paper Table 4 reference values for the protocol labelled `label`:
/// completion time in seconds for all four rows, messages for the
/// three rows the paper prints them for (as transcribed in
/// EXPERIMENTS.md). `None` for a stack the paper did not measure.
fn table4_reference(phase: &str, label: &str) -> Option<(f64, Option<f64>)> {
    let ((t_nfs, t_iscsi), msgs) = match phase {
        "seq_read" => ((35.0, 35.0), Some((33_362.0, 32_790.0))),
        "rand_read" => ((64.0, 55.0), Some((32_860.0, 32_827.0))),
        "seq_write" => ((17.0, 2.0), Some((32_990.0, 1_135.0))),
        "rand_write" => ((21.0, 5.0), None),
        other => panic!("no Table 4 row named {other}"),
    };
    match label {
        "nfsv3" => Some((t_nfs, msgs.map(|m| m.0))),
        "iscsi" => Some((t_iscsi, msgs.map(|m| m.1))),
        _ => None,
    }
}

/// The 4 KB payload of file block `block`: position-dependent, so a
/// read that returns the wrong block is caught.
fn fill_chunk(buf: &mut [u8], block: u64, seed: u64) {
    buf.fill((block % 251) as u8);
    buf[..8].copy_from_slice(&(block ^ seed).to_le_bytes());
}

struct Stream<'a> {
    bed: &'a dyn Bed,
    label: &'a str,
    seed: u64,
    out: &'a mut UnitOut,
}

impl Stream<'_> {
    fn finish_phase(
        &mut self,
        phase: &str,
        host_ns: u128,
        completion: u64,
        m0: u64,
        b0: u64,
        bad: u64,
    ) {
        let messages = self.bed.messages() - m0;
        self.out.record(
            &format!("{}.{phase}", self.label),
            completion,
            messages,
            self.bed.wire_bytes() - b0,
        );
        self.out.ops += STREAM_BLOCKS;
        self.out.attempted += STREAM_BLOCKS;
        self.out.failed += bad;
        self.out.phases.push((
            format!("{}.{phase}", self.label),
            host_ns as f64 / STREAM_BLOCKS as f64,
        ));
        let Some((secs, msgs)) = table4_reference(phase, self.label) else {
            return;
        };
        self.out.paper.push(PaperCell {
            cite: "Table 4, completion time (s)",
            simulated: completion as f64 / 1e9,
            paper: secs,
        });
        if let Some(msgs) = msgs {
            self.out.paper.push(PaperCell {
                cite: "Table 4, messages",
                simulated: messages as f64,
                paper: msgs,
            });
        }
    }

    /// Writes the whole file in `order`; completion is when the writer
    /// finishes, messages include the write-back that drains after it
    /// (the paper's capture ran on).
    fn write(&mut self, phase: &str, path: &str, order: &[u64]) {
        let fs = self.bed.fs();
        let mut bad = 0u64;
        let mut buf = vec![0u8; CHUNK];
        let opened = fs.creat(path).and_then(|()| fs.open(path));
        let (m0, b0, t0) = (
            self.bed.messages(),
            self.bed.wire_bytes(),
            self.bed.now_ns(),
        );
        let host0 = Instant::now();
        match opened {
            Ok(fd) => {
                for &block in order {
                    fill_chunk(&mut buf, block, self.seed);
                    if !matches!(fs.write(fd, block * CHUNK as u64, &buf), Ok(n) if n == CHUNK) {
                        bad += 1;
                    }
                }
                let completion = self.bed.now_ns() - t0;
                let host_ns = host0.elapsed().as_nanos();
                if fs.close(fd).is_err() {
                    bad += 1;
                }
                self.bed.settle();
                self.finish_phase(phase, host_ns, completion, m0, b0, bad);
            }
            Err(e) => {
                self.out
                    .problems
                    .push(format!("{}: open {path}: {e:?}", self.label));
                self.finish_phase(phase, 0, 0, m0, b0, STREAM_BLOCKS);
            }
        }
    }

    /// Reads the whole file back in `order` from cold caches, checking
    /// every block's content.
    fn read(&mut self, phase: &str, path: &str, order: &[u64]) {
        let fs = self.bed.fs();
        // On "disk" first, then chill every cache.
        let synced = fs.open(path).and_then(|fd| fs.fsync(fd));
        self.bed.settle();
        self.bed.cold_caches();
        let mut bad = 0u64;
        let mut expect = vec![0u8; CHUNK];
        let opened = synced.and_then(|()| fs.open(path));
        let (m0, b0, t0) = (
            self.bed.messages(),
            self.bed.wire_bytes(),
            self.bed.now_ns(),
        );
        let host0 = Instant::now();
        match opened {
            Ok(fd) => {
                for &block in order {
                    fill_chunk(&mut expect, block, self.seed);
                    match fs.read(fd, block * CHUNK as u64, CHUNK) {
                        Ok(data) if data == expect => {}
                        _ => bad += 1,
                    }
                }
                let completion = self.bed.now_ns() - t0;
                let host_ns = host0.elapsed().as_nanos();
                if fs.close(fd).is_err() {
                    bad += 1;
                }
                if bad > 0 {
                    self.out.problems.push(format!(
                        "{}: {phase} returned {bad} wrong or failed blocks",
                        self.label
                    ));
                }
                self.finish_phase(phase, host_ns, completion, m0, b0, bad);
            }
            Err(e) => {
                self.out
                    .problems
                    .push(format!("{}: open {path}: {e:?}", self.label));
                self.finish_phase(phase, 0, 0, m0, b0, STREAM_BLOCKS);
            }
        }
    }
}

/// One step of a protocol's half of a `data_stream` unit. Step 0
/// takes the sequential write and both cold reads of that file; step
/// 1, on a fresh volume, takes the random write.
fn stream_step(step: usize, bed: &dyn Bed, label: &str, seed: u64, out: &mut UnitOut) {
    let mut on = Stream {
        bed,
        label,
        seed,
        out,
    };
    if step == 0 {
        let sequential: Vec<u64> = (0..STREAM_BLOCKS).collect();
        on.write("seq_write", "/f", &sequential);
        on.read("seq_read", "/f", &sequential);
        let order = Rng::new(seed ^ 0x7265_6164).permutation(STREAM_BLOCKS);
        on.read("rand_read", "/f", &order);
    } else {
        let order = Rng::new(seed ^ 0x7772_6974).permutation(STREAM_BLOCKS);
        on.write("rand_write", "/w", &order);
    }
}

/// What a replayable workload runs on each protocol's stack.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Postmark(PmShape),
    Stream,
}

impl Shape {
    /// Steps in one protocol's half of a unit. Each step runs on a
    /// fresh stack, which the caller may drop as soon as the step
    /// returns: first-touch page faults are the dearest thing on the
    /// recording host, so no volume outlives its last use.
    pub fn steps(self) -> usize {
        match self {
            Shape::Postmark(_) => 1,
            Shape::Stream => 2,
        }
    }

    /// Step `step` of one protocol's half, on `bed`.
    pub fn run_step(self, step: usize, bed: &dyn Bed, label: &str, seed: u64, out: &mut UnitOut) {
        match self {
            Shape::Postmark(shape) => postmark_half(bed, label, shape, seed, out),
            Shape::Stream => stream_step(step, bed, label, seed, out),
        }
    }
}
