//! The `Ext3` file system object: mount/mkfs, the buffer-cache and
//! journal plumbing, allocators, and the background commit/write-back
//! daemons. The file operations themselves live in [`crate::ops`].

use crate::alloc;
use crate::cache::{BufferCache, DirtyKind};
use crate::error::{FsError, FsResult};
use crate::journal::Journal;
use crate::layout::*;
use blockdev::{BlockDevice, BlockNo, IoCost, BLOCK_SIZE};
use simkit::{CounterHandle, Daemon, MetricHandle, Sim, SimDuration, SimTime};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::rc::{Rc, Weak};
use std::thread::LocalKey;

/// Inode number.
pub type Ino = u32;

/// Dirty-data write-back interval (pdflush/kupdated style): the timer
/// daemon writes every dirty data block back this long after the last
/// pass.
pub const WRITEBACK_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Dirty-data threshold (blocks) beyond which writers are throttled
/// into foreground flushing (~40% of client RAM, ≈ 200 MB): the paper's
/// 128 MB write benchmarks stay under it, giving its ≈ 2 s iSCSI write
/// completion (memory-speed dirtying).
pub const DIRTY_LIMIT_BLOCKS: usize = 51_200;

/// Largest merged write-back command in blocks (the paper observed
/// mean iSCSI write requests of 128 KB = 32 blocks).
const MAX_WRITE_CMD_BLOCKS: u32 = 32;

/// The tunables the testbed varies per file system. The calibrated
/// client and server values live in `ipstorage_core::calibration`;
/// [`Options::default`] (read-ahead 8) is the standalone fixture the
/// crate's own tests mount. The journal is always
/// [`JOURNAL_BLOCKS`](crate::JOURNAL_BLOCKS) long, and access times
/// are always maintained (the ext3 default): atime updates are what
/// give iSCSI its warm-read message overhead (paper §4.4).
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Buffer-cache capacity in blocks. The paper's client has 512 MB
    /// of RAM; the default models ~256 MB of page/buffer cache.
    pub cache_blocks: usize,
    /// Journal commit interval (ext3 default: 5 s).
    pub commit_interval: SimDuration,
    /// Maximum read-ahead window in blocks.
    pub readahead_max: u32,
    /// CPU cost of moving one block between user and page cache;
    /// models the client-side memory path that bounds cached I/O.
    pub mem_copy_cost: SimDuration,
    /// Machine this instance runs on, for trace attribution: journal
    /// commits fire from a daemon (no enclosing request span), so the
    /// host cannot be inherited and must be configured. The server's
    /// ext3 runs at `HostId::SERVER`; an iSCSI client's runs at
    /// `HostId::client(i)`.
    pub trace_host: simkit::HostId,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cache_blocks: 65_536,
            commit_interval: SimDuration::from_secs(5),
            readahead_max: 8,
            mem_copy_cost: SimDuration::from_micros(60),
            trace_host: simkit::HostId::SERVER,
        }
    }
}

/// File attributes as returned by `getattr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Inode number.
    pub ino: Ino,
    /// File type.
    pub ftype: FileType,
    /// Permission bits.
    pub perm: u16,
    /// Hard links.
    pub links: u16,
    /// Owner / group.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// Access time (sim ns).
    pub atime: u64,
    /// Modification time (sim ns).
    pub mtime: u64,
    /// Change time (sim ns).
    pub ctime: u64,
    /// Allocated blocks.
    pub nblocks: u32,
}

/// File-system-wide statistics, as returned by `statfs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatFs {
    /// Total data blocks.
    pub blocks_total: u64,
    /// Free data blocks.
    pub blocks_free: u64,
    /// Total inodes.
    pub inodes_total: u64,
    /// Free inodes.
    pub inodes_free: u64,
    /// Block size in bytes.
    pub block_size: u32,
}

/// Attribute changes for `setattr`. `None` fields are untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetAttr {
    /// New permission bits.
    pub perm: Option<u16>,
    /// New owner.
    pub uid: Option<u32>,
    /// New group.
    pub gid: Option<u32>,
    /// New size (truncate/extend).
    pub size: Option<u64>,
    /// New access time.
    pub atime: Option<u64>,
    /// New modification time.
    pub mtime: Option<u64>,
}

/// Whether device time is foreground (advances the virtual clock at
/// the end of the operation) or background (accumulates utilization
/// only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoMode {
    Foreground,
    Background,
}

#[derive(Debug, Clone, Copy)]
struct RaState {
    next_expected: u64,
    window: u32,
}

pub(crate) struct State {
    pub sb: SuperBlock,
    pub groups: Vec<GroupDesc>,
    pub layouts: Vec<GroupLayout>,
    pub cache: BufferCache,
    pub journal: Journal,
    ra: HashMap<Ino, RaState>,
    alloc_hint: HashMap<u32, usize>,
    dir_group_hint: HashMap<Ino, u32>,
    next_commit: SimTime,
    next_flush: SimTime,
    pub mounted: bool,
}

pub(crate) struct Inner {
    pub sim: Rc<Sim>,
    pub dev: Rc<dyn BlockDevice>,
    pub opts: Options,
    pub state: RefCell<State>,
    fg_cost: Cell<SimDuration>,
    mode: Cell<IoMode>,
    /// Each [`Op`]'s counter in `sim.counters()`, resolved by the first
    /// [`Inner::count`] of that op.
    op_counters: [OnceCell<CounterHandle>; Op::COUNT],
    /// `ext3.journal.commit` in `sim.metrics()` and
    /// `ext3.writeback.blocks` in `sim.counters()`, resolved by their
    /// first commit and first write-back (not at mount, so a file
    /// system that never commits adds no empty entry to a report).
    commit_time: OnceCell<MetricHandle>,
    writeback_blocks: OnceCell<CounterHandle>,
}

/// What this file system counts once per occurrence: every file
/// operation, and journal commits.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    Lookup,
    Getattr,
    Setattr,
    Create,
    Mkdir,
    Rmdir,
    Unlink,
    Link,
    Symlink,
    Readlink,
    Rename,
    Readdir,
    Read,
    Write,
    JournalCommit,
}

impl Op {
    /// One past the last variant.
    const COUNT: usize = Op::JournalCommit as usize + 1;

    fn counter_name(self) -> &'static str {
        match self {
            Op::Lookup => "ext3.op.lookup",
            Op::Getattr => "ext3.op.getattr",
            Op::Setattr => "ext3.op.setattr",
            Op::Create => "ext3.op.create",
            Op::Mkdir => "ext3.op.mkdir",
            Op::Rmdir => "ext3.op.rmdir",
            Op::Unlink => "ext3.op.unlink",
            Op::Link => "ext3.op.link",
            Op::Symlink => "ext3.op.symlink",
            Op::Readlink => "ext3.op.readlink",
            Op::Rename => "ext3.op.rename",
            Op::Readdir => "ext3.op.readdir",
            Op::Read => "ext3.op.read",
            Op::Write => "ext3.op.write",
            Op::JournalCommit => "ext3.journal.commits",
        }
    }
}

/// An ext3-like journaling file system over a block device.
///
/// See the [crate documentation](crate) for the role it plays in the
/// testbed. All operations are inode-based (like the kernel VFS); path
/// walking lives in the `vfs` crate so that NFS and local mounts
/// resolve names the same way.
pub struct Ext3 {
    pub(crate) inner: Rc<Inner>,
    _daemons: Vec<Rc<dyn Daemon>>,
}

impl std::fmt::Debug for Ext3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.borrow();
        f.debug_struct("Ext3")
            .field("device", &self.inner.dev.name())
            .field("groups", &st.groups.len())
            .field("cached_blocks", &st.cache.len())
            .field("mounted", &st.mounted)
            .finish()
    }
}

/// The file system's periodic background work — the kjournald commit
/// timer and the pdflush write-back timer — as one scheduled event.
/// The daemon keeps exactly one wakeup in the calendar at
/// `min(next_commit, next_flush)`, attributed to the owning machine's
/// `trace_host`; when both timers land on the same instant the commit
/// runs first (the order the per-daemon polling core fired them).
/// Unmounting idles the daemon: its pending wakeup fires as a no-op
/// and is not re-armed.
struct JournalTimers {
    inner: Weak<Inner>,
}

impl Daemon for JournalTimers {
    fn fire(&self, now: SimTime) -> Option<SimTime> {
        let inner = self.inner.upgrade()?;
        let prev = inner.mode.replace(IoMode::Background);
        let next = {
            let mut st = inner.state.borrow_mut();
            if !st.mounted {
                None
            } else {
                if now >= st.next_commit {
                    // A transaction the device rejects stays running
                    // for the next wakeup, like a rejected data run.
                    let _ = commit_journal(&inner, &mut st);
                    st.next_commit = now + inner.opts.commit_interval;
                }
                if now >= st.next_flush {
                    // A run the device rejects stays dirty for the next
                    // wakeup: the daemon has nobody to report to.
                    let _ = flush_data(&inner, &mut st, usize::MAX);
                    st.cache.shrink_to_capacity();
                    st.next_flush = now + WRITEBACK_INTERVAL;
                }
                Some(st.next_commit.min(st.next_flush))
            }
        };
        inner.mode.set(prev);
        next
    }
    fn name(&self) -> &str {
        "ext3-journal-timers"
    }
}

impl Ext3 {
    /// Formats `dev` and mounts the fresh file system.
    ///
    /// # Errors
    ///
    /// Fails if the device is too small or the initial writes fail.
    pub fn mkfs(sim: Rc<Sim>, dev: Rc<dyn BlockDevice>, opts: Options) -> FsResult<Ext3> {
        let blocks_count = dev.block_count();
        let jlen = JOURNAL_BLOCKS;
        let groups_count = groups_for(blocks_count);
        let sb = SuperBlock {
            blocks_count,
            groups_count,
            journal_start: 2,
            journal_len: jlen,
            journal_seq: 1,
            clean: true,
        };
        dev.write(0, &sb.encode())?;
        // Zero the journal's first block so a stale log is not replayed.
        dev.write(2, &vec![0u8; BLOCK_SIZE])?;

        let mut gd_block = vec![0u8; BLOCK_SIZE];
        let mut groups = Vec::with_capacity(groups_count as usize);
        for g in 0..groups_count {
            let lay = group_layout(g, jlen, blocks_count);
            let meta = lay.data_start - lay.start;
            let usable = lay.end.saturating_sub(lay.data_start) as u32;
            // Block bitmap: metadata + nonexistent tail marked used.
            let mut bbmap = vec![0u8; BLOCK_SIZE];
            for i in 0..meta as usize {
                alloc::set_bit(&mut bbmap, i);
            }
            for i in (lay.end - lay.start) as usize..BLOCKS_PER_GROUP as usize {
                alloc::set_bit(&mut bbmap, i);
            }
            dev.write(lay.block_bitmap, &bbmap)?;
            // Inode bitmap: reserve inodes 1..FIRST_FREE_INO in group 0.
            let mut ibmap = vec![0u8; BLOCK_SIZE];
            let mut free_inodes = INODES_PER_GROUP as u32;
            if g == 0 {
                for idx in 0..(FIRST_FREE_INO - 1) as usize {
                    alloc::set_bit(&mut ibmap, idx);
                }
                free_inodes -= FIRST_FREE_INO - 1;
            }
            dev.write(lay.inode_bitmap, &ibmap)?;
            let gd = GroupDesc {
                block_bitmap: lay.block_bitmap,
                inode_bitmap: lay.inode_bitmap,
                inode_table: lay.inode_table,
                free_blocks: usable,
                free_inodes,
            };
            gd.encode(&mut gd_block[g as usize * GROUP_DESC_SIZE..]);
            groups.push(gd);
        }
        dev.write(1, &gd_block)?;

        let fs = Self::assemble(sim, dev, opts, sb, groups)?;
        // Root directory: inode + one data block with "." and "..".
        {
            let inner = fs.inner.clone();
            let mut st = inner.state.borrow_mut();
            // The volume is mounted from here on: mark it dirty so a
            // crash before unmount triggers journal replay.
            st.sb.clean = false;
            let now = inner.sim.now().as_nanos();
            let mut root = Inode::new(FileType::Directory, 0o755, now);
            root.links = 2;
            let blk = alloc_block(&inner, &mut st, 0)?;
            let mut img = vec![0u8; BLOCK_SIZE];
            crate::dir::init_block(&mut img);
            crate::dir::insert(&mut img, ".", ROOT_INO, FileType::Directory);
            crate::dir::insert(&mut img, "..", ROOT_INO, FileType::Directory);
            st.cache.insert(blk, &img, DirtyKind::Meta);
            st.journal.add(blk);
            root.block[0] = blk as u32;
            root.size = BLOCK_SIZE as u64;
            root.nblocks = 1;
            write_inode(&inner, &mut st, ROOT_INO, &root)?;
            commit_journal(&inner, &mut st)?;
            checkpoint(&inner, &mut st)?;
        }
        fs.inner.fg_cost.set(SimDuration::ZERO); // mkfs time is free
        Ok(fs)
    }

    /// Mounts an existing file system, replaying the journal if the
    /// previous instance crashed.
    ///
    /// # Errors
    ///
    /// Fails on a bad superblock or journal corruption.
    pub fn mount(sim: Rc<Sim>, dev: Rc<dyn BlockDevice>, opts: Options) -> FsResult<Ext3> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        let c0 = dev.read(0, 1, &mut buf)?;
        let mut sb = SuperBlock::decode(&buf)?;

        let mut recovery_cost = IoCost::FREE;
        if !sb.clean {
            // Crash recovery: scan the journal region and replay.
            let mut region = vec![0u8; (sb.journal_len as usize) * BLOCK_SIZE];
            recovery_cost = recovery_cost.then(dev.read(
                sb.journal_start,
                sb.journal_len as u32,
                &mut region,
            )?);
            let (recovered, next_seq) = crate::journal::replay_scan(&region, sb.journal_seq)?;
            for (bno, img) in &recovered {
                recovery_cost = recovery_cost.then(dev.write(*bno, &img[..])?);
            }
            sb.journal_seq = next_seq;
        }
        sb.clean = false; // mounted dirty until clean unmount
        dev.write(0, &sb.encode())?;

        // Group descriptors are read *after* replay: a recovered
        // transaction may contain block 1.
        let mut gd_block = vec![0u8; BLOCK_SIZE];
        let c1 = dev.read(1, 1, &mut gd_block)?;
        let groups: Vec<GroupDesc> = (0..sb.groups_count)
            .map(|g| GroupDesc::decode(&gd_block[g as usize * GROUP_DESC_SIZE..]))
            .collect();

        let fs = Self::assemble(sim, dev, opts, sb, groups)?;
        fs.inner
            .fg_cost
            .set(c0.then(c1).then(recovery_cost).time.into_duration());
        // Mount reads land in the cache so the superblock/descriptors
        // are warm, as in a real mount.
        {
            let sb_img = fs.inner.state_sb_image();
            let mut st = fs.inner.state.borrow_mut();
            st.cache.insert_clean(0, &sb_img);
            st.cache.insert_clean(1, &gd_block);
        }
        let cost = fs.inner.fg_cost.replace(SimDuration::ZERO);
        fs.inner.sim.advance(cost);
        Ok(fs)
    }

    fn assemble(
        sim: Rc<Sim>,
        dev: Rc<dyn BlockDevice>,
        opts: Options,
        sb: SuperBlock,
        groups: Vec<GroupDesc>,
    ) -> FsResult<Ext3> {
        let layouts = (0..sb.groups_count)
            .map(|g| group_layout(g, sb.journal_len, sb.blocks_count))
            .collect();
        let journal = Journal::new(sb.journal_start, sb.journal_len, sb.journal_seq);
        let now = sim.now();
        let state = State {
            sb,
            groups,
            layouts,
            cache: BufferCache::new(opts.cache_blocks),
            journal,
            ra: HashMap::new(),
            alloc_hint: HashMap::new(),
            dir_group_hint: HashMap::new(),
            next_commit: now + opts.commit_interval,
            next_flush: now + WRITEBACK_INTERVAL,
            mounted: true,
        };
        let inner = Rc::new(Inner {
            sim: sim.clone(),
            dev,
            opts,
            state: RefCell::new(state),
            fg_cost: Cell::new(SimDuration::ZERO),
            mode: Cell::new(IoMode::Foreground),
            op_counters: Default::default(),
            commit_time: OnceCell::new(),
            writeback_blocks: OnceCell::new(),
        });
        let timers: Rc<dyn Daemon> = Rc::new(JournalTimers {
            inner: Rc::downgrade(&inner),
        });
        let first_wake = {
            let st = inner.state.borrow();
            st.next_commit.min(st.next_flush)
        };
        sim.schedule_daemon(first_wake, inner.opts.trace_host, Rc::downgrade(&timers));
        Ok(Ext3 {
            inner,
            _daemons: vec![timers],
        })
    }

    /// The root directory inode.
    pub fn root(&self) -> Ino {
        ROOT_INO
    }

    /// The simulation context this file system charges time to.
    pub fn sim(&self) -> &Rc<Sim> {
        &self.inner.sim
    }

    /// The machine this instance runs on ([`Options::trace_host`]).
    pub fn trace_host(&self) -> simkit::HostId {
        self.inner.opts.trace_host
    }

    /// Buffer-cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.state.borrow().cache.stats()
    }

    /// Blocks currently resident in the buffer cache (pagecache
    /// occupancy, as sampled by the testbed's gauge daemon).
    pub fn cached_blocks(&self) -> usize {
        self.inner.state.borrow().cache.len()
    }

    /// File-system-wide statistics from the group descriptors.
    ///
    /// # Errors
    ///
    /// Fails if the file system is unmounted.
    pub fn statfs(&self) -> FsResult<StatFs> {
        self.with_op(|_inner, st| {
            let mut s = StatFs {
                blocks_total: 0,
                blocks_free: 0,
                inodes_total: st.groups.len() as u64 * INODES_PER_GROUP,
                inodes_free: 0,
                block_size: BLOCK_SIZE as u32,
            };
            for (g, lay) in st.layouts.iter().enumerate() {
                s.blocks_total += lay.end.saturating_sub(lay.data_start);
                s.blocks_free += st.groups[g].free_blocks as u64;
                s.inodes_free += st.groups[g].free_inodes as u64;
            }
            Ok(s)
        })
    }

    /// Forces a journal commit and full data write-back (foreground).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn sync(&self) -> FsResult<()> {
        self.with_op(|inner, st| {
            commit_journal(inner, st)?;
            flush_data(inner, st, usize::MAX)?;
            debug_assert!(st.cache.dirty_blocks(DirtyKind::Data).is_empty());
            Ok(())
        })
    }

    /// Cleanly unmounts: commits, flushes, checkpoints, and marks the
    /// superblock clean. Further operations fail.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn unmount(&self) -> FsResult<()> {
        self.with_op(|inner, st| {
            if !st.mounted {
                return Ok(());
            }
            commit_journal(inner, st)?;
            flush_data(inner, st, usize::MAX)?;
            checkpoint(inner, st)?;
            st.sb.clean = true;
            let cost = inner.dev.write(0, &st.sb.encode())?;
            inner.charge(cost);
            st.cache.clear();
            st.mounted = false;
            Ok(())
        })
    }

    /// Flushes everything (journal commit, data write-back,
    /// checkpoint) and empties the caches, leaving the file system
    /// mounted. This is the unmount/remount the paper uses to emulate
    /// a cold cache, minus the re-read of the superblock.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn drop_caches(&self) -> FsResult<()> {
        self.with_op(|inner, st| {
            commit_journal(inner, st)?;
            flush_data(inner, st, usize::MAX)?;
            checkpoint(inner, st)?;
            debug_assert_eq!(st.journal.checkpoint_pending_len(), 0);
            st.cache.clear();
            st.ra.clear();
            debug_assert!(st.cache.is_empty());
            Ok(())
        })
    }

    /// Simulates a client crash: every volatile structure (cache,
    /// running transaction) disappears; nothing is written. The device
    /// keeps whatever the journal and write-back had already pushed.
    pub fn crash(&self) {
        let mut st = self.inner.state.borrow_mut();
        st.cache.clear();
        st.mounted = false;
    }

    /// Runs `f` against the file-system state, then advances the
    /// virtual clock by the foreground cost the operation accumulated.
    pub(crate) fn with_op<T>(
        &self,
        f: impl FnOnce(&Inner, &mut State) -> FsResult<T>,
    ) -> FsResult<T> {
        let inner = &self.inner;
        let res = {
            let mut st = inner.state.borrow_mut();
            if !st.mounted {
                return Err(FsError::Io("filesystem not mounted".into()));
            }
            let r = f(inner, &mut st);
            st.cache.shrink_to_capacity();
            r
        };
        let cost = inner.fg_cost.replace(SimDuration::ZERO);
        inner.sim.advance(cost);
        res
    }
}

impl Inner {
    /// Bumps `op`'s counter through its handle. The name is interned
    /// on the first bump, not at mount, so an operation that never ran
    /// leaves no zero row in any report.
    pub(crate) fn count(&self, op: Op) {
        self.op_counters[op as usize]
            .get_or_init(|| self.sim.counters().handle(op.counter_name()))
            .incr();
    }

    pub(crate) fn charge(&self, cost: IoCost) {
        match self.mode.get() {
            IoMode::Foreground => self.fg_cost.set(self.fg_cost.get() + cost.time),
            // Write-back and commits run off the caller's clock.
            IoMode::Background => {}
        }
    }

    pub(crate) fn charge_cpu(&self, d: SimDuration) {
        self.fg_cost.set(self.fg_cost.get() + d);
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.sim.now().as_nanos()
    }

    fn state_sb_image(&self) -> Vec<u8> {
        self.state.borrow().sb.encode()
    }
}

/// Extension to turn an [`IoCost`] into a duration (readability).
trait IntoDuration {
    fn into_duration(self) -> SimDuration;
}
impl IntoDuration for SimDuration {
    fn into_duration(self) -> SimDuration {
        self
    }
}

// ---------------------------------------------------------------------
// Block and inode primitives
// ---------------------------------------------------------------------

/// Reads a block through the cache (foreground cost on miss) and
/// lends out the cached image. Checks the journal's checkpoint-pending
/// images before the device: their home locations are stale until
/// checkpointed.
pub(crate) fn bread<'a>(
    inner: &Inner,
    st: &'a mut State,
    bno: BlockNo,
) -> FsResult<&'a [u8; BLOCK_SIZE]> {
    let State { cache, journal, .. } = st;
    cache.get_or_load(bno, |buf| {
        if let Some(img) = journal.pending_image(bno) {
            *buf = *img;
            return Ok(());
        }
        let cost = inner.dev.read(bno, 1, buf)?;
        inner.charge(cost);
        Ok(())
    })
}

/// Modifies a block in cache, loading it first if needed, and tags it
/// with the given dirty kind. Meta blocks join the running journal
/// transaction.
pub(crate) fn bmodify(
    inner: &Inner,
    st: &mut State,
    bno: BlockNo,
    kind: DirtyKind,
    f: impl FnOnce(&mut [u8; BLOCK_SIZE]),
) -> FsResult<()> {
    if !st.cache.contains(bno) {
        bread(inner, st, bno)?;
    }
    st.cache.modify(bno, kind, f);
    if kind == DirtyKind::Meta {
        st.journal.add(bno);
    }
    Ok(())
}

/// Installs a brand-new block image (no device read) with the given
/// dirty kind.
pub(crate) fn binstall(_inner: &Inner, st: &mut State, bno: BlockNo, img: &[u8], kind: DirtyKind) {
    st.cache.insert(bno, img, kind);
    if kind == DirtyKind::Meta {
        st.journal.add(bno);
    }
}

fn inode_location(st: &State, ino: Ino) -> FsResult<(BlockNo, usize)> {
    if ino == 0 {
        return Err(FsError::NotFound);
    }
    let idx = (ino - 1) as u64;
    let g = (idx / INODES_PER_GROUP) as usize;
    if g >= st.layouts.len() {
        return Err(FsError::NotFound);
    }
    let within = idx % INODES_PER_GROUP;
    let block = st.layouts[g].inode_table + within / INODES_PER_BLOCK as u64;
    let slot = (within % INODES_PER_BLOCK as u64) as usize;
    Ok((block, slot * INODE_SIZE))
}

/// Reads an inode.
pub(crate) fn read_inode(inner: &Inner, st: &mut State, ino: Ino) -> FsResult<Inode> {
    let (block, off) = inode_location(st, ino)?;
    let img = bread(inner, st, block)?;
    Ok(Inode::decode(&img[off..off + INODE_SIZE]))
}

/// Writes an inode (journaled meta-data update).
pub(crate) fn write_inode(inner: &Inner, st: &mut State, ino: Ino, inode: &Inode) -> FsResult<()> {
    let (block, off) = inode_location(st, ino)?;
    bmodify(inner, st, block, DirtyKind::Meta, |b| {
        inode.encode(&mut b[off..off + INODE_SIZE]);
    })
}

/// Allocates an inode, preferring `goal_group`. Updates the bitmap and
/// group descriptor (both journaled).
pub(crate) fn alloc_inode(inner: &Inner, st: &mut State, goal_group: u32) -> FsResult<Ino> {
    alloc_inode_in(inner, st, goal_group)
}

/// Directory inodes are spread across block groups (ext2's Orlov-style
/// policy: pick the group with the most free blocks), but sibling
/// directories cluster in their first sibling's group. The spreading
/// is why the paper sees two extra iSCSI messages per path component —
/// each directory in a path lives in a different group — while the
/// clustering keeps warm-cache operations on "similar" sibling objects
/// down to the journal writes.
pub(crate) fn alloc_dir_inode(inner: &Inner, st: &mut State, parent: Ino) -> FsResult<Ino> {
    if let Some(&g) = st.dir_group_hint.get(&parent) {
        if st.groups[g as usize].free_inodes > 0 && st.groups[g as usize].free_blocks > 8 {
            return alloc_inode_in(inner, st, g);
        }
    }
    let best = st
        .groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.free_inodes > 0)
        .max_by_key(|(_, g)| g.free_blocks)
        .map(|(i, _)| i as u32)
        .ok_or(FsError::NoSpace)?;
    st.dir_group_hint.insert(parent, best);
    alloc_inode_in(inner, st, best)
}

fn alloc_inode_in(inner: &Inner, st: &mut State, goal_group: u32) -> FsResult<Ino> {
    let n = st.groups.len() as u32;
    for i in 0..n {
        let g = (goal_group + i) % n;
        if st.groups[g as usize].free_inodes == 0 {
            continue;
        }
        let bmap_block = st.groups[g as usize].inode_bitmap;
        let start = if g == 0 {
            (FIRST_FREE_INO - 1) as usize
        } else {
            0
        };
        let img = bread(inner, st, bmap_block)?;
        if let Some(idx) = alloc::find_zero(img, start, INODES_PER_GROUP as usize) {
            bmodify(inner, st, bmap_block, DirtyKind::Meta, |b| {
                alloc::set_bit(b, idx);
            })?;
            st.groups[g as usize].free_inodes -= 1;
            write_group_desc(inner, st, g)?;
            return Ok((g as u64 * INODES_PER_GROUP + idx as u64 + 1) as Ino);
        }
    }
    Err(FsError::NoSpace)
}

/// Frees an inode.
pub(crate) fn free_inode(inner: &Inner, st: &mut State, ino: Ino) -> FsResult<()> {
    let idx = (ino - 1) as u64;
    let g = (idx / INODES_PER_GROUP) as usize;
    let within = (idx % INODES_PER_GROUP) as usize;
    let bmap_block = st.groups[g].inode_bitmap;
    bmodify(inner, st, bmap_block, DirtyKind::Meta, |b| {
        alloc::clear_bit(b, within);
    })?;
    st.groups[g].free_inodes += 1;
    write_group_desc(inner, st, g as u32)?;
    // Clear the on-disk inode so fsck sees it free.
    write_inode(inner, st, ino, &Inode::empty())
}

/// Allocates a data block near `goal_group` (first fit with a rolling
/// per-group hint for contiguity). Updates bitmap + descriptor.
pub(crate) fn alloc_block(inner: &Inner, st: &mut State, goal_group: u32) -> FsResult<BlockNo> {
    let n = st.groups.len() as u32;
    for i in 0..n {
        let g = (goal_group + i) % n;
        if st.groups[g as usize].free_blocks == 0 {
            continue;
        }
        let lay = st.layouts[g as usize];
        let bmap_block = st.groups[g as usize].block_bitmap;
        let limit = (lay.end - lay.start) as usize;
        let hint = *st
            .alloc_hint
            .get(&g)
            .unwrap_or(&((lay.data_start - lay.start) as usize));
        let img = bread(inner, st, bmap_block)?;
        if let Some(idx) = alloc::find_zero(img, hint, limit) {
            bmodify(inner, st, bmap_block, DirtyKind::Meta, |b| {
                alloc::set_bit(b, idx);
            })?;
            st.alloc_hint.insert(g, idx + 1);
            st.groups[g as usize].free_blocks -= 1;
            write_group_desc(inner, st, g)?;
            return Ok(lay.start + idx as u64);
        }
    }
    Err(FsError::NoSpace)
}

/// Frees a data block.
pub(crate) fn free_block(inner: &Inner, st: &mut State, bno: BlockNo) -> FsResult<()> {
    let g = st
        .layouts
        .iter()
        .position(|l| bno >= l.start && bno < l.end)
        .ok_or(FsError::Corrupt("freeing block outside any group"))?;
    let idx = (bno - st.layouts[g].start) as usize;
    let bmap_block = st.groups[g].block_bitmap;
    bmodify(inner, st, bmap_block, DirtyKind::Meta, |b| {
        alloc::clear_bit(b, idx);
    })?;
    st.groups[g].free_blocks += 1;
    write_group_desc(inner, st, g as u32)
}

fn write_group_desc(inner: &Inner, st: &mut State, g: u32) -> FsResult<()> {
    let gd = st.groups[g as usize];
    bmodify(inner, st, 1, DirtyKind::Meta, |b| {
        gd.encode(&mut b[g as usize * GROUP_DESC_SIZE..]);
    })
}

/// Group an inode's blocks should come from.
pub(crate) fn group_of_ino(ino: Ino) -> u32 {
    ((ino - 1) as u64 / INODES_PER_GROUP) as u32
}

// ---------------------------------------------------------------------
// Journal commit / checkpoint / data write-back
// ---------------------------------------------------------------------

thread_local! {
    /// Gather buffers of finished device commands, awaiting reuse.
    static GATHER: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    /// Block lists of finished `fsync`s, awaiting reuse.
    static BLOCK_LISTS: RefCell<Vec<Vec<BlockNo>>> = const { RefCell::new(Vec::new()) };
}

/// A scratch `Vec` from this thread's pool of its element type, which
/// goes back to the pool when dropped: a thread keeps as many as it
/// ever used at once (one, unless a use nests in another), each as
/// large as its largest use, however many file systems it runs. Its
/// contents mean nothing between uses.
pub(crate) struct Pooled<T: 'static>(Vec<T>, &'static LocalKey<RefCell<Vec<Vec<T>>>>);

/// A buffer in which one merged device command (a read-ahead run, a
/// write-back run, a journal commit, a checkpoint run) is assembled.
pub(crate) type Gather = Pooled<u8>;

/// The blocks one `fsync` writes back, gathered before the runs are.
pub(crate) type BlockList = Pooled<BlockNo>;

impl Gather {
    /// A buffer from the pool, or a new empty one.
    pub(crate) fn take() -> Gather {
        Pooled::pop(&GATHER)
    }
}

impl BlockList {
    /// An empty list from the pool, or a new one.
    pub(crate) fn take() -> BlockList {
        let mut list = Pooled::pop(&BLOCK_LISTS);
        list.clear();
        list
    }
}

impl<T> Pooled<T> {
    /// A `Vec` from `pool`, or a new empty one if the pool is empty or
    /// the thread is tearing its locals down.
    fn pop(pool: &'static LocalKey<RefCell<Vec<Vec<T>>>>) -> Pooled<T> {
        let pooled = pool.try_with(|p| p.borrow_mut().pop());
        Pooled(pooled.ok().flatten().unwrap_or_default(), pool)
    }
}

impl<T> Drop for Pooled<T> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        // Past the pool's own destructor the buffer is simply freed.
        let _ = self.1.try_with(move |pool| pool.borrow_mut().push(buf));
    }
}

impl<T> Deref for Pooled<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> DerefMut for Pooled<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

/// Commits the running transaction (if any): writes descriptor +
/// images as one merged command and the commit record as another, then
/// marks the meta blocks clean (their committed images are pinned in
/// the journal until checkpoint).
///
/// # Errors
///
/// A checkpoint's or a commit write's device error. The slice being
/// committed stays in the running transaction, and every slice
/// committed before it stays committed.
pub(crate) fn commit_journal(inner: &Inner, st: &mut State) -> FsResult<()> {
    // Oversized transactions commit in slices, as in JBD.
    while !st.journal.running_is_empty() {
        if st.journal.needs_checkpoint() {
            checkpoint(inner, st)?;
        }
        let mut buf = Gather::take();
        let Some(plan) = st.journal.prepare(|bno| st.cache.peek(bno), &mut buf) else {
            return Ok(());
        };
        // Issue the merged commands to the device, bracketed by a span
        // so per-command device work (disk service or remote CDBs)
        // nests under this commit slice. Commits fire from a daemon, so
        // there is no request to inherit a host from: the configured
        // trace_host says whose machine's journal this is.
        let tracer = inner.sim.tracer();
        let ctx = tracer.open_span(Some(inner.opts.trace_host));
        let mut commit_time = SimDuration::ZERO;
        let mut bytes = &buf[..];
        for &(start, len) in &plan.commands {
            let (cmd, rest) = bytes.split_at(len as usize * BLOCK_SIZE);
            bytes = rest;
            match inner.dev.write(start, cmd) {
                Ok(cost) => {
                    commit_time += cost.time;
                    inner.charge(cost);
                }
                Err(e) => {
                    let now = inner.sim.now();
                    tracer.close_span(ctx, "ext3", "journal_commit", now, now, Vec::new());
                    return Err(e.into());
                }
            }
        }
        st.journal.complete(&plan, &buf);
        // Meta blocks are now stable in the log. Known deviation
        // (EXPERIMENTS.md): the numbers cleaned here are the images'
        // *journal slots*, not their home blocks, so committed meta-data
        // stays `DirtyKind::Meta` and unevictable. Cleaning the home
        // blocks changes eviction and with it virtual time.
        let (desc_slot, burst) = plan.commands[0];
        let meta_blocks = burst - 1; // the descriptor leads the burst
        for slot in desc_slot + 1..=desc_slot + meta_blocks as u64 {
            st.cache.mark_clean(slot);
        }
        inner.count(Op::JournalCommit);
        inner
            .commit_time
            .get_or_init(|| inner.sim.metrics().handle("ext3.journal.commit"))
            .record_duration(commit_time);
        let now = inner.sim.now();
        let attrs = if ctx.is_disabled() {
            Vec::new()
        } else {
            vec![
                ("seq", plan.seq.to_string()),
                ("meta_blocks", meta_blocks.to_string()),
            ]
        };
        tracer.close_span(ctx, "ext3", "journal_commit", now, now + commit_time, attrs);
        debug_assert!(plan.seq >= 1);
    }
    Ok(())
}

/// Writes all committed-but-not-checkpointed blocks to their home
/// locations (merged into runs) and persists the advanced journal
/// sequence in the superblock. The journal forgets the images only
/// once every write has landed.
///
/// # Errors
///
/// The first device error; the images stay pending for a later
/// checkpoint.
pub(crate) fn checkpoint(inner: &Inner, st: &mut State) -> FsResult<()> {
    let pending = st.journal.pending();
    let runs = merge_runs(pending.keys().copied());
    // Runs and images are both in block order: walk them in step.
    let mut images = pending.values();
    let mut buf = Gather::take();
    for (start, len) in runs {
        buf.clear();
        for img in images.by_ref().take(len as usize) {
            buf.extend_from_slice(&img[..]);
        }
        let cost = inner.dev.write(start, &buf)?;
        inner.charge(cost);
    }
    st.sb.journal_seq = st.journal.next_seq();
    let cost = inner.dev.write(0, &st.sb.encode())?;
    inner.charge(cost);
    st.journal.checkpointed();
    Ok(())
}

/// Writes back up to `limit` dirty data blocks, merging adjacent
/// blocks into large commands (this is the aggregation that gives
/// iSCSI its 128 KB mean write size in the paper). Every run is tried;
/// one the device rejects stays dirty and resident.
///
/// # Errors
///
/// The first run's device error, after the remaining runs were tried.
pub(crate) fn flush_data(inner: &Inner, st: &mut State, limit: usize) -> FsResult<()> {
    let dirty = st.cache.dirty_data_prefix(limit);
    if dirty.is_empty() {
        return Ok(());
    }
    let runs = merge_runs(dirty);
    let mut cleaned = 0usize;
    let mut result = Ok(());
    for (start, len) in runs {
        match write_back_run(inner, st, start, len) {
            Ok(()) => cleaned += len as usize,
            Err(e) => result = result.and(Err(e)),
        }
    }
    inner
        .writeback_blocks
        .get_or_init(|| inner.sim.counters().handle("ext3.writeback.blocks"))
        .add(cleaned as u64);
    result
}

/// Writes the resident dirty run `[start, start + len)` to the device
/// as one command and marks its blocks clean.
pub(crate) fn write_back_run(
    inner: &Inner,
    st: &mut State,
    start: BlockNo,
    len: u32,
) -> FsResult<()> {
    let mut buf = Gather::take();
    buf.clear();
    for bno in start..start + len as u64 {
        buf.extend_from_slice(st.cache.peek(bno).expect("dirty block resident"));
    }
    let cost = inner.dev.write(start, &buf)?;
    inner.charge(cost);
    for bno in start..start + len as u64 {
        st.cache.mark_clean(bno);
    }
    Ok(())
}

/// Coalesces sorted block numbers into `(start, len)` runs capped at
/// [`MAX_WRITE_CMD_BLOCKS`] blocks each, yielded one run at a time.
pub(crate) fn merge_runs(
    blocks: impl IntoIterator<Item = BlockNo>,
) -> impl Iterator<Item = (BlockNo, u32)> {
    let mut blocks = blocks.into_iter().peekable();
    std::iter::from_fn(move || {
        let start = blocks.next()?;
        let mut len = 1;
        while len < MAX_WRITE_CMD_BLOCKS && blocks.next_if_eq(&(start + len as u64)).is_some() {
            len += 1;
        }
        Some((start, len))
    })
}

/// Throttles a writer when dirty data exceeds the limit: flushes a
/// batch in the foreground, as the kernel's balance_dirty_pages does.
pub(crate) fn maybe_throttle(inner: &Inner, st: &mut State) {
    let dirty = st.cache.dirty_count(DirtyKind::Data);
    if dirty > DIRTY_LIMIT_BLOCKS {
        let excess = dirty - DIRTY_LIMIT_BLOCKS;
        // A rejected run stays dirty: the next write throttles again.
        let _ = flush_data(inner, st, excess + DIRTY_LIMIT_BLOCKS / 8);
    }
}

// ---------------------------------------------------------------------
// Read-ahead bookkeeping
// ---------------------------------------------------------------------

/// Returns the read-ahead window (in blocks) to fetch starting at
/// `fblock`, updating per-inode sequentiality state.
pub(crate) fn readahead_window(st: &mut State, ino: Ino, fblock: u64, max: u32) -> u32 {
    let ra = st.ra.entry(ino).or_insert(RaState {
        next_expected: u64::MAX,
        window: 1,
    });
    if fblock == ra.next_expected {
        ra.window = (ra.window * 2).min(max);
    } else {
        ra.window = 1;
    }
    ra.window
}

/// Records where the application's sequential stream now stands.
pub(crate) fn readahead_advance(st: &mut State, ino: Ino, next_fblock: u64) {
    if let Some(ra) = st.ra.get_mut(&ino) {
        ra.next_expected = next_fblock;
    }
}

/// Forgets read-ahead state (file closed or inode freed).
pub(crate) fn readahead_forget(st: &mut State, ino: Ino) {
    st.ra.remove(&ino);
}
