//! The NFS client: dentry/attribute caches with Linux revalidation
//! semantics, a data page cache with 30-second consistency checks, a
//! bounded asynchronous write pipeline, version-specific RPC scripts,
//! and the §7 enhancements.
//!
//! ## What generates messages
//!
//! * Path components resolve through the dentry cache; entries older
//!   than the 3-second meta-data timeout are re-LOOKUPed. NFS v4
//!   additionally issues an ACCESS per component (the Linux behaviour
//!   the paper measured).
//! * Meta-data *updates* (MKDIR, CREATE, SETATTR, ...) are always
//!   synchronous RPCs — NFS v2/v3 offer no way to delay them, which is
//!   the paper's core explanation for the meta-data gap vs iSCSI.
//! * Reads consult the page cache; a file unvalidated for 30 s costs a
//!   GETATTR, and an mtime change invalidates its pages.
//! * v2 writes are synchronous through to the server disk; v3/v4
//!   writes enter a bounded pipeline of unstable WRITE RPCs that
//!   degenerates to write-through when the window fills (§4.5).

use crate::pagecache::{PageCache, PAGE_SIZE};
use crate::server::NfsServer;
use crate::{CacheTimeouts, ClientId, Enhancements, Fh, Version};
use cpu::{CostModel, CpuAccount};
use ext3::{Attr, DirEntry, FsError, FsResult, SetAttr};
use rpc::RpcClient;
use simkit::units::Bytes;
use simkit::{Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct NfsConfig {
    /// Protocol version.
    pub version: Version,
    /// Attribute/data cache timeouts.
    pub timeouts: CacheTimeouts,
    /// Page-cache capacity in 4 KiB pages (~256 MB default).
    pub page_cache_pages: usize,
    /// Maximum in-flight asynchronous WRITE RPCs before the client
    /// degenerates to write-through (the Linux pending-writes limit).
    pub max_pending_writes: usize,
    /// Dirty pages the client may hold before draining them to the
    /// server inline (Linux 2.4's bounded NFS write-back — §4.5: once
    /// exceeded, "the write-back cache degenerates to a write-through
    /// cache").
    pub max_dirty_pages: usize,
    /// Server-side cost of making a v2 write stable before replying.
    pub sync_write_penalty: SimDuration,
    /// Read pipelining depth for sequential streams (nfsiod
    /// read-ahead daemons overlapping RPC round trips).
    pub read_pipeline: u32,
    /// §7 enhancements.
    pub enhancements: Enhancements,
    /// Updates batched per aggregated flush under directory delegation.
    pub delegation_batch: usize,
    /// Which client this is, for the server's per-client accounting in
    /// multi-host topologies. 0 (the only client) in the paper's
    /// single-client testbed.
    pub client_id: u32,
    /// TCP connections the mount opens (the Linux `nconnect` mount
    /// option). Only observable under the modeled TCP transport, where
    /// the RPC channel round-robins across this many flows; the
    /// paper-era single-connection mount is `1`.
    pub nconnect: u32,
}

impl NfsConfig {
    /// Defaults for a given version on the paper's testbed.
    pub fn for_version(version: Version) -> NfsConfig {
        NfsConfig {
            version,
            timeouts: CacheTimeouts::default(),
            page_cache_pages: 65_536,
            max_pending_writes: 16,
            max_dirty_pages: 256,
            sync_write_penalty: SimDuration::from_micros(1200),
            read_pipeline: 4,
            enhancements: Enhancements::default(),
            delegation_batch: 32,
            client_id: 0,
            nconnect: 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CachedAttr {
    attr_mtime: u64,
    size: u64,
    fetched_at: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct SeqState {
    next_off: u64,
    streak: u32,
}

/// An open file: the handle plus the offset bookkeeping the VFS layer
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFile {
    /// The file handle.
    pub fh: Fh,
    /// Size at open time.
    pub size: u64,
}

/// One directory's cached entries: child name → `(fh, generation)`.
type DirEntries = BTreeMap<String, (Fh, u64)>;

/// The NFS client endpoint.
pub struct NfsClient {
    sim: Rc<Sim>,
    rpc: RpcClient,
    server: Rc<NfsServer>,
    cfg: NfsConfig,
    cpu: Rc<CpuAccount>,
    cost: CostModel,
    attrs: RefCell<BTreeMap<Fh, CachedAttr>>,
    /// Cached directory entries, keyed by directory then child name.
    /// The two-level shape lets the hot lookup path probe with a
    /// borrowed `&str` instead of building an owned `(Fh, String)` key
    /// per resolution.
    dentries: RefCell<BTreeMap<Fh, DirEntries>>,
    /// Entries across all of `dentries`, maintained wherever the maps
    /// change so the gauge probe is a load, not a walk.
    dentry_count: Cell<usize>,
    pages: PageCache,
    /// Where READ replies land before their pages enter the cache: one
    /// buffer that grows to the transfer size and is reused, its
    /// contents meaningless between calls.
    read_staging: RefCell<Vec<u8>>,
    /// Completion times (ns) of in-flight async writes.
    pending: RefCell<VecDeque<u64>>,
    /// Dirty chunks queued for write-back: `(fh, offset, bytes)`.
    dirty_queue: RefCell<VecDeque<(Fh, u64, u64)>>,
    /// Total queued dirty pages.
    dirty_page_count: Cell<usize>,
    seq: RefCell<BTreeMap<Fh, SeqState>>,
    /// §7 directory delegation: leased directories and their queued
    /// (not yet flushed) meta-data updates.
    delegations: RefCell<BTreeMap<Fh, u64>>,
    /// v4 file delegations currently held (read delegations granted at
    /// OPEN; the single-client testbed never recalls them).
    file_delegations: RefCell<BTreeMap<Fh, ()>>,
    queued_updates: Cell<u64>,
}

impl std::fmt::Debug for NfsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsClient")
            .field("version", &self.cfg.version)
            .field("cached_dentries", &self.dentry_count.get())
            .finish()
    }
}

impl NfsClient {
    /// Creates a client speaking to `server` over `rpc`.
    pub fn new(
        sim: Rc<Sim>,
        rpc: RpcClient,
        server: Rc<NfsServer>,
        cfg: NfsConfig,
        cpu: Rc<CpuAccount>,
        cost: CostModel,
    ) -> NfsClient {
        server.register_client(ClientId(cfg.client_id));
        NfsClient {
            sim,
            rpc,
            server,
            cpu,
            cost,
            attrs: RefCell::new(BTreeMap::new()),
            dentries: RefCell::new(BTreeMap::new()),
            dentry_count: Cell::new(0),
            pages: PageCache::new(cfg.page_cache_pages),
            read_staging: RefCell::new(Vec::new()),
            pending: RefCell::new(VecDeque::new()),
            dirty_queue: RefCell::new(VecDeque::new()),
            dirty_page_count: Cell::new(0),
            seq: RefCell::new(BTreeMap::new()),
            delegations: RefCell::new(BTreeMap::new()),
            file_delegations: RefCell::new(BTreeMap::new()),
            queued_updates: Cell::new(0),
            cfg,
        }
    }

    /// This client's identity in the server's per-client accounting.
    fn id(&self) -> ClientId {
        ClientId(self.cfg.client_id)
    }

    /// The simulation context this client runs in.
    pub fn sim(&self) -> &Rc<Sim> {
        &self.sim
    }

    /// The machine this client runs on, for trace attribution.
    pub fn trace_host(&self) -> simkit::HostId {
        simkit::HostId::client(self.cfg.client_id)
    }

    /// Pages currently held in the client page cache (gauge probe).
    pub fn cached_pages(&self) -> usize {
        self.pages.len()
    }

    /// Directory entries currently cached across all dentry maps
    /// (gauge probe).
    pub fn cached_dentry_count(&self) -> usize {
        self.dentry_count.get()
    }

    /// Performs the mount handshake and returns the root handle. For
    /// v2/v3 this is the separate MOUNT protocol (mountd) plus an
    /// FSINFO probe; v4 folds mounting into the main protocol with a
    /// PUTROOTFH compound (paper §2.1: "integrates the suite of
    /// protocols ... into one single protocol").
    pub fn mount(&self) -> Fh {
        match self.cfg.version {
            Version::V2 | Version::V3 => {
                self.rpc_sync("mnt", Bytes::new(128), Bytes::new(128), 1);
                self.rpc_sync("fsinfo", Bytes::new(128), Bytes::new(128), 1);
            }
            Version::V4 => {
                self.rpc_sync("putrootfh", Bytes::new(128), Bytes::new(128), 1);
            }
        }
        let root = self.server.root_fh();
        if let Ok(attr) = self.server.getattr(self.id(), root) {
            self.prime_attr(root, &attr);
        }
        root
    }

    /// The exported root handle.
    pub fn root(&self) -> Fh {
        self.server.root_fh()
    }

    /// The server this client talks to.
    pub fn server(&self) -> &Rc<NfsServer> {
        &self.server
    }

    /// Drops every client cache (unmount/remount: the paper's cold
    /// cache protocol), without touching the server.
    pub fn drop_caches(&self) {
        self.attrs.borrow_mut().clear();
        self.dentries.borrow_mut().clear();
        self.dentry_count.set(0);
        self.pages.clear();
        self.seq.borrow_mut().clear();
        self.delegations.borrow_mut().clear();
        self.file_delegations.borrow_mut().clear();
    }

    fn now_ns(&self) -> u64 {
        self.sim.now().as_nanos()
    }

    fn charge_client(&self) {
        let c = self.cost.nfs_client_syscall();
        self.cpu.charge_tagged(self.sim.now(), c, "nfs.client");
        // The (single-threaded) application spends this time on the
        // client CPU before the request reaches the wire.
        self.sim.advance(c);
    }

    fn charge_client_data(&self) {
        let c = self.cost.data_syscall();
        self.cpu.charge_tagged(self.sim.now(), c, "nfs.client");
        self.sim.advance(c);
    }

    /// One synchronous RPC: accounting + clock advance, optionally
    /// amortized over a read pipeline.
    fn rpc_sync(&self, proc_name: &str, req: Bytes, resp: Bytes, pipeline: u32) {
        let out = self.rpc.call(proc_name, req, resp, SimDuration::ZERO);
        let latency = if pipeline > 1 {
            SimDuration::from_nanos(out.latency.as_nanos() / pipeline as u64)
        } else {
            out.latency
        };
        self.sim.advance(latency);
    }

    fn meta_fresh(&self, fetched_at: u64) -> bool {
        if self.cfg.enhancements.consistent_metadata_cache {
            // Server-driven invalidation: cached meta-data is always
            // valid until the (single) client's own updates change it.
            return true;
        }
        self.now_ns().saturating_sub(fetched_at) < self.cfg.timeouts.metadata.as_nanos()
    }

    fn prime_attr(&self, fh: Fh, attr: &Attr) {
        self.attrs.borrow_mut().insert(
            fh,
            CachedAttr {
                attr_mtime: attr.mtime,
                size: attr.size,
                fetched_at: self.now_ns(),
            },
        );
    }

    fn prime_dentry(&self, dir: Fh, name: &str, fh: Fh) {
        let replaced = self
            .dentries
            .borrow_mut()
            .entry(dir)
            .or_default()
            .insert(name.to_owned(), (fh, self.now_ns()));
        if replaced.is_none() {
            self.dentry_count.set(self.dentry_count.get() + 1);
        }
    }

    /// Removes one cached entry, returning it; the only place an entry
    /// leaves `dentries` short of `drop_caches`.
    fn drop_dentry(&self, dir: Fh, name: &str) -> Option<(Fh, u64)> {
        let removed = self
            .dentries
            .borrow_mut()
            .get_mut(&dir)
            .and_then(|entries| entries.remove(name));
        if removed.is_some() {
            self.dentry_count.set(self.dentry_count.get() - 1);
        }
        removed
    }

    /// Borrowed-key dentry probe: no allocation on the hit path.
    fn cached_dentry(&self, dir: Fh, name: &str) -> Option<(Fh, u64)> {
        self.dentries
            .borrow()
            .get(&dir)
            .and_then(|entries| entries.get(name))
            .copied()
    }

    /// Resolves one path component. Returns the child handle.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] and other server-side errors.
    pub fn lookup(&self, dir: Fh, name: &str) -> FsResult<Fh> {
        self.charge_client();
        if self.delegated(dir) {
            // Directory lease (§7): contents are authoritative at the
            // client; positive and negative lookups are local.
            return Ok(Fh(self.server.fs().lookup(dir.0, name)?));
        }
        if let Some((fh, at)) = self.cached_dentry(dir, name) {
            if self.meta_fresh(at) {
                return Ok(fh);
            }
        }
        // Cold or stale: LOOKUP (and ACCESS for v4), sized from the
        // real XDR encodings.
        self.rpc_sync(
            "lookup",
            Bytes::new(crate::xdr::lookup_call_len(name) as u64),
            Bytes::new(crate::xdr::lookup_reply_len() as u64),
            1,
        );
        let (fh, attr) = self.server.lookup(self.id(), dir, name)?;
        if self.cfg.version.access_per_component() {
            self.rpc_sync("access", Bytes::new(128), Bytes::new(128), 1);
            let _ = self.server.access(self.id(), fh);
        }
        self.prime_attr(fh, &attr);
        self.prime_dentry(dir, name, fh);
        Ok(fh)
    }

    /// Attribute read that always revalidates with the server: Linux
    /// issues a GETATTR on `stat(2)` and at `open(2)` (close-to-open
    /// consistency) even when the attribute cache is fresh. With the
    /// §7 consistent meta-data cache the server invalidates instead,
    /// so the revalidation is free.
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn getattr_revalidate(&self, fh: Fh) -> FsResult<Attr> {
        self.charge_client();
        if self.cfg.enhancements.consistent_metadata_cache && self.attrs.borrow().contains_key(&fh)
        {
            return self.server.getattr(self.id(), fh);
        }
        self.rpc_sync(
            "getattr",
            Bytes::new(crate::xdr::getattr_call_len() as u64),
            Bytes::new(crate::xdr::getattr_reply_len() as u64),
            1,
        );
        let attr = self.server.getattr(self.id(), fh)?;
        self.prime_attr(fh, &attr);
        Ok(attr)
    }

    /// Explicit permission probe. The Linux v2/v3 clients fall back to
    /// a GETATTR (no ACCESS in v2; v3's is under-used per the paper's
    /// footnote); v4 always sends ACCESS.
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn access(&self, fh: Fh) -> FsResult<Attr> {
        self.charge_client();
        let proc_name = if self.cfg.version == Version::V4 {
            "access"
        } else {
            "getattr"
        };
        if self.cfg.enhancements.consistent_metadata_cache && self.attrs.borrow().contains_key(&fh)
        {
            return self.server.getattr(self.id(), fh);
        }
        self.rpc_sync(proc_name, Bytes::new(128), Bytes::new(128), 1);
        let attr = self.server.access(self.id(), fh)?;
        self.prime_attr(fh, &attr);
        Ok(attr)
    }

    // -- meta-data updates (synchronous RPCs, unless delegated) ------

    fn delegated(&self, dir: Fh) -> bool {
        self.cfg.enhancements.directory_delegation && self.delegations.borrow().contains_key(&dir)
    }

    /// Acquires a delegation lease on `dir` (one RPC) if enhancements
    /// allow; afterwards meta-data updates under it are local.
    fn maybe_acquire_delegation(&self, dir: Fh) {
        if !self.cfg.enhancements.directory_delegation {
            return;
        }
        if !self.delegations.borrow().contains_key(&dir) {
            self.rpc_sync("get_dir_delegation", Bytes::new(128), Bytes::new(128), 1);
            self.delegations.borrow_mut().insert(dir, self.now_ns());
        }
    }

    /// Records a local (delegated) update; batches flush later.
    fn queue_delegated_update(&self) {
        self.queued_updates.set(self.queued_updates.get() + 1);
        let batch = self.cfg.delegation_batch as u64;
        if self.queued_updates.get() >= batch {
            self.flush_delegated_updates();
        }
    }

    /// Flushes queued delegated meta-data updates as aggregated
    /// compound RPCs (one per `delegation_batch`).
    pub fn flush_delegated_updates(&self) {
        let n = self.queued_updates.replace(0);
        if n == 0 {
            return;
        }
        let batch = self.cfg.delegation_batch as u64;
        let msgs = n.div_ceil(batch).max(1);
        for _ in 0..msgs {
            self.rpc_sync("compound_meta_update", Bytes::new(4096), Bytes::new(128), 1);
        }
    }

    fn update_op<T>(
        &self,
        dir: Fh,
        procs: &[&str],
        apply: impl FnOnce(&NfsServer) -> FsResult<T>,
    ) -> FsResult<T> {
        self.charge_client();
        if self.delegated(dir) {
            let r = apply(&self.server)?;
            self.queue_delegated_update();
            return Ok(r);
        }
        self.maybe_acquire_delegation(dir);
        if self.delegated(dir) {
            let r = apply(&self.server)?;
            self.queue_delegated_update();
            return Ok(r);
        }
        for p in procs {
            self.rpc_sync(p, Bytes::new(256), Bytes::new(256), 1);
        }
        apply(&self.server)
    }

    /// v4 issues extra procedure calls around updates (confirmations,
    /// access checks) when attributes are not already cached fresh.
    fn v4_extra(&self, op: &str, target_cached: bool) -> u32 {
        if self.cfg.version != Version::V4 || target_cached {
            return 0;
        }
        match op {
            "mkdir" | "rmdir" | "unlink" | "readdir" | "utime" => 2,
            "symlink" | "chdir" => 1,
            "creat" => 7,
            "open" => 5,
            "link" | "rename" => 3,
            "trunc" => 4,
            "chmod" | "chown" | "stat" | "access" => 2,
            _ => 0,
        }
    }

    /// Issues the v4 bookkeeping RPCs for `op` (OPEN confirmations,
    /// per-object ACCESS/GETATTR probes the UMich client sends).
    pub(crate) fn v4_bookkeeping(&self, op: &str, target_cached: bool) {
        for _ in 0..self.v4_extra(op, target_cached) {
            self.rpc_sync("v4_check", Bytes::new(128), Bytes::new(128), 1);
        }
    }

    /// MKDIR. Existence is checked with a real LOOKUP first (no
    /// negative dentry caching in Linux 2.4).
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] and other server-side errors.
    pub fn mkdir(&self, dir: Fh, name: &str, perm: u16) -> FsResult<Fh> {
        self.lookup_expect_absent(dir, name)?;
        self.v4_bookkeeping("mkdir", self.attr_cached_fresh(dir) || self.delegated(dir));
        let (fh, attr) =
            self.update_op(dir, &["mkdir"], |s| s.mkdir(self.id(), dir, name, perm))?;
        self.prime_attr(fh, &attr);
        self.prime_dentry(dir, name, fh);
        Ok(fh)
    }

    /// CREATE (v2/v3) / OPEN-create (v4).
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] and other server-side errors.
    pub fn create(&self, dir: Fh, name: &str, perm: u16) -> FsResult<Fh> {
        self.lookup_expect_absent(dir, name)?;
        self.v4_bookkeeping("creat", self.attr_cached_fresh(dir) || self.delegated(dir));
        let procs: &[&str] = match self.cfg.version {
            // v2 CREATE returns no attributes; the Linux v3 client
            // issues the same trailing GETATTR (paper Table 2).
            Version::V2 | Version::V3 => &["create", "getattr"],
            Version::V4 => &["open", "open_confirm"],
        };
        let (fh, attr) = self.update_op(dir, procs, |s| s.create(self.id(), dir, name, perm))?;
        self.prime_attr(fh, &attr);
        self.prime_dentry(dir, name, fh);
        Ok(fh)
    }

    /// RMDIR.
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`] and other server-side errors.
    pub fn rmdir(&self, dir: Fh, name: &str) -> FsResult<()> {
        let _ = self.lookup(dir, name)?;
        self.v4_bookkeeping("rmdir", false);
        self.update_op(dir, &["rmdir"], |s| s.rmdir(self.id(), dir, name))?;
        self.drop_dentry(dir, name);
        Ok(())
    }

    /// REMOVE (unlink).
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] and other server-side errors.
    pub fn unlink(&self, dir: Fh, name: &str) -> FsResult<()> {
        let fh = self.lookup(dir, name)?;
        self.v4_bookkeeping("unlink", false);
        self.update_op(dir, &["remove"], |s| s.remove(self.id(), dir, name))?;
        self.drop_dentry(dir, name);
        self.pages.invalidate_file(fh);
        Ok(())
    }

    /// LINK.
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn link(&self, dir: Fh, name: &str, target: Fh) -> FsResult<()> {
        self.lookup_expect_absent(dir, name)?;
        self.v4_bookkeeping("link", self.attr_cached_fresh(target));
        let procs: &[&str] = if self.cfg.version == Version::V3 {
            &["link"]
        } else {
            &["link", "getattr"]
        };
        self.update_op(dir, procs, |s| s.link(self.id(), dir, name, target))?;
        self.prime_dentry(dir, name, target);
        self.attrs.borrow_mut().remove(&target); // link count changed
        Ok(())
    }

    /// SYMLINK.
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn symlink(&self, dir: Fh, name: &str, target: &str) -> FsResult<Fh> {
        self.lookup_expect_absent(dir, name)?;
        self.v4_bookkeeping("symlink", self.attr_cached_fresh(dir));
        let procs: &[&str] = if self.cfg.version == Version::V2 {
            &["symlink", "getattr"] // v2 SYMLINK returns no attributes
        } else {
            &["symlink"]
        };
        let fh = self.update_op(dir, procs, |s| s.symlink(self.id(), dir, name, target))?;
        self.prime_dentry(dir, name, fh);
        Ok(fh)
    }

    /// READLINK (always an RPC; Linux does not cache targets across
    /// the attribute timeout).
    ///
    /// # Errors
    ///
    /// [`FsError::NotASymlink`] and other server-side errors.
    pub fn readlink(&self, fh: Fh) -> FsResult<String> {
        self.charge_client();
        if self.cfg.enhancements.consistent_metadata_cache && self.attrs.borrow().contains_key(&fh)
        {
            return self.server.readlink(self.id(), fh);
        }
        self.rpc_sync("readlink", Bytes::new(128), Bytes::new(256), 1);
        self.server.readlink(self.id(), fh)
    }

    /// RENAME.
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn rename(&self, sdir: Fh, sname: &str, ddir: Fh, dname: &str) -> FsResult<()> {
        let _src = self.lookup(sdir, sname)?;
        // Destination existence check (may legitimately be absent).
        let _ = self.lookup_quiet(ddir, dname);
        self.v4_bookkeeping("rename", false);
        let procs: &[&str] = if self.cfg.version == Version::V3 {
            &["rename"]
        } else {
            &["rename", "getattr"]
        };
        self.update_op(sdir, procs, |s| {
            s.rename(self.id(), sdir, sname, ddir, dname)
        })?;
        if let Some((fh, _)) = self.drop_dentry(sdir, sname) {
            self.prime_dentry(ddir, dname, fh);
        }
        Ok(())
    }

    /// SETATTR (chmod/chown/utime/truncate). `op` names the syscall
    /// for the v4 bookkeeping table.
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn setattr(&self, fh: Fh, set: SetAttr, op: &str) -> FsResult<Attr> {
        self.charge_client();
        self.v4_bookkeeping(op, self.attr_cached_fresh(fh));
        let procs: &[&str] = match (self.cfg.version, op) {
            (Version::V3, "utime") | (Version::V2, "utime") => &["setattr"],
            (Version::V2, _) | (Version::V3, _) => &["setattr", "getattr"],
            (Version::V4, _) => &["setattr"],
        };
        // setattr is not parented on a directory; delegation does not
        // apply unless the object's parent directory is leased — we
        // conservatively treat file attribute updates as synchronous.
        for p in procs {
            self.rpc_sync(p, Bytes::new(256), Bytes::new(256), 1);
        }
        let attr = self.server.setattr(self.id(), fh, set)?;
        self.prime_attr(fh, &attr);
        if set.size.is_some() {
            self.pages.invalidate_file(fh);
        }
        Ok(attr)
    }

    /// READDIR (always fetched; Linux keeps directory pages only
    /// briefly and the paper's warm counts show the refetch).
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn readdir(&self, dir: Fh) -> FsResult<Vec<DirEntry>> {
        self.charge_client();
        self.v4_bookkeeping("readdir", self.attr_cached_fresh(dir));
        let entries = self.server.readdir(self.id(), dir)?;
        self.rpc_sync(
            "readdir",
            Bytes::new(128),
            Bytes::new(128 + entries.len() as u64 * 32),
            1,
        );
        Ok(entries)
    }

    /// Opens a file: resolves attributes (v2/v3) or runs the OPEN
    /// state machine (v4).
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn open(&self, fh: Fh) -> FsResult<OpenFile> {
        self.charge_client();
        let cached = self.attr_cached_fresh(fh);
        self.v4_bookkeeping("open", cached);
        let attr = if self.cfg.version == Version::V4 {
            self.rpc_sync("open", Bytes::new(256), Bytes::new(256), 1);
            let a = self.server.getattr(self.id(), fh)?;
            self.prime_attr(fh, &a);
            if self.cfg.enhancements.file_delegation {
                // The OPEN response carries a read delegation; cached
                // data needs no revalidation until recall.
                self.file_delegations.borrow_mut().insert(fh, ());
            }
            a
        } else {
            self.getattr_revalidate(fh)?
        };
        Ok(OpenFile {
            fh,
            size: attr.size,
        })
    }

    /// CLOSE: close-to-open consistency flushes this file's dirty
    /// pages to the server (plus a COMMIT when any were outstanding);
    /// v4 additionally sends its stateful CLOSE.
    pub fn close(&self, fh: Fh) {
        if self.cfg.version.async_writes() && self.has_dirty(fh) {
            self.drain_dirty(0);
            self.rpc_sync("commit", Bytes::new(128), Bytes::new(128), 1);
            let _ = self.server.commit(self.id(), fh);
            self.pages.clean_file(fh);
        }
        if self.cfg.version == Version::V4 {
            self.rpc_sync("close", Bytes::new(128), Bytes::new(128), 1);
            // Delegations are returned with the close in this model.
            self.file_delegations.borrow_mut().remove(&fh);
        }
        self.seq.borrow_mut().remove(&fh);
    }

    // -- data path ----------------------------------------------------

    /// Reads up to `buf.len()` bytes at `off` into the front of `buf`,
    /// through the page cache with Linux consistency checks; returns
    /// how many.
    ///
    /// # Errors
    ///
    /// Server-side errors; [`FsError::InvalidArgument`] if the range
    /// ends past `u64::MAX`.
    pub fn read_into(&self, fh: Fh, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.charge_client_data();
        self.revalidate_data(fh)?;
        let attr_size = self
            .attrs
            .borrow()
            .get(&fh)
            .map(|c| c.size)
            .unwrap_or(u64::MAX);
        let end = off
            .checked_add(buf.len() as u64)
            .ok_or(FsError::InvalidArgument)?
            .min(attr_size);
        if off >= end {
            return Ok(0);
        }
        // Sequential-stream detection for pipelined READs.
        let pipeline = {
            let mut seq = self.seq.borrow_mut();
            let s = seq.entry(fh).or_default();
            if off == s.next_off {
                s.streak += 1;
            } else {
                s.streak = 0;
            }
            s.next_off = end;
            if s.streak >= 2 {
                self.cfg.read_pipeline
            } else {
                1
            }
        };

        let first = off / PAGE_SIZE as u64;
        let last = (end - 1) / PAGE_SIZE as u64;
        let mut page = first;
        while page <= last {
            if self.pages.contains(fh, page) {
                page += 1;
                continue;
            }
            // Fetch a run of uncached pages, in transfer-size RPCs.
            let mut run_end = page;
            while run_end < last && !self.pages.contains(fh, run_end + 1) {
                run_end += 1;
            }
            let xfer_pages = (self.cfg.version.transfer_size() / PAGE_SIZE as u64).max(1);
            let mut staging = self.read_staging.borrow_mut();
            let mut p = page;
            while p <= run_end {
                let n = (run_end - p + 1).min(xfer_pages);
                let bytes = (n as usize) * PAGE_SIZE;
                self.rpc_sync(
                    "read",
                    Bytes::new(128),
                    Bytes::new(128 + bytes as u64),
                    pipeline,
                );
                if staging.len() < bytes {
                    staging.resize(bytes, 0);
                }
                let got = self.server.read_into(
                    self.id(),
                    fh,
                    p * PAGE_SIZE as u64,
                    &mut staging[..bytes],
                )?;
                for (i, chunk) in staging[..got].chunks(PAGE_SIZE).enumerate() {
                    self.pages.insert_clean(fh, p + i as u64, chunk);
                }
                // Short server read = EOF: stop fetching.
                if got < bytes {
                    break;
                }
                p += n;
            }
            page = run_end + 1;
        }
        // Assemble the result from the cache (holes read zero).
        let mut filled = 0usize;
        for page in first..=last {
            let ws = if page == first {
                (off % PAGE_SIZE as u64) as usize
            } else {
                0
            };
            let we = if page == last {
                ((end - 1) % PAGE_SIZE as u64) as usize + 1
            } else {
                PAGE_SIZE
            };
            let dst = &mut buf[filled..filled + (we - ws)];
            if self
                .pages
                .get(fh, page, |p| dst.copy_from_slice(&p[ws..we]))
                .is_none()
            {
                dst.fill(0);
            }
            filled += we - ws;
        }
        Ok(filled)
    }

    /// [`read_into`](Self::read_into) a fresh `Vec` of at most `len`
    /// bytes.
    ///
    /// # Errors
    ///
    /// As [`read_into`](Self::read_into).
    pub fn read(&self, fh: Fh, off: u64, len: usize) -> FsResult<Vec<u8>> {
        ext3::read_to_vec(len, |buf| self.read_into(fh, off, buf))
    }

    /// The 30-second data consistency check: a GETATTR when the cached
    /// copy is old, and invalidation when the server mtime moved.
    fn revalidate_data(&self, fh: Fh) -> FsResult<()> {
        if self.cfg.enhancements.consistent_metadata_cache {
            return Ok(()); // server invalidates; no polling
        }
        if self.file_delegations.borrow().contains_key(&fh) {
            return Ok(()); // v4 delegation: the server would recall
        }
        let now = self.now_ns();
        match self.pages.validation(fh) {
            Some((at, mtime)) if now.saturating_sub(at) < self.cfg.timeouts.data.as_nanos() => {
                let _ = mtime;
                Ok(())
            }
            prior => {
                self.rpc_sync("getattr", Bytes::new(128), Bytes::new(128), 1);
                let attr = self.server.getattr(self.id(), fh)?;
                if let Some((_, mtime)) = prior {
                    if mtime != attr.mtime {
                        self.pages.invalidate_file(fh);
                    }
                }
                self.pages.set_validation(fh, now, attr.mtime);
                self.prime_attr(fh, &attr);
                Ok(())
            }
        }
    }

    /// Writes `data` at `off`. v2: synchronous write-through. v3/v4:
    /// unstable WRITEs through the bounded async pipeline.
    ///
    /// # Errors
    ///
    /// Server-side errors; [`FsError::InvalidArgument`] if the range
    /// ends past `u64::MAX`.
    pub fn write(&self, fh: Fh, off: u64, data: &[u8]) -> FsResult<usize> {
        self.charge_client_data();
        if data.is_empty() {
            return Ok(0);
        }
        // Page-cache update.
        let end = off
            .checked_add(data.len() as u64)
            .ok_or(FsError::InvalidArgument)?;
        let first = off / PAGE_SIZE as u64;
        let last = (end - 1) / PAGE_SIZE as u64;
        let mut written = 0usize;
        for page in first..=last {
            let ws = if page == first {
                (off % PAGE_SIZE as u64) as usize
            } else {
                0
            };
            let we = if page == last {
                ((end - 1) % PAGE_SIZE as u64) as usize + 1
            } else {
                PAGE_SIZE
            };
            let chunk = &data[written..written + (we - ws)];
            let resident = self
                .pages
                .modify(fh, page, |p| p[ws..we].copy_from_slice(chunk));
            if !resident {
                if ws == 0 {
                    // Straight from the caller's slice, tail zero-padded.
                    self.pages.insert(fh, page, chunk, true);
                } else {
                    let mut img = [0u8; PAGE_SIZE];
                    img[ws..we].copy_from_slice(chunk);
                    self.pages.insert(fh, page, &img, true);
                }
            }
            written += chunk.len();
        }
        // Semantics: the server sees the data now; message timing
        // depends on the version.
        self.server.write(self.id(), fh, off, data)?;
        let xfer = self.cfg.version.transfer_size();
        let mut remaining = data.len() as u64;
        let mut chunk_off = off;
        while remaining > 0 {
            let chunk = remaining.min(xfer);
            remaining -= chunk;
            if self.cfg.version.async_writes() {
                // Queue the dirty chunk; WRITE RPCs leave at drain
                // time (close, commit, or dirty-limit pressure).
                self.dirty_queue
                    .borrow_mut()
                    .push_back((fh, chunk_off, chunk));
                self.dirty_page_count
                    .set(self.dirty_page_count.get() + chunk.div_ceil(PAGE_SIZE as u64) as usize);
            } else {
                let out = self.rpc.call(
                    "write",
                    Bytes::new(128 + chunk),
                    Bytes::new(128),
                    SimDuration::ZERO,
                );
                self.sim.advance(out.latency + self.cfg.sync_write_penalty);
                // Write-through: the pages are immediately clean.
                for p in
                    chunk_off / PAGE_SIZE as u64..(chunk_off + chunk).div_ceil(PAGE_SIZE as u64)
                {
                    self.pages.clean_page(fh, p);
                }
            }
            chunk_off += chunk;
        }
        if self.dirty_page_count.get() > self.cfg.max_dirty_pages {
            // Write-back degenerates to write-through (§4.5).
            self.drain_dirty(self.cfg.max_dirty_pages / 2);
        }
        // Keep our attribute cache coherent with our own write.
        if let Some(c) = self.attrs.borrow_mut().get_mut(&fh) {
            c.size = c.size.max(end);
            c.attr_mtime = self.now_ns();
        }
        Ok(written)
    }

    /// Sends queued dirty chunks until at most `target_pages` remain.
    /// Each chunk becomes an unstable WRITE through the bounded RPC
    /// window, so a large backlog stalls the caller at the window's
    /// drain rate.
    fn drain_dirty(&self, target_pages: usize) {
        loop {
            if self.dirty_page_count.get() <= target_pages {
                return;
            }
            let next = self.dirty_queue.borrow_mut().pop_front();
            let Some((fh, off, chunk)) = next else { return };
            self.dirty_page_count.set(
                self.dirty_page_count
                    .get()
                    .saturating_sub(chunk.div_ceil(PAGE_SIZE as u64) as usize),
            );
            self.async_write_rpc(Bytes::new(chunk));
            // The pages this chunk covered are clean (and evictable)
            // once their WRITE is on the wire.
            for p in off / PAGE_SIZE as u64..(off + chunk).div_ceil(PAGE_SIZE as u64) {
                self.pages.clean_page(fh, p);
            }
        }
    }

    /// True if any dirty chunks of `fh` await write-back.
    fn has_dirty(&self, fh: Fh) -> bool {
        self.dirty_queue.borrow().iter().any(|(f, _, _)| *f == fh)
    }

    /// Issues one unstable WRITE into the bounded pipeline. When the
    /// window is full the caller stalls until a slot frees — the
    /// paper's pseudo-synchronous degradation.
    fn async_write_rpc(&self, bytes: Bytes) {
        let out = self.rpc.call(
            "write",
            Bytes::new(128) + bytes,
            Bytes::new(128),
            SimDuration::ZERO,
        );
        let p = self.rpc.channel().network().params();
        // Slot service time: a full round trip (plus transfer) shared
        // across the window, floored by the server's per-RPC
        // processing cost (the real drain bottleneck on a LAN).
        let per_slot = out.latency.as_nanos() / self.cfg.max_pending_writes.max(1) as u64;
        let service = per_slot
            .max(p.serialize(bytes).as_nanos())
            .max(self.cost.nfs_request(bytes).as_nanos());
        let now = self.now_ns();
        let mut pending = self.pending.borrow_mut();
        let start = pending.back().copied().unwrap_or(now).max(now);
        pending.push_back(start + service);
        while pending.front().is_some_and(|&c| c <= self.now_ns()) {
            pending.pop_front();
        }
        if pending.len() > self.cfg.max_pending_writes {
            // Window full: write-through behaviour — wait for the
            // oldest outstanding write to complete.
            let wake = pending.pop_front().expect("nonempty");
            drop(pending);
            let now = self.now_ns();
            if wake > now {
                self.sim.advance(SimDuration::from_nanos(wake - now));
            }
        }
    }

    /// COMMIT: drains the async window and forces server stability
    /// (fsync/close path).
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn commit(&self, fh: Fh) -> FsResult<()> {
        self.charge_client();
        if self.cfg.version.async_writes() {
            self.drain_dirty(0);
            let last = self.pending.borrow_mut().pop_back();
            self.pending.borrow_mut().clear();
            if let Some(c) = last {
                let now = self.now_ns();
                if c > now {
                    self.sim.advance(SimDuration::from_nanos(c - now));
                }
            }
            self.rpc_sync("commit", Bytes::new(128), Bytes::new(128), 1);
            self.server.commit(self.id(), fh)?;
        }
        self.pages.clean_file(fh);
        Ok(())
    }

    /// FSSTAT: file-system statistics (always a fresh RPC — `df`
    /// wants current numbers).
    ///
    /// # Errors
    ///
    /// Server-side errors.
    pub fn statfs(&self) -> FsResult<ext3::StatFs> {
        self.charge_client();
        self.rpc_sync("fsstat", Bytes::new(128), Bytes::new(128), 1);
        self.server.fsstat(self.id())
    }

    // -- helpers -------------------------------------------------------

    fn attr_cached_fresh(&self, fh: Fh) -> bool {
        self.attrs
            .borrow()
            .get(&fh)
            .map(|c| self.meta_fresh(c.fetched_at))
            .unwrap_or(false)
    }

    /// LOOKUP that must fail (creation path): always an RPC — Linux
    /// 2.4 keeps no negative dentries.
    fn lookup_expect_absent(&self, dir: Fh, name: &str) -> FsResult<()> {
        match self.lookup_quiet(dir, name) {
            Err(FsError::NotFound) => Ok(()),
            Ok(_) => Err(FsError::Exists),
            Err(e) => Err(e),
        }
    }

    fn lookup_quiet(&self, dir: Fh, name: &str) -> FsResult<Fh> {
        if self.delegated(dir) {
            return Ok(Fh(self.server.fs().lookup(dir.0, name)?));
        }
        if let Some((fh, at)) = self.cached_dentry(dir, name) {
            if self.meta_fresh(at) {
                return Ok(fh);
            }
        }
        self.rpc_sync(
            "lookup",
            Bytes::new(crate::xdr::lookup_call_len(name) as u64),
            Bytes::new(crate::xdr::lookup_reply_len() as u64),
            1,
        );
        let (fh, attr) = self.server.lookup(self.id(), dir, name)?;
        self.prime_attr(fh, &attr);
        self.prime_dentry(dir, name, fh);
        Ok(fh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NfsServer;
    use blockdev::MemDisk;
    use net::{LinkParams, Network};
    use proptest::prelude::*;
    use rpc::RpcConfig;

    #[derive(Debug, Clone)]
    enum Op {
        Lookup(bool, u8),
        Create(bool, u8),
        Unlink(bool, u8),
        Rename(bool, u8, bool, u8),
        Advance(u8),
        DropCaches,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let sub = || prop_oneof![Just(false), Just(true)];
        prop_oneof![
            (sub(), 0u8..6).prop_map(|(d, f)| Op::Lookup(d, f)),
            (sub(), 0u8..6).prop_map(|(d, f)| Op::Create(d, f)),
            (sub(), 0u8..6).prop_map(|(d, f)| Op::Unlink(d, f)),
            (sub(), 0u8..6, sub(), 0u8..6).prop_map(|(sd, s, dd, d)| Op::Rename(sd, s, dd, d)),
            (1u8..5).prop_map(Op::Advance),
            Just(Op::DropCaches),
        ]
    }

    fn client(seed: u64) -> NfsClient {
        let sim = Sim::new(seed);
        let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
        let fs = ext3::Ext3::mkfs(
            sim.clone(),
            Rc::new(MemDisk::new("srv", 100_000)),
            ext3::Options::default(),
        )
        .unwrap();
        let server = Rc::new(NfsServer::new(
            fs,
            Rc::new(CpuAccount::new()),
            CostModel::p3_933(),
        ));
        let rpcc = RpcClient::new(
            netw.channel("nfs", Version::V3.transport()),
            RpcConfig::default(),
        );
        NfsClient::new(
            sim,
            rpcc,
            server,
            NfsConfig::for_version(Version::V3),
            Rc::new(CpuAccount::new()),
            CostModel::p3_933(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The maintained count is the walk it replaced. The walk lives
        /// here and not behind a `debug_assert` in the probe, which
        /// would put the O(clients) cost back into every debug-profile
        /// gauge tick.
        #[test]
        fn dentry_count_tracks_the_maps(
            ops in prop::collection::vec(op_strategy(), 1..80),
            seed in 0u64..100,
        ) {
            let c = client(seed);
            let root = c.root();
            let sub = c.mkdir(root, "d", 0o755).unwrap();
            let dir = |in_sub: bool| if in_sub { sub } else { root };
            let name = |i: u8| format!("f{i}");
            for op in &ops {
                match *op {
                    Op::Lookup(d, f) => {
                        let _ = c.lookup(dir(d), &name(f));
                    }
                    Op::Create(d, f) => {
                        let _ = c.create(dir(d), &name(f), 0o644);
                    }
                    Op::Unlink(d, f) => {
                        let _ = c.unlink(dir(d), &name(f));
                    }
                    Op::Rename(sd, s, dd, d) => {
                        let _ = c.rename(dir(sd), &name(s), dir(dd), &name(d));
                    }
                    // Past the 3 s meta-data timeout a lookup re-primes
                    // an entry that is already cached.
                    Op::Advance(secs) => c.sim().advance(SimDuration::from_secs(secs as u64)),
                    Op::DropCaches => c.drop_caches(),
                }
                let walked: usize = c.dentries.borrow().values().map(|m| m.len()).sum();
                prop_assert_eq!(c.cached_dentry_count(), walked, "after {:?}", op);
            }
        }
    }
}
