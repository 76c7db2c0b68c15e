//! The NFS server: an RPC-procedure façade over a server-side
//! [`ext3::Ext3`] instance (the paper's Figure 2(a) stack: network →
//! RPC → NFS server → VFS → ext3 → block → driver).
//!
//! Each procedure charges the server CPU its processing-path cost
//! (twice an iSCSI command's — paper §5.4) and executes against the
//! server file system, whose cache misses consume simulated disk time
//! while the client waits.

use crate::{ClientId, Fh};
use cpu::{CostModel, CpuAccount};
use ext3::{Attr, DirEntry, Ext3, FsResult, SetAttr};
use simkit::units::Bytes;
use simkit::{HostId, StatKey};
use std::rc::Rc;

/// Layer traversals a server buffer-cache miss adds to a procedure: a
/// meta-data miss re-traverses VFS, file system and block (paper §5.4).
const METADATA_REVISITS: u64 = 3;

/// The server-side endpoint shared by all NFS versions.
pub struct NfsServer {
    fs: Ext3,
    cpu: Rc<CpuAccount>,
    cost: CostModel,
    /// Distinct clients that have mounted this server. Per-client
    /// procedure counters are only emitted once more than one client
    /// is registered, so single-client runs register no extra names.
    clients: std::cell::Cell<u32>,
}

impl std::fmt::Debug for NfsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsServer").field("fs", &self.fs).finish()
    }
}

impl NfsServer {
    /// Creates a server exporting `fs`, charging CPU time to `cpu`.
    pub fn new(fs: Ext3, cpu: Rc<CpuAccount>, cost: CostModel) -> NfsServer {
        NfsServer {
            fs,
            cpu,
            cost,
            clients: std::cell::Cell::new(0),
        }
    }

    /// The exported root file handle.
    pub(crate) fn root_fh(&self) -> Fh {
        Fh(self.fs.root())
    }

    /// Direct access to the exported file system (used by tests and by
    /// the experiment harness for server-side checks).
    pub fn fs(&self) -> &Ext3 {
        &self.fs
    }

    /// The server CPU account (Table 9 is derived from it).
    pub fn cpu(&self) -> &Rc<CpuAccount> {
        &self.cpu
    }

    /// Registers a mounting client. Called by `NfsClient::new`; the
    /// count controls whether per-client procedure counters are kept.
    pub(crate) fn register_client(&self, who: ClientId) {
        self.clients.set(self.clients.get().max(who.0 + 1));
    }

    /// Runs one procedure `f`, charging the per-RPC processing path up
    /// front and, afterwards, the extra VFS/file-system/block
    /// traversals caused by server buffer-cache misses — the effect
    /// that drives NFS server CPU up under meta-data workloads that
    /// defeat its cache (paper §5.4, PostMark).
    fn run<T>(
        &self,
        who: ClientId,
        proc_name: &'static str,
        bytes: Bytes,
        f: impl FnOnce(&Ext3) -> FsResult<T>,
    ) -> FsResult<T> {
        let sim = self.fs.sim().clone();
        let counters = sim.counters();
        // Typed keys: the per-RPC path formats and allocates nothing
        // once a series exists.
        let server = StatKey::new("nfs.server");
        counters.incr(server.push("proc").push(proc_name));
        if self.clients.get() > 1 {
            counters.incr(server.host(HostId::client(who.0)).push(proc_name));
        }
        let c = self.cost.nfs_request(bytes);
        self.cpu.charge_tagged(sim.now(), c, "nfs.server");
        // Synchronous RPCs hold the client until the server's
        // processing path completes; asynchronous WRITEs pay this cost
        // at the client's drain rate instead (see the client's write
        // pipeline).
        if proc_name != "write" {
            sim.advance(c);
        }
        let misses_before = self.fs.cache_stats().1;
        let r = f(&self.fs);
        let misses = self.fs.cache_stats().1 - misses_before;
        if misses > 0 {
            let extra = self.cost.layer * (METADATA_REVISITS * misses);
            self.cpu.charge_tagged(sim.now(), extra, "nfs.server");
            if proc_name != "write" {
                sim.advance(extra);
            }
        }
        r
    }

    /// Restarts the server's caches (the paper's cold-cache protocol
    /// restarts the NFS server).
    pub fn drop_caches(&self) {
        let _ = self.fs.drop_caches();
    }

    /// LOOKUP: name → file handle + attributes.
    ///
    /// # Errors
    ///
    /// Mirrors the underlying file-system errors.
    pub(crate) fn lookup(&self, who: ClientId, dir: Fh, name: &str) -> FsResult<(Fh, Attr)> {
        self.run(who, "lookup", Bytes::ZERO, |fs| {
            let ino = fs.lookup(dir.0, name)?;
            Ok((Fh(ino), fs.getattr(ino)?))
        })
    }

    /// GETATTR.
    ///
    /// # Errors
    ///
    /// [`ext3::FsError::NotFound`] on a stale handle.
    pub(crate) fn getattr(&self, who: ClientId, fh: Fh) -> FsResult<Attr> {
        self.run(who, "getattr", Bytes::ZERO, |fs| fs.getattr(fh.0))
    }

    /// SETATTR (chmod/chown/utimes/truncate).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn setattr(&self, who: ClientId, fh: Fh, set: SetAttr) -> FsResult<Attr> {
        self.run(who, "setattr", Bytes::ZERO, |fs| fs.setattr(fh.0, set))
    }

    /// ACCESS (v3+) — permission probe.
    ///
    /// # Errors
    ///
    /// [`ext3::FsError::NotFound`] on a stale handle.
    pub(crate) fn access(&self, who: ClientId, fh: Fh) -> FsResult<Attr> {
        self.run(who, "access", Bytes::ZERO, |fs| fs.getattr(fh.0))
    }

    /// CREATE.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors ([`ext3::FsError::Exists`], ...).
    pub(crate) fn create(
        &self,
        who: ClientId,
        dir: Fh,
        name: &str,
        perm: u16,
    ) -> FsResult<(Fh, Attr)> {
        self.run(who, "create", Bytes::ZERO, |fs| {
            let ino = fs.create(dir.0, name, perm)?;
            Ok((Fh(ino), fs.getattr(ino)?))
        })
    }

    /// MKDIR.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn mkdir(
        &self,
        who: ClientId,
        dir: Fh,
        name: &str,
        perm: u16,
    ) -> FsResult<(Fh, Attr)> {
        self.run(who, "mkdir", Bytes::ZERO, |fs| {
            let ino = fs.mkdir(dir.0, name, perm)?;
            Ok((Fh(ino), fs.getattr(ino)?))
        })
    }

    /// RMDIR.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn rmdir(&self, who: ClientId, dir: Fh, name: &str) -> FsResult<()> {
        self.run(who, "rmdir", Bytes::ZERO, |fs| fs.rmdir(dir.0, name))
    }

    /// REMOVE (unlink).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn remove(&self, who: ClientId, dir: Fh, name: &str) -> FsResult<()> {
        self.run(who, "remove", Bytes::ZERO, |fs| fs.unlink(dir.0, name))
    }

    /// LINK.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn link(&self, who: ClientId, dir: Fh, name: &str, target: Fh) -> FsResult<()> {
        self.run(who, "link", Bytes::ZERO, |fs| {
            fs.link(dir.0, name, target.0)
        })
    }

    /// SYMLINK.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn symlink(&self, who: ClientId, dir: Fh, name: &str, target: &str) -> FsResult<Fh> {
        self.run(who, "symlink", Bytes::ZERO, |fs| {
            Ok(Fh(fs.symlink(dir.0, name, target)?))
        })
    }

    /// READLINK.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn readlink(&self, who: ClientId, fh: Fh) -> FsResult<String> {
        self.run(who, "readlink", Bytes::ZERO, |fs| fs.readlink(fh.0))
    }

    /// RENAME.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn rename(
        &self,
        who: ClientId,
        sdir: Fh,
        sname: &str,
        ddir: Fh,
        dname: &str,
    ) -> FsResult<()> {
        self.run(who, "rename", Bytes::ZERO, |fs| {
            fs.rename(sdir.0, sname, ddir.0, dname)
        })
    }

    /// READDIR.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn readdir(&self, who: ClientId, dir: Fh) -> FsResult<Vec<DirEntry>> {
        self.run(who, "readdir", Bytes::ZERO, |fs| fs.readdir(dir.0))
    }

    /// READ: fills the front of `buf` with up to `buf.len()` bytes and
    /// returns how many. Server cache misses consume simulated disk
    /// time (the client is waiting on this RPC).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn read_into(
        &self,
        who: ClientId,
        fh: Fh,
        off: u64,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        self.run(who, "read", Bytes::new(buf.len() as u64), |fs| {
            fs.read_into(fh.0, off, buf)
        })
    }

    /// WRITE: applied to the server's page cache; stability is the
    /// client's business (v2 waits for a flush, v3 COMMITs later).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn write(&self, who: ClientId, fh: Fh, off: u64, data: &[u8]) -> FsResult<usize> {
        self.run(who, "write", Bytes::new(data.len() as u64), |fs| {
            fs.write(fh.0, off, data)
        })
    }

    /// FSSTAT/STATFS: file-system-wide statistics.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn fsstat(&self, who: ClientId) -> FsResult<ext3::StatFs> {
        self.run(who, "fsstat", Bytes::ZERO, |fs| fs.statfs())
    }

    /// COMMIT (v3): force the written data to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub(crate) fn commit(&self, who: ClientId, fh: Fh) -> FsResult<()> {
        self.run(who, "commit", Bytes::ZERO, |fs| fs.fsync(fh.0))
    }
}
