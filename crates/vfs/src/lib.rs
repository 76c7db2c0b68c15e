//! The system-call layer of the testbed.
//!
//! Benchmarks (PostMark, the TPC emulations, the shell workloads, and
//! every micro-benchmark) are written against the [`FileSystem`]
//! trait: 23 calls — the 17 path calls whose messages the paper's
//! Table 2 counts (Table 1's sixteen plus `rename`), the descriptor
//! calls `close`, `read`, `read_into`, `write` and `fsync`, and
//! `statfs`.
//!
//! One type implements it: [`Mount`], written over the inode-level
//! [`InodeOps`] seam (lookup by directory and name, reads and writes by
//! inode, as in a kernel VFS). Path resolution, the working directory,
//! the per-call root span and the client CPU charge live in the mount,
//! once. Two file systems implement the seam:
//!
//! * [`NfsMount`] (`Mount<NfsClient>`) — the paper's Figure 2(a):
//!   calls resolve component by component through the
//!   [`nfs::NfsClient`] caches and become RPCs;
//! * [`LocalMount`] (`Mount<Ext3>`) — Figure 2(b): calls run against a
//!   local [`ext3::Ext3`] whose block device is an iSCSI
//!   `iscsi::RemoteDisk`.
//!
//! Because both mounts are the same code over the same trait, every
//! experiment runs the *identical* workload code over both protocols —
//! the protocol-transparency property the integration tests verify.

use cpu::{CostModel, CpuAccount};
use ext3::{Attr, DirEntry, Ext3, FsError, FsResult, SetAttr, StatFs};
use nfs::{Fh, NfsClient};
use simkit::{HostId, Sim};
use std::cell::Cell;
use std::rc::Rc;

/// An open-file descriptor returned by [`FileSystem::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u64);

/// The system-call interface exercised by all workloads.
///
/// Paths are `/`-separated; relative paths resolve against the mount's
/// current working directory (set by [`chdir`](FileSystem::chdir)).
pub trait FileSystem {
    /// Creates a directory (paper syscall: `mkdir`).
    fn mkdir(&self, path: &str) -> FsResult<()>;
    /// Changes the working directory (`chdir`).
    fn chdir(&self, path: &str) -> FsResult<()>;
    /// Lists a directory (`readdir`); returns names.
    fn readdir(&self, path: &str) -> FsResult<Vec<String>>;
    /// Removes an empty directory (`rmdir`).
    fn rmdir(&self, path: &str) -> FsResult<()>;
    /// Creates a symlink at `linkpath` pointing to `target` (`symlink`).
    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()>;
    /// Reads a symlink (`readlink`).
    fn readlink(&self, path: &str) -> FsResult<String>;
    /// Removes a file name (`unlink`).
    fn unlink(&self, path: &str) -> FsResult<()>;
    /// Creates a regular file (`creat`).
    fn creat(&self, path: &str) -> FsResult<()>;
    /// Opens an existing file (`open`).
    fn open(&self, path: &str) -> FsResult<Fd>;
    /// Closes a descriptor.
    fn close(&self, fd: Fd) -> FsResult<()>;
    /// Creates a hard link `newpath` → `existing` (`link`).
    fn link(&self, existing: &str, newpath: &str) -> FsResult<()>;
    /// Renames (`rename`).
    fn rename(&self, from: &str, to: &str) -> FsResult<()>;
    /// Truncates to `size` (`truncate`).
    fn truncate(&self, path: &str, size: u64) -> FsResult<()>;
    /// Changes permission bits (`chmod`).
    fn chmod(&self, path: &str, perm: u16) -> FsResult<()>;
    /// Changes ownership (`chown`).
    fn chown(&self, path: &str, uid: u32, gid: u32) -> FsResult<()>;
    /// Permission probe (`access`).
    fn access(&self, path: &str) -> FsResult<()>;
    /// File attributes (`stat`).
    fn stat(&self, path: &str) -> FsResult<Attr>;
    /// Sets access/modification times to now (`utime`).
    fn utime(&self, path: &str) -> FsResult<()>;
    /// Reads from an open file.
    fn read(&self, fd: Fd, off: u64, len: usize) -> FsResult<Vec<u8>>;
    /// Reads from an open file into the front of a buffer the caller
    /// owns; returns how many bytes (fewer than `buf.len()` at EOF).
    /// [`Mount`] implements this natively and [`read`](Self::read)
    /// over it; the default is for implementors that only have `read`.
    fn read_into(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let data = self.read(fd, off, buf.len())?;
        buf[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }
    /// Writes to an open file.
    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize>;
    /// Flushes a file to stable storage.
    fn fsync(&self, fd: Fd) -> FsResult<()>;
    /// File-system-wide statistics (`statfs`).
    fn statfs(&self) -> FsResult<StatFs>;
}

/// Declares the traced system calls once: the `Op` enum and, indexed
/// by it, each protocol's root-span labels `<protocol>.<call>` —
/// `&'static str`, so tracing a call allocates nothing.
macro_rules! syscalls {
    ($($op:ident $call:literal,)*) => {
        /// One root span per system call; `read` and `read_into` share
        /// `Read`.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            $($op,)*
        }
        const NFS_LABELS: &[&str] = &[$(concat!("nfs.", $call),)*];
        const ISCSI_LABELS: &[&str] = &[$(concat!("iscsi.", $call),)*];
    };
}

syscalls! {
    Mkdir "mkdir", Chdir "chdir", Readdir "readdir", Rmdir "rmdir",
    Symlink "symlink", Readlink "readlink", Unlink "unlink", Creat "creat",
    Open "open", Close "close", Link "link", Rename "rename",
    Truncate "truncate", Chmod "chmod", Chown "chown", Access "access",
    Stat "stat", Utime "utime", Read "read", Write "write", Fsync "fsync",
    Statfs "statfs",
}

/// The inode-level operations a [`Mount`] is written over: everything
/// it needs below path resolution. [`NfsClient`] implements them as
/// (cached) RPCs, [`Ext3`] as local calls; almost every method forwards
/// to the inherent method of the same name.
pub trait InodeOps {
    /// An inode (ext3) or file handle (NFS). Its number is also the
    /// descriptor [`FileSystem::open`] returns.
    type Ino: Copy + std::fmt::Debug + From<u32> + Into<u32>;
    /// The root span's label for each system call, `<protocol>.<call>`.
    const SPAN_LABELS: &'static [&'static str];

    /// The root directory.
    fn root(&self) -> Self::Ino;
    /// The simulation the calls run in.
    fn sim(&self) -> &Rc<Sim>;
    /// The machine system calls are attributed to in traces.
    fn trace_host(&self) -> HostId;
    /// Looks `name` up in `dir`.
    fn lookup(&self, dir: Self::Ino, name: &str) -> FsResult<Self::Ino>;
    /// Creates directory `name` in `dir`.
    fn mkdir(&self, dir: Self::Ino, name: &str, perm: u16) -> FsResult<Self::Ino>;
    /// Creates regular file `name` in `dir`.
    fn create(&self, dir: Self::Ino, name: &str, perm: u16) -> FsResult<Self::Ino>;
    /// Removes empty directory `name` from `dir`.
    fn rmdir(&self, dir: Self::Ino, name: &str) -> FsResult<()>;
    /// Removes non-directory `name` from `dir`.
    fn unlink(&self, dir: Self::Ino, name: &str) -> FsResult<()>;
    /// Adds `name` in `dir` as a hard link to `target`.
    fn link(&self, dir: Self::Ino, name: &str, target: Self::Ino) -> FsResult<()>;
    /// Creates symlink `name` in `dir` pointing to `target`.
    fn symlink(&self, dir: Self::Ino, name: &str, target: &str) -> FsResult<Self::Ino>;
    /// The target of a symlink.
    fn readlink(&self, ino: Self::Ino) -> FsResult<String>;
    /// Moves `sname` in `sdir` to `dname` in `ddir`.
    fn rename(&self, sdir: Self::Ino, sname: &str, ddir: Self::Ino, dname: &str) -> FsResult<()>;
    /// The entries of a directory.
    fn readdir(&self, dir: Self::Ino) -> FsResult<Vec<DirEntry>>;
    /// Applies `set`; `op` names the calling syscall in NFS message
    /// counts (ext3 ignores it).
    fn setattr(&self, ino: Self::Ino, set: SetAttr, op: &'static str) -> FsResult<Attr>;
    /// Attributes as `stat` sees them.
    fn stat(&self, ino: Self::Ino) -> FsResult<Attr>;
    /// Permission probe.
    fn access(&self, ino: Self::Ino) -> FsResult<Attr>;
    /// Opens a file.
    fn open(&self, ino: Self::Ino) -> FsResult<()>;
    /// Closes a file.
    fn close(&self, ino: Self::Ino);
    /// Reads into the front of `buf`; returns how many bytes.
    fn read_into(&self, ino: Self::Ino, off: u64, buf: &mut [u8]) -> FsResult<usize>;
    /// Writes `data` at `off`.
    fn write(&self, ino: Self::Ino, off: u64, data: &[u8]) -> FsResult<usize>;
    /// Makes a file's data stable.
    fn fsync(&self, ino: Self::Ino) -> FsResult<()>;
    /// File-system-wide statistics.
    fn statfs(&self) -> FsResult<StatFs>;
    /// What `chdir` checks of its target beyond resolving it.
    fn check_dir(&self, ino: Self::Ino) -> FsResult<()>;
    /// The time `utime` stamps.
    fn utime_stamp(&self) -> u64;
}

// Inherent methods take precedence over trait methods, so each
// `self.name(..)` below forwards instead of recursing.

impl InodeOps for NfsClient {
    type Ino = Fh;
    const SPAN_LABELS: &'static [&'static str] = NFS_LABELS;

    fn root(&self) -> Fh {
        self.root()
    }
    fn sim(&self) -> &Rc<Sim> {
        self.sim()
    }
    fn trace_host(&self) -> HostId {
        self.trace_host()
    }
    fn lookup(&self, dir: Fh, name: &str) -> FsResult<Fh> {
        self.lookup(dir, name)
    }
    fn mkdir(&self, dir: Fh, name: &str, perm: u16) -> FsResult<Fh> {
        self.mkdir(dir, name, perm)
    }
    fn create(&self, dir: Fh, name: &str, perm: u16) -> FsResult<Fh> {
        self.create(dir, name, perm)
    }
    fn rmdir(&self, dir: Fh, name: &str) -> FsResult<()> {
        self.rmdir(dir, name)
    }
    fn unlink(&self, dir: Fh, name: &str) -> FsResult<()> {
        self.unlink(dir, name)
    }
    fn link(&self, dir: Fh, name: &str, target: Fh) -> FsResult<()> {
        self.link(dir, name, target)
    }
    fn symlink(&self, dir: Fh, name: &str, target: &str) -> FsResult<Fh> {
        self.symlink(dir, name, target)
    }
    fn readlink(&self, fh: Fh) -> FsResult<String> {
        self.readlink(fh)
    }
    fn rename(&self, sdir: Fh, sname: &str, ddir: Fh, dname: &str) -> FsResult<()> {
        self.rename(sdir, sname, ddir, dname)
    }
    fn readdir(&self, dir: Fh) -> FsResult<Vec<DirEntry>> {
        self.readdir(dir)
    }
    fn setattr(&self, fh: Fh, set: SetAttr, op: &'static str) -> FsResult<Attr> {
        self.setattr(fh, set, op)
    }
    fn stat(&self, fh: Fh) -> FsResult<Attr> {
        self.getattr_revalidate(fh)
    }
    fn access(&self, fh: Fh) -> FsResult<Attr> {
        self.access(fh)
    }
    fn open(&self, fh: Fh) -> FsResult<()> {
        self.open(fh).map(drop)
    }
    fn close(&self, fh: Fh) {
        self.close(fh)
    }
    fn read_into(&self, fh: Fh, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.read_into(fh, off, buf)
    }
    fn write(&self, fh: Fh, off: u64, data: &[u8]) -> FsResult<usize> {
        self.write(fh, off, data)
    }
    fn fsync(&self, fh: Fh) -> FsResult<()> {
        self.commit(fh)
    }
    fn statfs(&self) -> FsResult<StatFs> {
        self.statfs()
    }
    /// Nothing: the LOOKUPs that resolved it are all the client sends.
    fn check_dir(&self, _: Fh) -> FsResult<()> {
        Ok(())
    }
    /// 0: SETATTR carries the server's time in practice.
    fn utime_stamp(&self) -> u64 {
        0
    }
}

impl InodeOps for Ext3 {
    type Ino = ext3::Ino;
    const SPAN_LABELS: &'static [&'static str] = ISCSI_LABELS;

    fn root(&self) -> ext3::Ino {
        self.root()
    }
    fn sim(&self) -> &Rc<Sim> {
        self.sim()
    }
    fn trace_host(&self) -> HostId {
        self.trace_host()
    }
    fn lookup(&self, dir: ext3::Ino, name: &str) -> FsResult<ext3::Ino> {
        self.lookup(dir, name)
    }
    fn mkdir(&self, dir: ext3::Ino, name: &str, perm: u16) -> FsResult<ext3::Ino> {
        self.mkdir(dir, name, perm)
    }
    fn create(&self, dir: ext3::Ino, name: &str, perm: u16) -> FsResult<ext3::Ino> {
        self.create(dir, name, perm)
    }
    fn rmdir(&self, dir: ext3::Ino, name: &str) -> FsResult<()> {
        self.rmdir(dir, name)
    }
    fn unlink(&self, dir: ext3::Ino, name: &str) -> FsResult<()> {
        self.unlink(dir, name)
    }
    fn link(&self, dir: ext3::Ino, name: &str, target: ext3::Ino) -> FsResult<()> {
        self.link(dir, name, target)
    }
    fn symlink(&self, dir: ext3::Ino, name: &str, target: &str) -> FsResult<ext3::Ino> {
        self.symlink(dir, name, target)
    }
    fn readlink(&self, ino: ext3::Ino) -> FsResult<String> {
        self.readlink(ino)
    }
    fn rename(&self, sdir: ext3::Ino, sname: &str, ddir: ext3::Ino, dname: &str) -> FsResult<()> {
        self.rename(sdir, sname, ddir, dname)
    }
    fn readdir(&self, dir: ext3::Ino) -> FsResult<Vec<DirEntry>> {
        self.readdir(dir)
    }
    fn setattr(&self, ino: ext3::Ino, set: SetAttr, _: &'static str) -> FsResult<Attr> {
        self.setattr(ino, set)
    }
    fn stat(&self, ino: ext3::Ino) -> FsResult<Attr> {
        self.getattr(ino)
    }
    fn access(&self, ino: ext3::Ino) -> FsResult<Attr> {
        self.getattr(ino)
    }
    fn open(&self, ino: ext3::Ino) -> FsResult<()> {
        self.getattr(ino).map(drop)
    }
    fn close(&self, _: ext3::Ino) {}
    fn read_into(&self, ino: ext3::Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.read_into(ino, off, buf)
    }
    fn write(&self, ino: ext3::Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        self.write(ino, off, data)
    }
    fn fsync(&self, ino: ext3::Ino) -> FsResult<()> {
        self.fsync(ino)
    }
    fn statfs(&self) -> FsResult<StatFs> {
        self.statfs()
    }
    /// The inode must be a directory.
    fn check_dir(&self, ino: ext3::Ino) -> FsResult<()> {
        match self.getattr(ino)?.ftype {
            ext3::FileType::Directory => Ok(()),
            _ => Err(FsError::NotADirectory),
        }
    }
    /// The simulated now.
    fn utime_stamp(&self) -> u64 {
        self.sim().now().as_nanos()
    }
}

/// The components of a path in order, skipping empty segments and `.`.
fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty() && *c != ".")
}

/// Splits into `(parent path, final name)`. The parent loses the
/// separator before the name and may be empty: whether the walk starts
/// at the root is read off the whole path, not off the parent.
///
/// # Errors
///
/// [`FsError::InvalidName`] for paths with no final component.
fn split_parent(path: &str) -> FsResult<(&str, &str)> {
    let mut rest = path;
    // Trailing separators and `.` segments are not the name: peel them.
    while !rest.is_empty() {
        let (parent, last) = rest.rsplit_once('/').unwrap_or(("", rest));
        if !last.is_empty() && last != "." {
            return Ok((parent, last));
        }
        rest = parent;
    }
    Err(FsError::InvalidName)
}

/// A mounted file system: paths, the working directory and descriptors
/// over an [`InodeOps`] implementation.
pub struct Mount<I: InodeOps> {
    fs: Rc<I>,
    cwd: Cell<I::Ino>,
    /// Client CPU the mount charges per call: a local file system's
    /// processing runs on the client, in line with the caller (the
    /// paper's Table 10 effect). `None` over NFS, whose client charges
    /// its own CPU inside each call.
    cpu: Option<(Rc<CpuAccount>, CostModel)>,
}

/// A mount of an NFS export (any protocol version).
pub type NfsMount = Mount<NfsClient>;

/// A mount of a local ext3 file system — in the testbed, ext3 over an
/// iSCSI remote disk. Charges the client CPU the full local-filesystem
/// processing path per call.
pub type LocalMount = Mount<Ext3>;

impl<I: InodeOps> std::fmt::Debug for Mount<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mount")
            .field("cwd", &self.cwd.get())
            .finish()
    }
}

impl NfsMount {
    /// Mounts the export of `client`'s server.
    pub fn new(client: Rc<NfsClient>) -> NfsMount {
        Mount::over(client, None)
    }
}

impl LocalMount {
    /// Mounts `fs`, charging per-syscall CPU to `cpu`.
    pub fn new(fs: Rc<Ext3>, cpu: Rc<CpuAccount>, cost: CostModel) -> LocalMount {
        Mount::over(fs, Some((cpu, cost)))
    }
}

impl<I: InodeOps> Mount<I> {
    fn over(fs: Rc<I>, cpu: Option<(Rc<CpuAccount>, CostModel)>) -> Mount<I> {
        Mount {
            cwd: Cell::new(fs.root()),
            fs,
            cpu,
        }
    }

    /// The file system under the mount: the NFS client (cache dropping,
    /// §7 flushes) or the local ext3 (sync, unmount).
    pub fn inner(&self) -> &Rc<I> {
        &self.fs
    }

    fn start(&self, path: &str) -> I::Ino {
        if path.starts_with('/') {
            self.fs.root()
        } else {
            self.cwd.get()
        }
    }

    /// Walks `path` from `from`, one lookup per component.
    fn resolve_dir(&self, path: &str, from: I::Ino) -> FsResult<I::Ino> {
        components(path).try_fold(from, |cur, c| self.fs.lookup(cur, c))
    }

    fn resolve(&self, path: &str) -> FsResult<I::Ino> {
        self.resolve_dir(path, self.start(path))
    }

    fn resolve_parent<'a>(&self, path: &'a str) -> FsResult<(I::Ino, &'a str)> {
        let (parent, name) = split_parent(path)?;
        Ok((self.resolve_dir(parent, self.start(path))?, name))
    }

    /// The inode behind a descriptor; a number no `open` could have
    /// returned is [`FsError::InvalidArgument`].
    fn descriptor(fd: Fd) -> FsResult<I::Ino> {
        u32::try_from(fd.0)
            .map(I::Ino::from)
            .map_err(|_| FsError::InvalidArgument)
    }

    /// Charges the mount's own CPU cost of `op`, if it has one: nothing
    /// for `close`, the data path for reads and writes, the whole local
    /// file-system path otherwise.
    fn charge(&self, op: Op) {
        let Some((cpu, cost)) = &self.cpu else { return };
        let busy = match op {
            Op::Close => return,
            Op::Read | Op::Write => cost.data_syscall(),
            _ => cost.iscsi_client_syscall(),
        };
        let sim = self.fs.sim();
        cpu.charge_tagged(sim.now(), busy, "vfs.local");
        sim.advance(busy);
    }

    /// Runs one system call under a root span: every RPC, CPU charge,
    /// and disk access recorded while `f` runs nests under it, and its
    /// start/end bracket the virtual time the call consumed. The op
    /// labels are protocol-qualified (`nfs.read`) so the attribution
    /// table can compare the two protocols at the same workload. The
    /// mount's CPU charge comes first, before any path resolution.
    fn traced<T>(&self, op: Op, f: impl FnOnce() -> T) -> T {
        let sim = Rc::clone(self.fs.sim());
        let tracer = sim.tracer();
        let ctx = tracer.open_span(Some(self.fs.trace_host()));
        let start = sim.now();
        self.charge(op);
        let out = f();
        let label = I::SPAN_LABELS[op as usize];
        tracer.close_span(ctx, "vfs", label, start, sim.now(), Vec::new());
        out
    }

    /// `truncate`, `chmod` and `chown`: resolve, then one SETATTR.
    fn set(&self, op: Op, path: &str, set: SetAttr, label: &'static str) -> FsResult<()> {
        self.traced(op, || {
            let ino = self.resolve(path)?;
            self.fs.setattr(ino, set, label).map(drop)
        })
    }
}

impl<I: InodeOps> FileSystem for Mount<I> {
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.traced(Op::Mkdir, || {
            let (dir, name) = self.resolve_parent(path)?;
            self.fs.mkdir(dir, name, 0o755).map(drop)
        })
    }

    fn chdir(&self, path: &str) -> FsResult<()> {
        self.traced(Op::Chdir, || {
            let ino = self.resolve(path)?;
            self.fs.check_dir(ino)?;
            self.cwd.set(ino);
            Ok(())
        })
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.traced(Op::Readdir, || {
            let ino = self.resolve(path)?;
            Ok(self.fs.readdir(ino)?.into_iter().map(|e| e.name).collect())
        })
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.traced(Op::Rmdir, || {
            let (dir, name) = self.resolve_parent(path)?;
            self.fs.rmdir(dir, name)
        })
    }

    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()> {
        self.traced(Op::Symlink, || {
            let (dir, name) = self.resolve_parent(linkpath)?;
            self.fs.symlink(dir, name, target).map(drop)
        })
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        self.traced(Op::Readlink, || self.fs.readlink(self.resolve(path)?))
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.traced(Op::Unlink, || {
            let (dir, name) = self.resolve_parent(path)?;
            self.fs.unlink(dir, name)
        })
    }

    fn creat(&self, path: &str) -> FsResult<()> {
        self.traced(Op::Creat, || {
            let (dir, name) = self.resolve_parent(path)?;
            self.fs.create(dir, name, 0o644).map(drop)
        })
    }

    fn open(&self, path: &str) -> FsResult<Fd> {
        self.traced(Op::Open, || {
            let ino = self.resolve(path)?;
            self.fs.open(ino)?;
            let n: u32 = ino.into();
            Ok(Fd(n.into()))
        })
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.traced(Op::Close, || {
            self.fs.close(Self::descriptor(fd)?);
            Ok(())
        })
    }

    fn link(&self, existing: &str, newpath: &str) -> FsResult<()> {
        self.traced(Op::Link, || {
            let target = self.resolve(existing)?;
            let (dir, name) = self.resolve_parent(newpath)?;
            self.fs.link(dir, name, target)
        })
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.traced(Op::Rename, || {
            let (sdir, sname) = self.resolve_parent(from)?;
            let (ddir, dname) = self.resolve_parent(to)?;
            self.fs.rename(sdir, sname, ddir, dname)
        })
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let set = SetAttr {
            size: Some(size),
            ..SetAttr::default()
        };
        self.set(Op::Truncate, path, set, "trunc")
    }

    fn chmod(&self, path: &str, perm: u16) -> FsResult<()> {
        let set = SetAttr {
            perm: Some(perm),
            ..SetAttr::default()
        };
        self.set(Op::Chmod, path, set, "chmod")
    }

    fn chown(&self, path: &str, uid: u32, gid: u32) -> FsResult<()> {
        let set = SetAttr {
            uid: Some(uid),
            gid: Some(gid),
            ..SetAttr::default()
        };
        self.set(Op::Chown, path, set, "chown")
    }

    fn access(&self, path: &str) -> FsResult<()> {
        self.traced(Op::Access, || self.fs.access(self.resolve(path)?).map(drop))
    }

    fn stat(&self, path: &str) -> FsResult<Attr> {
        self.traced(Op::Stat, || self.fs.stat(self.resolve(path)?))
    }

    fn utime(&self, path: &str) -> FsResult<()> {
        self.traced(Op::Utime, || {
            let ino = self.resolve(path)?;
            // Stamped after the walk: over ext3 it is the time now.
            let now = self.fs.utime_stamp();
            let set = SetAttr {
                atime: Some(now),
                mtime: Some(now),
                ..SetAttr::default()
            };
            self.fs.setattr(ino, set, "utime").map(drop)
        })
    }

    fn read(&self, fd: Fd, off: u64, len: usize) -> FsResult<Vec<u8>> {
        ext3::read_to_vec(len, |buf| self.read_into(fd, off, buf))
    }

    fn read_into(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.traced(Op::Read, || {
            self.fs.read_into(Self::descriptor(fd)?, off, buf)
        })
    }

    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        self.traced(Op::Write, || {
            self.fs.write(Self::descriptor(fd)?, off, data)
        })
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.traced(Op::Fsync, || self.fs.fsync(Self::descriptor(fd)?))
    }

    fn statfs(&self) -> FsResult<StatFs> {
        self.traced(Op::Statfs, || self.fs.statfs())
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_parse() {
        let list = |p| components(p).collect::<Vec<_>>();
        assert_eq!(list("/a/b/c"), ["a", "b", "c"]);
        assert_eq!(list("a//b/"), ["a", "b"]);
        assert_eq!(list("/"), Vec::<&str>::new());
        assert_eq!(list("./a/./b"), ["a", "b"]);
    }

    #[test]
    fn split_parent_works() {
        assert_eq!(split_parent("/a/b/c").unwrap(), ("/a/b", "c"));
        assert_eq!(split_parent("f").unwrap(), ("", "f"));
        assert_eq!(split_parent("/f").unwrap(), ("", "f"));
        // Trailing separators and `.` segments are not the name.
        assert_eq!(split_parent("a//b/./").unwrap(), ("a/", "b"));
        for nameless in ["/", "", ".", "/./"] {
            assert_eq!(split_parent(nameless), Err(FsError::InvalidName));
        }
    }
}
