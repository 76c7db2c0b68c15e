//! The system-call layer of the testbed.
//!
//! Benchmarks (PostMark, the TPC emulations, the shell workloads, and
//! every micro-benchmark) are written against the [`FileSystem`]
//! trait — the sixteen meta-data calls of the paper's Table 1 plus
//! open/read/write/fsync. Two implementations exist:
//!
//! * [`NfsMount`] — the paper's Figure 2(a): calls resolve component
//!   by component through the [`nfs::NfsClient`] caches and become
//!   RPCs;
//! * [`LocalMount`] — Figure 2(b): calls run against a local
//!   [`ext3::Ext3`] whose block device is an iSCSI
//!   `iscsi::RemoteDisk`.
//!
//! Because both mounts implement the same trait, every experiment runs
//! the *identical* workload code over both protocols — the
//! protocol-transparency property the integration tests verify.

use ext3::{Attr, FsError, FsResult, SetAttr};
use nfs::{Fh, NfsClient};
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
    /// Both mounts implement this natively and [`read`](Self::read)
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
    fn statfs(&self) -> FsResult<ext3::StatFs>;
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

// ---------------------------------------------------------------------
// NFS mount
// ---------------------------------------------------------------------

/// A mount of an NFS export (any protocol version).
pub struct NfsMount {
    client: Rc<NfsClient>,
    cwd: Cell<Fh>,
}

impl std::fmt::Debug for NfsMount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsMount")
            .field("cwd", &self.cwd.get())
            .finish()
    }
}

impl NfsMount {
    /// Mounts the export of `client`'s server.
    pub fn new(client: Rc<NfsClient>) -> NfsMount {
        let root = client.root();
        NfsMount {
            client,
            cwd: Cell::new(root),
        }
    }

    /// The protocol client (for cache-dropping and §7 flushes).
    pub fn client(&self) -> &Rc<NfsClient> {
        &self.client
    }

    fn start(&self, path: &str) -> Fh {
        if path.starts_with('/') {
            self.client.root()
        } else {
            self.cwd.get()
        }
    }

    /// Walks `path` from `from`, one LOOKUP per component.
    fn resolve_dir(&self, path: &str, from: Fh) -> FsResult<Fh> {
        components(path).try_fold(from, |cur, c| self.client.lookup(cur, c))
    }

    fn resolve(&self, path: &str) -> FsResult<Fh> {
        self.resolve_dir(path, self.start(path))
    }

    fn resolve_parent<'a>(&self, path: &'a str) -> FsResult<(Fh, &'a str)> {
        let (parent, name) = split_parent(path)?;
        Ok((self.resolve_dir(parent, self.start(path))?, name))
    }

    /// Runs one system call under a root span: every RPC, CPU charge,
    /// and disk access recorded while `f` runs nests under it, and its
    /// start/end bracket the virtual time the call consumed. The op
    /// labels are protocol-qualified (`nfs.read`) so the attribution
    /// table can compare the two protocols at the same workload.
    fn traced<T>(&self, op: &'static str, f: impl FnOnce() -> T) -> T {
        let sim = Rc::clone(self.client.sim());
        let tracer = sim.tracer();
        let ctx = tracer.open_span(Some(self.client.trace_host()));
        let start = sim.now();
        let out = f();
        tracer.close_span(ctx, "vfs", op, start, sim.now(), Vec::new());
        out
    }
}

impl FileSystem for NfsMount {
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.traced("nfs.mkdir", || {
            let (dir, name) = self.resolve_parent(path)?;
            self.client.mkdir(dir, name, 0o755).map(|_| ())
        })
    }

    fn chdir(&self, path: &str) -> FsResult<()> {
        self.traced("nfs.chdir", || {
            let fh = self.resolve(path)?;
            self.cwd.set(fh);
            Ok(())
        })
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.traced("nfs.readdir", || {
            let fh = self.resolve(path)?;
            Ok(self
                .client
                .readdir(fh)?
                .into_iter()
                .map(|e| e.name)
                .collect())
        })
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.traced("nfs.rmdir", || {
            let (dir, name) = self.resolve_parent(path)?;
            self.client.rmdir(dir, name)
        })
    }

    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()> {
        self.traced("nfs.symlink", || {
            let (dir, name) = self.resolve_parent(linkpath)?;
            self.client.symlink(dir, name, target).map(|_| ())
        })
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        self.traced("nfs.readlink", || {
            let fh = self.resolve(path)?;
            self.client.readlink(fh)
        })
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.traced("nfs.unlink", || {
            let (dir, name) = self.resolve_parent(path)?;
            self.client.unlink(dir, name)
        })
    }

    fn creat(&self, path: &str) -> FsResult<()> {
        self.traced("nfs.creat", || {
            let (dir, name) = self.resolve_parent(path)?;
            self.client.create(dir, name, 0o644).map(|_| ())
        })
    }

    fn open(&self, path: &str) -> FsResult<Fd> {
        self.traced("nfs.open", || {
            let fh = self.resolve(path)?;
            let of = self.client.open(fh)?;
            Ok(Fd(of.fh.0 as u64))
        })
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.traced("nfs.close", || {
            self.client.close(Fh(fd.0 as u32));
            Ok(())
        })
    }

    fn link(&self, existing: &str, newpath: &str) -> FsResult<()> {
        self.traced("nfs.link", || {
            let target = self.resolve(existing)?;
            let (dir, name) = self.resolve_parent(newpath)?;
            self.client.link(dir, name, target)
        })
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.traced("nfs.rename", || {
            let (sdir, sname) = self.resolve_parent(from)?;
            let (ddir, dname) = self.resolve_parent(to)?;
            self.client.rename(sdir, sname, ddir, dname)
        })
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.traced("nfs.truncate", || {
            let fh = self.resolve(path)?;
            self.client
                .setattr(
                    fh,
                    SetAttr {
                        size: Some(size),
                        ..SetAttr::default()
                    },
                    "trunc",
                )
                .map(|_| ())
        })
    }

    fn chmod(&self, path: &str, perm: u16) -> FsResult<()> {
        self.traced("nfs.chmod", || {
            let fh = self.resolve(path)?;
            self.client
                .setattr(
                    fh,
                    SetAttr {
                        perm: Some(perm),
                        ..SetAttr::default()
                    },
                    "chmod",
                )
                .map(|_| ())
        })
    }

    fn chown(&self, path: &str, uid: u32, gid: u32) -> FsResult<()> {
        self.traced("nfs.chown", || {
            let fh = self.resolve(path)?;
            self.client
                .setattr(
                    fh,
                    SetAttr {
                        uid: Some(uid),
                        gid: Some(gid),
                        ..SetAttr::default()
                    },
                    "chown",
                )
                .map(|_| ())
        })
    }

    fn access(&self, path: &str) -> FsResult<()> {
        self.traced("nfs.access", || {
            let fh = self.resolve(path)?;
            self.client.access(fh).map(|_| ())
        })
    }

    fn stat(&self, path: &str) -> FsResult<Attr> {
        self.traced("nfs.stat", || {
            let fh = self.resolve(path)?;
            self.client.getattr_revalidate(fh)
        })
    }

    fn utime(&self, path: &str) -> FsResult<()> {
        self.traced("nfs.utime", || {
            let fh = self.resolve(path)?;
            let now = 0; // SETATTR carries the server's time in practice
            self.client
                .setattr(
                    fh,
                    SetAttr {
                        atime: Some(now),
                        mtime: Some(now),
                        ..SetAttr::default()
                    },
                    "utime",
                )
                .map(|_| ())
        })
    }

    fn read(&self, fd: Fd, off: u64, len: usize) -> FsResult<Vec<u8>> {
        ext3::read_to_vec(len, |buf| self.read_into(fd, off, buf))
    }

    fn read_into(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.traced("nfs.read", || {
            self.client.read_into(Fh(fd.0 as u32), off, buf)
        })
    }

    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        self.traced("nfs.write", || {
            self.client.write(Fh(fd.0 as u32), off, data)
        })
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.traced("nfs.fsync", || self.client.commit(Fh(fd.0 as u32)))
    }

    fn statfs(&self) -> FsResult<ext3::StatFs> {
        self.traced("nfs.statfs", || self.client.statfs())
    }
}

// ---------------------------------------------------------------------
// Local (iSCSI-backed) mount
// ---------------------------------------------------------------------

/// A mount of a local ext3 file system — in the testbed, ext3 over an
/// iSCSI remote disk. Charges the client CPU the full local-filesystem
/// processing path per call (the paper's Table 10 effect).
pub struct LocalMount {
    fs: Rc<ext3::Ext3>,
    cwd: Cell<ext3::Ino>,
    cpu: Rc<cpu::CpuAccount>,
    cost: cpu::CostModel,
    /// Machine this mount's system calls run on, for trace
    /// attribution (client 0 unless the topology says otherwise).
    host: Cell<simkit::HostId>,
}

impl std::fmt::Debug for LocalMount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalMount")
            .field("cwd", &self.cwd.get())
            .finish()
    }
}

impl LocalMount {
    /// Mounts `fs`, charging per-syscall CPU to `cpu`.
    pub fn new(fs: Rc<ext3::Ext3>, cpu: Rc<cpu::CpuAccount>, cost: cpu::CostModel) -> LocalMount {
        let root = fs.root();
        LocalMount {
            fs,
            cwd: Cell::new(root),
            cpu,
            cost,
            host: Cell::new(simkit::HostId::client(0)),
        }
    }

    /// The underlying file system.
    pub fn fs(&self) -> &Rc<ext3::Ext3> {
        &self.fs
    }

    /// Sets the machine this mount is attributed to in traces.
    pub fn set_trace_host(&self, host: simkit::HostId) {
        self.host.set(host);
    }

    fn charge(&self) {
        let c = self.cost.iscsi_client_syscall();
        self.cpu.charge_tagged(self.fs.sim().now(), c, "vfs.local");
        // Local-filesystem processing happens on the client CPU, in
        // line with the calling application.
        self.fs.sim().advance(c);
    }

    fn charge_data(&self) {
        let c = self.cost.data_syscall();
        self.cpu.charge_tagged(self.fs.sim().now(), c, "vfs.local");
        self.fs.sim().advance(c);
    }

    fn start(&self, path: &str) -> ext3::Ino {
        if path.starts_with('/') {
            self.fs.root()
        } else {
            self.cwd.get()
        }
    }

    /// Walks `path` from `from`, one directory lookup per component.
    fn resolve_dir(&self, path: &str, from: ext3::Ino) -> FsResult<ext3::Ino> {
        components(path).try_fold(from, |cur, c| self.fs.lookup(cur, c))
    }

    fn resolve(&self, path: &str) -> FsResult<ext3::Ino> {
        self.resolve_dir(path, self.start(path))
    }

    fn resolve_parent<'a>(&self, path: &'a str) -> FsResult<(ext3::Ino, &'a str)> {
        let (parent, name) = split_parent(path)?;
        Ok((self.resolve_dir(parent, self.start(path))?, name))
    }

    /// See [`NfsMount`]'s `traced`: brackets one system call with a
    /// root span so client CPU charges and remote CDBs nest under it.
    fn traced<T>(&self, op: &'static str, f: impl FnOnce() -> T) -> T {
        let sim = Rc::clone(self.fs.sim());
        let tracer = sim.tracer();
        let ctx = tracer.open_span(Some(self.host.get()));
        let start = sim.now();
        let out = f();
        tracer.close_span(ctx, "vfs", op, start, sim.now(), Vec::new());
        out
    }
}

impl FileSystem for LocalMount {
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.traced("iscsi.mkdir", || {
            self.charge();
            let (dir, name) = self.resolve_parent(path)?;
            self.fs.mkdir(dir, name, 0o755).map(|_| ())
        })
    }

    fn chdir(&self, path: &str) -> FsResult<()> {
        self.traced("iscsi.chdir", || {
            self.charge();
            let ino = self.resolve(path)?;
            let attr = self.fs.getattr(ino)?;
            if attr.ftype != ext3::FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            self.cwd.set(ino);
            Ok(())
        })
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.traced("iscsi.readdir", || {
            self.charge();
            let ino = self.resolve(path)?;
            Ok(self.fs.readdir(ino)?.into_iter().map(|e| e.name).collect())
        })
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.traced("iscsi.rmdir", || {
            self.charge();
            let (dir, name) = self.resolve_parent(path)?;
            self.fs.rmdir(dir, name)
        })
    }

    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()> {
        self.traced("iscsi.symlink", || {
            self.charge();
            let (dir, name) = self.resolve_parent(linkpath)?;
            self.fs.symlink(dir, name, target).map(|_| ())
        })
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        self.traced("iscsi.readlink", || {
            self.charge();
            let ino = self.resolve(path)?;
            self.fs.readlink(ino)
        })
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.traced("iscsi.unlink", || {
            self.charge();
            let (dir, name) = self.resolve_parent(path)?;
            self.fs.unlink(dir, name)
        })
    }

    fn creat(&self, path: &str) -> FsResult<()> {
        self.traced("iscsi.creat", || {
            self.charge();
            let (dir, name) = self.resolve_parent(path)?;
            self.fs.create(dir, name, 0o644).map(|_| ())
        })
    }

    fn open(&self, path: &str) -> FsResult<Fd> {
        self.traced("iscsi.open", || {
            self.charge();
            let ino = self.resolve(path)?;
            let _ = self.fs.getattr(ino)?;
            Ok(Fd(ino as u64))
        })
    }

    fn close(&self, _fd: Fd) -> FsResult<()> {
        self.traced("iscsi.close", || Ok(()))
    }

    fn link(&self, existing: &str, newpath: &str) -> FsResult<()> {
        self.traced("iscsi.link", || {
            self.charge();
            let target = self.resolve(existing)?;
            let (dir, name) = self.resolve_parent(newpath)?;
            self.fs.link(dir, name, target)
        })
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.traced("iscsi.rename", || {
            self.charge();
            let (sdir, sname) = self.resolve_parent(from)?;
            let (ddir, dname) = self.resolve_parent(to)?;
            self.fs.rename(sdir, sname, ddir, dname)
        })
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.traced("iscsi.truncate", || {
            self.charge();
            let ino = self.resolve(path)?;
            self.fs
                .setattr(
                    ino,
                    SetAttr {
                        size: Some(size),
                        ..SetAttr::default()
                    },
                )
                .map(|_| ())
        })
    }

    fn chmod(&self, path: &str, perm: u16) -> FsResult<()> {
        self.traced("iscsi.chmod", || {
            self.charge();
            let ino = self.resolve(path)?;
            self.fs
                .setattr(
                    ino,
                    SetAttr {
                        perm: Some(perm),
                        ..SetAttr::default()
                    },
                )
                .map(|_| ())
        })
    }

    fn chown(&self, path: &str, uid: u32, gid: u32) -> FsResult<()> {
        self.traced("iscsi.chown", || {
            self.charge();
            let ino = self.resolve(path)?;
            self.fs
                .setattr(
                    ino,
                    SetAttr {
                        uid: Some(uid),
                        gid: Some(gid),
                        ..SetAttr::default()
                    },
                )
                .map(|_| ())
        })
    }

    fn access(&self, path: &str) -> FsResult<()> {
        self.traced("iscsi.access", || {
            self.charge();
            let ino = self.resolve(path)?;
            self.fs.getattr(ino).map(|_| ())
        })
    }

    fn stat(&self, path: &str) -> FsResult<Attr> {
        self.traced("iscsi.stat", || {
            self.charge();
            let ino = self.resolve(path)?;
            self.fs.getattr(ino)
        })
    }

    fn utime(&self, path: &str) -> FsResult<()> {
        self.traced("iscsi.utime", || {
            self.charge();
            let ino = self.resolve(path)?;
            let now = self.fs.sim().now().as_nanos();
            self.fs
                .setattr(
                    ino,
                    SetAttr {
                        atime: Some(now),
                        mtime: Some(now),
                        ..SetAttr::default()
                    },
                )
                .map(|_| ())
        })
    }

    fn read(&self, fd: Fd, off: u64, len: usize) -> FsResult<Vec<u8>> {
        ext3::read_to_vec(len, |buf| self.read_into(fd, off, buf))
    }

    fn read_into(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.traced("iscsi.read", || {
            self.charge_data();
            self.fs.read_into(fd.0 as u32, off, buf)
        })
    }

    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        self.traced("iscsi.write", || {
            self.charge_data();
            self.fs.write(fd.0 as u32, off, data)
        })
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.traced("iscsi.fsync", || {
            self.charge();
            self.fs.fsync(fd.0 as u32)
        })
    }

    fn statfs(&self) -> FsResult<ext3::StatFs> {
        self.traced("iscsi.statfs", || {
            self.charge();
            self.fs.statfs()
        })
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
