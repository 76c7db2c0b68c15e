//! File operations: lookup, create/unlink, mkdir/rmdir, link/symlink,
//! rename, read/write with read-ahead, truncate, and attributes.
//!
//! Every operation charges its device time (cache misses) and client
//! CPU time (page copies) to the simulation clock via
//! [`Ext3::with_op`](crate::Ext3), and tags modified meta-data blocks
//! into the running journal transaction — the write-back asynchrony
//! and update aggregation at the heart of the paper's iSCSI results.

use crate::cache::DirtyKind;
use crate::dir;
use crate::error::{FsError, FsResult};
use crate::fs::*;
use crate::layout::*;
use blockdev::{BlockNo, BLOCK_SIZE};

pub use crate::dir::DirEntry;

const BS: u64 = BLOCK_SIZE as u64;
const PPB: u64 = PTRS_PER_BLOCK as u64;

impl crate::Ext3 {
    /// Finds `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if absent, [`FsError::NotADirectory`] if
    /// `dir` is not a directory.
    pub fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.with_op(|inner, st| {
            inner.count(Op::Lookup);
            let (ino, _) = find_entry(inner, st, dir, name)?;
            Ok(ino)
        })
    }

    /// Returns the attributes of `ino`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the inode is free.
    pub fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        self.with_op(|inner, st| {
            inner.count(Op::Getattr);
            let inode = live_inode(inner, st, ino)?;
            attr_of(ino, &inode)
        })
    }

    /// Applies attribute changes; a `size` change truncates or
    /// extends (sparsely) the file.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] when truncating a directory.
    pub fn setattr(&self, ino: Ino, set: SetAttr) -> FsResult<Attr> {
        self.with_op(|inner, st| {
            inner.count(Op::Setattr);
            let mut inode = live_inode(inner, st, ino)?;
            if let Some(size) = set.size {
                if inode.file_type()? == FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                truncate_inode(inner, st, &mut inode, size)?;
            }
            if let Some(p) = set.perm {
                inode.mode = (inode.mode & 0o170000) | (p & 0o7777);
            }
            if let Some(u) = set.uid {
                inode.uid = u;
            }
            if let Some(g) = set.gid {
                inode.gid = g;
            }
            if let Some(a) = set.atime {
                inode.atime = a;
            }
            if let Some(m) = set.mtime {
                inode.mtime = m;
            }
            inode.ctime = inner.now_ns();
            write_inode(inner, st, ino, &inode)?;
            attr_of(ino, &inode)
        })
    }

    /// Creates a regular file. Fails with [`FsError::Exists`] if the
    /// name is taken.
    pub fn create(&self, dir: Ino, name: &str, perm: u16) -> FsResult<Ino> {
        self.with_op(|inner, st| {
            inner.count(Op::Create);
            dir::check_name(name)?;
            must_not_exist(inner, st, dir, name)?;
            let ino = alloc_inode(inner, st, group_of_ino(dir))?;
            let inode = Inode::new(FileType::Regular, perm, inner.now_ns());
            write_inode(inner, st, ino, &inode)?;
            add_entry(inner, st, dir, name, ino, FileType::Regular)?;
            Ok(ino)
        })
    }

    /// Creates a directory (with `.` and `..`).
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`], [`FsError::NoSpace`], or
    /// [`FsError::TooManyLinks`] if the parent is at `LINK_MAX`.
    pub fn mkdir(&self, dir: Ino, name: &str, perm: u16) -> FsResult<Ino> {
        self.with_op(|inner, st| {
            inner.count(Op::Mkdir);
            dir::check_name(name)?;
            must_not_exist(inner, st, dir, name)?;
            let parent = live_inode(inner, st, dir)?;
            if parent.links >= LINK_MAX {
                return Err(FsError::TooManyLinks);
            }
            let ino = alloc_dir_inode(inner, st, dir)?;
            let blk = alloc_block(inner, st, group_of_ino(ino))?;
            let mut img = [0u8; BLOCK_SIZE];
            dir::init_block(&mut img);
            dir::insert(&mut img, ".", ino, FileType::Directory);
            dir::insert(&mut img, "..", dir, FileType::Directory);
            binstall(inner, st, blk, &img, DirtyKind::Meta);
            let mut inode = Inode::new(FileType::Directory, perm, inner.now_ns());
            inode.links = 2;
            inode.size = BS;
            inode.nblocks = 1;
            inode.block[0] = blk as u32;
            write_inode(inner, st, ino, &inode)?;
            add_entry(inner, st, dir, name, ino, FileType::Directory)?;
            // Reload the parent: add_entry may have grown the directory
            // by a block, and writing back the copy loaded above would
            // clobber the new block pointer and size (lost every 204th
            // entry before large-directory topologies exposed it).
            let mut parent = live_inode(inner, st, dir)?;
            parent.links += 1;
            parent.mtime = inner.now_ns();
            write_inode(inner, st, dir, &parent)?;
            Ok(ino)
        })
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`] if it still holds entries,
    /// [`FsError::NotADirectory`] if the name is not a directory.
    pub fn rmdir(&self, dir: Ino, name: &str) -> FsResult<()> {
        self.with_op(|inner, st| {
            inner.count(Op::Rmdir);
            let (ino, _) = find_entry(inner, st, dir, name)?;
            let inode = live_inode(inner, st, ino)?;
            if inode.file_type()? != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            if !dir_is_empty(inner, st, &inode)? {
                return Err(FsError::NotEmpty);
            }
            remove_entry(inner, st, dir, name)?;
            // Free the directory's blocks and inode.
            let mut doomed = inode.clone();
            truncate_dir_blocks(inner, st, &mut doomed)?;
            free_inode(inner, st, ino)?;
            let mut parent = live_inode(inner, st, dir)?;
            parent.links -= 1;
            parent.mtime = inner.now_ns();
            write_inode(inner, st, dir, &parent)?;
            Ok(())
        })
    }

    /// Removes a non-directory name; frees the inode when its last
    /// link goes away.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories.
    pub fn unlink(&self, dir: Ino, name: &str) -> FsResult<()> {
        self.with_op(|inner, st| {
            inner.count(Op::Unlink);
            let (ino, _) = find_entry(inner, st, dir, name)?;
            let mut inode = live_inode(inner, st, ino)?;
            if inode.file_type()? == FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            remove_entry(inner, st, dir, name)?;
            inode.links -= 1;
            if inode.links == 0 {
                if inode.file_type()? == FileType::Regular {
                    truncate_inode(inner, st, &mut inode, 0)?;
                }
                readahead_forget(st, ino);
                free_inode(inner, st, ino)?;
            } else {
                inode.ctime = inner.now_ns();
                write_inode(inner, st, ino, &inode)?;
            }
            Ok(())
        })
    }

    /// Creates a hard link `dir/name` to `target`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] (no directory hard links),
    /// [`FsError::TooManyLinks`], [`FsError::Exists`].
    pub fn link(&self, dir: Ino, name: &str, target: Ino) -> FsResult<()> {
        self.with_op(|inner, st| {
            inner.count(Op::Link);
            dir::check_name(name)?;
            let mut inode = live_inode(inner, st, target)?;
            let ftype = inode.file_type()?;
            if ftype == FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            if inode.links >= LINK_MAX {
                return Err(FsError::TooManyLinks);
            }
            must_not_exist(inner, st, dir, name)?;
            add_entry(inner, st, dir, name, target, ftype)?;
            inode.links += 1;
            inode.ctime = inner.now_ns();
            write_inode(inner, st, target, &inode)
        })
    }

    /// Creates a symbolic link with the given target text.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`], [`FsError::InvalidArgument`] for an empty
    /// or over-long target.
    pub fn symlink(&self, dir: Ino, name: &str, target: &str) -> FsResult<Ino> {
        self.with_op(|inner, st| {
            inner.count(Op::Symlink);
            dir::check_name(name)?;
            if target.is_empty() || target.len() >= BLOCK_SIZE {
                return Err(FsError::InvalidArgument);
            }
            must_not_exist(inner, st, dir, name)?;
            let ino = alloc_inode(inner, st, group_of_ino(dir))?;
            let mut inode = Inode::new(FileType::Symlink, 0o777, inner.now_ns());
            if target.len() <= FAST_SYMLINK_MAX {
                inode.set_fast_symlink_target(target);
            } else {
                let blk = alloc_block(inner, st, group_of_ino(ino))?;
                let mut img = [0u8; BLOCK_SIZE];
                img[..target.len()].copy_from_slice(target.as_bytes());
                binstall(inner, st, blk, &img, DirtyKind::Meta);
                inode.block[0] = blk as u32;
                inode.size = target.len() as u64;
                inode.nblocks = 1;
            }
            write_inode(inner, st, ino, &inode)?;
            add_entry(inner, st, dir, name, ino, FileType::Symlink)?;
            Ok(ino)
        })
    }

    /// Reads a symlink's target (updates atime, as Linux does).
    ///
    /// # Errors
    ///
    /// [`FsError::NotASymlink`] for other types.
    pub fn readlink(&self, ino: Ino) -> FsResult<String> {
        self.with_op(|inner, st| {
            inner.count(Op::Readlink);
            let mut inode = live_inode(inner, st, ino)?;
            if inode.file_type()? != FileType::Symlink {
                return Err(FsError::NotASymlink);
            }
            let target = if inode.nblocks == 0 {
                inode.fast_symlink_target()?
            } else {
                let img = bread(inner, st, inode.block[0] as BlockNo)?;
                String::from_utf8_lossy(&img[..inode.size as usize]).into_owned()
            };
            inode.atime = inner.now_ns();
            write_inode(inner, st, ino, &inode)?;
            Ok(target)
        })
    }

    /// Renames `sdir/sname` to `ddir/dname`, replacing a compatible
    /// existing destination (POSIX semantics).
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`] when replacing a non-empty directory;
    /// [`FsError::NotADirectory`]/[`FsError::IsADirectory`] on type
    /// mismatches.
    pub fn rename(&self, sdir: Ino, sname: &str, ddir: Ino, dname: &str) -> FsResult<()> {
        self.with_op(|inner, st| {
            inner.count(Op::Rename);
            dir::check_name(dname)?;
            let (sino, _) = find_entry(inner, st, sdir, sname)?;
            let sinode = live_inode(inner, st, sino)?;
            let sftype = sinode.file_type()?;
            // A directory must not move into its own subtree (the
            // classic rename cycle check).
            if sftype == FileType::Directory && sdir != ddir {
                let mut cur = ddir;
                loop {
                    if cur == sino {
                        return Err(FsError::InvalidArgument);
                    }
                    if cur == ROOT_INO {
                        break;
                    }
                    let (parent, _) = find_entry(inner, st, cur, "..")?;
                    if parent == cur {
                        break;
                    }
                    cur = parent;
                }
            }
            // Deal with an existing destination.
            if let Ok((dino, _)) = find_entry(inner, st, ddir, dname) {
                if dino == sino {
                    return Ok(()); // same object: no-op
                }
                let dinode = live_inode(inner, st, dino)?;
                match (sftype, dinode.file_type()?) {
                    (FileType::Directory, FileType::Directory) => {
                        if !dir_is_empty(inner, st, &dinode)? {
                            return Err(FsError::NotEmpty);
                        }
                        remove_entry(inner, st, ddir, dname)?;
                        let mut doomed = dinode.clone();
                        truncate_dir_blocks(inner, st, &mut doomed)?;
                        free_inode(inner, st, dino)?;
                        let mut dp = live_inode(inner, st, ddir)?;
                        dp.links -= 1;
                        write_inode(inner, st, ddir, &dp)?;
                    }
                    (FileType::Directory, _) => return Err(FsError::NotADirectory),
                    (_, FileType::Directory) => return Err(FsError::IsADirectory),
                    _ => {
                        remove_entry(inner, st, ddir, dname)?;
                        let mut di = dinode.clone();
                        di.links -= 1;
                        if di.links == 0 {
                            if di.file_type()? == FileType::Regular {
                                truncate_inode(inner, st, &mut di, 0)?;
                            }
                            free_inode(inner, st, dino)?;
                        } else {
                            write_inode(inner, st, dino, &di)?;
                        }
                    }
                }
            }
            remove_entry(inner, st, sdir, sname)?;
            add_entry(inner, st, ddir, dname, sino, sftype)?;
            // A moved directory's ".." must point at its new parent.
            if sftype == FileType::Directory && sdir != ddir {
                let blk = sinode.block[0] as BlockNo;
                bmodify(inner, st, blk, DirtyKind::Meta, |b| {
                    dir::replace(b, "..", ddir, FileType::Directory);
                })?;
                let mut sp = live_inode(inner, st, sdir)?;
                sp.links -= 1;
                write_inode(inner, st, sdir, &sp)?;
                let mut dp = live_inode(inner, st, ddir)?;
                dp.links += 1;
                write_inode(inner, st, ddir, &dp)?;
            }
            Ok(())
        })
    }

    /// Lists a directory (excluding unused slots; `.`/`..` included).
    /// Updates the directory's atime.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`].
    pub fn readdir(&self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        self.with_op(|inner, st| {
            inner.count(Op::Readdir);
            let mut inode = live_inode(inner, st, dir)?;
            if inode.file_type()? != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            let mut out = Vec::new();
            for fb in 0..inode.size / BS {
                if let Some(bno) = bmap(inner, st, &inode, fb)? {
                    out.extend(dir::entries(bread(inner, st, bno)?));
                }
            }
            inode.atime = inner.now_ns();
            write_inode(inner, st, dir, &inode)?;
            Ok(out)
        })
    }

    /// Reads up to `buf.len()` bytes at `off` into the front of `buf`
    /// and returns how many; short reads happen at EOF. Sequential
    /// access triggers read-ahead; atime is updated.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories,
    /// [`FsError::InvalidArgument`] if the range ends past `u64::MAX`.
    pub fn read_into(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.with_op(|inner, st| {
            inner.count(Op::Read);
            let mut inode = live_inode(inner, st, ino)?;
            if inode.file_type()? == FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            let end = off
                .checked_add(buf.len() as u64)
                .ok_or(FsError::InvalidArgument)?
                .min(inode.size);
            if off >= end {
                return Ok(0);
            }
            let buf = &mut buf[..(end - off) as usize];
            let first = off / BS;
            let last = (end - 1) / BS;
            prefetch_range(inner, st, ino, &inode, first, last)?;
            let mut filled = 0usize;
            for fb in first..=last {
                let within_start = if fb == first { (off % BS) as usize } else { 0 };
                let within_end = if fb == last {
                    ((end - 1) % BS) as usize + 1
                } else {
                    BLOCK_SIZE
                };
                let dst = &mut buf[filled..filled + (within_end - within_start)];
                match bmap(inner, st, &inode, fb)? {
                    Some(bno) => {
                        dst.copy_from_slice(&bread(inner, st, bno)?[within_start..within_end])
                    }
                    None => dst.fill(0),
                }
                filled += dst.len();
                inner.charge_cpu(inner.opts.mem_copy_cost);
            }
            readahead_advance(st, ino, last + 1);
            inode.atime = inner.now_ns();
            write_inode(inner, st, ino, &inode)?;
            Ok(filled)
        })
    }

    /// [`read_into`](Self::read_into) a fresh `Vec` of at most `len`
    /// bytes.
    ///
    /// # Errors
    ///
    /// As [`read_into`](Self::read_into).
    pub fn read(&self, ino: Ino, off: u64, len: usize) -> FsResult<Vec<u8>> {
        crate::read_to_vec(len, |buf| self.read_into(ino, off, buf))
    }

    /// Writes `data` at `off`, extending the file as needed. Data
    /// pages go dirty in the cache; the write returns as soon as the
    /// pages are dirtied (write-back caching), except when the dirty
    /// limit throttles the writer.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`], [`FsError::NoSpace`],
    /// [`FsError::InvalidArgument`] if the range ends past `u64::MAX`.
    pub fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        self.with_op(|inner, st| {
            inner.count(Op::Write);
            let mut inode = live_inode(inner, st, ino)?;
            if inode.file_type()? == FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            if data.is_empty() {
                return Ok(0);
            }
            let end = off
                .checked_add(data.len() as u64)
                .ok_or(FsError::InvalidArgument)?;
            let first = off / BS;
            let last = (end - 1) / BS;
            let mut written = 0usize;
            for fb in first..=last {
                let within_start = if fb == first { (off % BS) as usize } else { 0 };
                let within_end = if fb == last {
                    ((end - 1) % BS) as usize + 1
                } else {
                    BLOCK_SIZE
                };
                let chunk = &data[written..written + (within_end - within_start)];
                let partial = within_start != 0 || within_end != BLOCK_SIZE;
                let existing = bmap(inner, st, &inode, fb)?;
                let bno = match existing {
                    Some(b) => {
                        if partial && !st.cache.contains(b) {
                            bread(inner, st, b)?; // read-modify-write
                        }
                        b
                    }
                    None => bmap_alloc(inner, st, ino, &mut inode, fb)?,
                };
                let resident = st.cache.modify(bno, DirtyKind::Data, |b| {
                    b[within_start..within_end].copy_from_slice(chunk);
                });
                if !resident {
                    if within_start == 0 {
                        // Straight from the caller's slice, tail zero-padded.
                        st.cache.insert(bno, chunk, DirtyKind::Data);
                    } else {
                        let mut img = [0u8; BLOCK_SIZE];
                        img[within_start..within_end].copy_from_slice(chunk);
                        st.cache.insert(bno, &img, DirtyKind::Data);
                    }
                }
                written += chunk.len();
                inner.charge_cpu(inner.opts.mem_copy_cost);
            }
            if end > inode.size {
                inode.size = end;
            }
            inode.mtime = inner.now_ns();
            inode.ctime = inode.mtime;
            write_inode(inner, st, ino, &inode)?;
            maybe_throttle(inner, st);
            Ok(written)
        })
    }

    /// Flushes this file's dirty data and the journal to stable
    /// storage (foreground). Only the named inode's pages are written,
    /// as in a real `fsync`.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn fsync(&self, ino: Ino) -> FsResult<()> {
        self.with_op(|inner, st| {
            commit_journal(inner, st)?;
            // Collect this inode's dirty data blocks.
            let inode = live_inode(inner, st, ino)?;
            let nblocks = inode.size.div_ceil(BS);
            let mut dirty = BlockList::take();
            for fb in 0..nblocks {
                if let Some(bno) = bmap(inner, st, &inode, fb)? {
                    if st.cache.dirty_kind(bno) == DirtyKind::Data {
                        dirty.push(bno);
                    }
                }
            }
            dirty.sort_unstable();
            for (start, len) in merge_runs(dirty.iter().copied()) {
                write_back_run(inner, st, start, len)?;
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------
// Internal helpers
// ---------------------------------------------------------------------

fn attr_of(ino: Ino, inode: &Inode) -> FsResult<Attr> {
    Ok(Attr {
        ino,
        ftype: inode.file_type()?,
        perm: inode.mode & 0o7777,
        links: inode.links,
        uid: inode.uid,
        gid: inode.gid,
        size: inode.size,
        atime: inode.atime,
        mtime: inode.mtime,
        ctime: inode.ctime,
        nblocks: inode.nblocks,
    })
}

fn live_inode(inner: &Inner, st: &mut State, ino: Ino) -> FsResult<Inode> {
    let inode = read_inode(inner, st, ino)?;
    if inode.is_free() {
        return Err(FsError::NotFound);
    }
    Ok(inode)
}

fn must_not_exist(inner: &Inner, st: &mut State, dir: Ino, name: &str) -> FsResult<()> {
    match find_entry(inner, st, dir, name) {
        Ok(_) => Err(FsError::Exists),
        Err(FsError::NotFound) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Locates `name` in `dir`: `(inode, block holding the entry)`.
fn find_entry(inner: &Inner, st: &mut State, dir: Ino, name: &str) -> FsResult<(Ino, BlockNo)> {
    let inode = live_inode(inner, st, dir)?;
    if inode.file_type()? != FileType::Directory {
        return Err(FsError::NotADirectory);
    }
    for fb in 0..inode.size / BS {
        if let Some(bno) = bmap(inner, st, &inode, fb)? {
            if let Some((ino, _)) = dir::find(bread(inner, st, bno)?, name) {
                return Ok((ino, bno));
            }
        }
    }
    Err(FsError::NotFound)
}

fn add_entry(
    inner: &Inner,
    st: &mut State,
    dir: Ino,
    name: &str,
    ino: Ino,
    ftype: FileType,
) -> FsResult<()> {
    let mut dnode = live_inode(inner, st, dir)?;
    if dnode.file_type()? != FileType::Directory {
        return Err(FsError::NotADirectory);
    }
    for fb in 0..dnode.size / BS {
        if let Some(bno) = bmap(inner, st, &dnode, fb)? {
            let mut inserted = false;
            bmodify(inner, st, bno, DirtyKind::Meta, |b| {
                inserted = dir::insert(b, name, ino, ftype);
            })?;
            if inserted {
                let mut dnode = live_inode(inner, st, dir)?;
                dnode.mtime = inner.now_ns();
                write_inode(inner, st, dir, &dnode)?;
                return Ok(());
            }
        }
    }
    // All blocks full: grow the directory.
    let fb = dnode.size / BS;
    let bno = bmap_alloc(inner, st, dir, &mut dnode, fb)?;
    let mut img = [0u8; BLOCK_SIZE];
    dir::init_block(&mut img);
    let ok = dir::insert(&mut img, name, ino, ftype);
    debug_assert!(ok);
    binstall(inner, st, bno, &img, DirtyKind::Meta);
    dnode.size = (fb + 1) * BS;
    dnode.mtime = inner.now_ns();
    write_inode(inner, st, dir, &dnode)
}

fn remove_entry(inner: &Inner, st: &mut State, dir: Ino, name: &str) -> FsResult<Ino> {
    let (_, bno) = find_entry(inner, st, dir, name)?;
    let mut removed = None;
    bmodify(inner, st, bno, DirtyKind::Meta, |b| {
        removed = dir::remove(b, name);
    })?;
    let ino = removed.ok_or(FsError::NotFound)?;
    let mut dnode = live_inode(inner, st, dir)?;
    dnode.mtime = inner.now_ns();
    write_inode(inner, st, dir, &dnode)?;
    Ok(ino)
}

fn dir_is_empty(inner: &Inner, st: &mut State, inode: &Inode) -> FsResult<bool> {
    for fb in 0..inode.size / BS {
        if let Some(bno) = bmap(inner, st, inode, fb)? {
            if !dir::is_effectively_empty(bread(inner, st, bno)?) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Maps a file block to a device block (`None` = hole).
///
/// # Errors
///
/// [`FsError::Corrupt`] if a pointer on the way lies past the volume.
pub(crate) fn bmap(
    inner: &Inner,
    st: &mut State,
    inode: &Inode,
    fblock: u64,
) -> FsResult<Option<BlockNo>> {
    let nd = N_DIRECT as u64;
    if fblock < nd {
        return block_ptr(st, inode.block[fblock as usize]);
    }
    let fblock = fblock - nd;
    if fblock < PPB {
        let Some(ind) = block_ptr(st, inode.block[N_DIRECT])? else {
            return Ok(None);
        };
        let p = read_ptr(bread(inner, st, ind)?, fblock as usize);
        return block_ptr(st, p);
    }
    let fblock = fblock - PPB;
    if fblock < PPB * PPB {
        let Some(dind) = block_ptr(st, inode.block[N_DIRECT + 1])? else {
            return Ok(None);
        };
        let i1 = read_ptr(bread(inner, st, dind)?, (fblock / PPB) as usize);
        let Some(i1) = block_ptr(st, i1)? else {
            return Ok(None);
        };
        let p = read_ptr(bread(inner, st, i1)?, (fblock % PPB) as usize);
        return block_ptr(st, p);
    }
    Err(FsError::InvalidArgument)
}

/// An on-disk block pointer as a device block: `None` for 0 (a hole),
/// [`FsError::Corrupt`] at or past the end of the volume. Every pointer
/// `bmap` and `bmap_alloc` follow passes through here, so no caller can
/// cache, or write back to, a block the device does not have.
fn block_ptr(st: &State, p: u32) -> FsResult<Option<BlockNo>> {
    match p as BlockNo {
        0 => Ok(None),
        b if b >= st.sb.blocks_count => Err(FsError::Corrupt("block pointer past end of volume")),
        b => Ok(Some(b)),
    }
}

/// Maps a file block, allocating data and pointer blocks as needed.
fn bmap_alloc(
    inner: &Inner,
    st: &mut State,
    ino: Ino,
    inode: &mut Inode,
    fblock: u64,
) -> FsResult<BlockNo> {
    let g = group_of_ino(ino);
    let nd = N_DIRECT as u64;
    if fblock < nd {
        if let Some(p) = block_ptr(st, inode.block[fblock as usize])? {
            return Ok(p);
        }
        let b = alloc_block(inner, st, g)?;
        inode.block[fblock as usize] = b as u32;
        inode.nblocks += 1;
        write_inode(inner, st, ino, inode)?;
        return Ok(b);
    }
    let rel = fblock - nd;
    if rel < PPB {
        if block_ptr(st, inode.block[N_DIRECT])?.is_none() {
            let b = alloc_block(inner, st, g)?;
            binstall(inner, st, b, &[0u8; BLOCK_SIZE], DirtyKind::Meta);
            inode.block[N_DIRECT] = b as u32;
            inode.nblocks += 1;
            write_inode(inner, st, ino, inode)?;
        }
        let ind = inode.block[N_DIRECT] as BlockNo;
        return alloc_in_ptr_block(inner, st, ino, inode, ind, rel as usize, g);
    }
    let rel = rel - PPB;
    if rel < PPB * PPB {
        if block_ptr(st, inode.block[N_DIRECT + 1])?.is_none() {
            let b = alloc_block(inner, st, g)?;
            binstall(inner, st, b, &[0u8; BLOCK_SIZE], DirtyKind::Meta);
            inode.block[N_DIRECT + 1] = b as u32;
            inode.nblocks += 1;
            write_inode(inner, st, ino, inode)?;
        }
        let dind = inode.block[N_DIRECT + 1] as BlockNo;
        let i1_idx = (rel / PPB) as usize;
        let p = read_ptr(bread(inner, st, dind)?, i1_idx);
        let i1 = match block_ptr(st, p)? {
            Some(i1) => i1,
            None => {
                let i1 = alloc_block(inner, st, g)?;
                binstall(inner, st, i1, &[0u8; BLOCK_SIZE], DirtyKind::Meta);
                let val = i1 as u32;
                bmodify(inner, st, dind, DirtyKind::Meta, |b| {
                    write_ptr(b, i1_idx, val);
                })?;
                inode.nblocks += 1;
                write_inode(inner, st, ino, inode)?;
                i1
            }
        };
        return alloc_in_ptr_block(inner, st, ino, inode, i1, (rel % PPB) as usize, g);
    }
    Err(FsError::InvalidArgument)
}

fn alloc_in_ptr_block(
    inner: &Inner,
    st: &mut State,
    ino: Ino,
    inode: &mut Inode,
    ptr_block: BlockNo,
    idx: usize,
    g: u32,
) -> FsResult<BlockNo> {
    let p = read_ptr(bread(inner, st, ptr_block)?, idx);
    if let Some(p) = block_ptr(st, p)? {
        return Ok(p);
    }
    let b = alloc_block(inner, st, g)?;
    let val = b as u32;
    bmodify(inner, st, ptr_block, DirtyKind::Meta, |blk| {
        write_ptr(blk, idx, val);
    })?;
    inode.nblocks += 1;
    write_inode(inner, st, ino, inode)?;
    Ok(b)
}

fn read_ptr(img: &[u8; BLOCK_SIZE], idx: usize) -> u32 {
    u32::from_le_bytes(img[idx * 4..idx * 4 + 4].try_into().unwrap())
}

/// The non-zero pointers of a pointer block, as `(index, pointer)` in
/// index order.
fn live_ptrs(img: &[u8; BLOCK_SIZE]) -> Vec<(usize, u32)> {
    (0..PTRS_PER_BLOCK)
        .map(|i| (i, read_ptr(img, i)))
        .filter(|&(_, p)| p != 0)
        .collect()
}

fn write_ptr(img: &mut [u8; BLOCK_SIZE], idx: usize, val: u32) {
    img[idx * 4..idx * 4 + 4].copy_from_slice(&val.to_le_bytes());
}

/// Ensures the device blocks behind file blocks `[first, last]` are
/// cached, plus a read-ahead window beyond `last` when the stream is
/// sequential. Uncached contiguous device runs are fetched as single
/// commands — this merging is what keeps small-file cold reads at a
/// couple of iSCSI messages in the paper's Figure 5.
fn prefetch_range(
    inner: &Inner,
    st: &mut State,
    ino: Ino,
    inode: &Inode,
    first: u64,
    last: u64,
) -> FsResult<()> {
    let window = readahead_window(st, ino, first, inner.opts.readahead_max) as u64;
    let file_blocks = inode.size.div_ceil(BS);
    if file_blocks == 0 {
        return Ok(());
    }
    let fetch_last = (last + window - 1).min(file_blocks - 1);
    // The largest merged read command the block layer will build.
    let max_run = (inner.opts.readahead_max as u64).clamp(1, 64);
    let mut run: Option<(u64, u64)> = None; // (device start, len)
    let mut fb = first;
    while fb <= fetch_last {
        let dev_block = match bmap(inner, st, inode, fb)? {
            Some(b) => b,
            None => {
                fb += 1;
                flush_run(inner, st, &mut run)?;
                continue;
            }
        };
        let resident =
            st.cache.contains(dev_block) || st.journal.pending_image(dev_block).is_some();
        if resident {
            if !st.cache.contains(dev_block) {
                bread(inner, st, dev_block)?; // promote pinned journal image
            }
            flush_run(inner, st, &mut run)?;
            fb += 1;
            continue;
        }
        match run {
            Some((start, len)) if start + len == dev_block && len < max_run => {
                run = Some((start, len + 1));
            }
            Some(_) => {
                flush_run(inner, st, &mut run)?;
                run = Some((dev_block, 1));
            }
            None => run = Some((dev_block, 1)),
        }
        fb += 1;
    }
    flush_run(inner, st, &mut run)
}

/// Issues one merged device read for the pending run and bills its
/// whole device time to the caller, read-ahead blocks included.
fn flush_run(inner: &Inner, st: &mut State, run: &mut Option<(u64, u64)>) -> FsResult<()> {
    let Some((start, len)) = run.take() else {
        return Ok(());
    };
    let bytes = (len as usize) * BLOCK_SIZE;
    let mut gather = Gather::take();
    if gather.len() < bytes {
        gather.resize(bytes, 0);
    }
    let buf = &mut gather[..bytes];
    let cost = inner.dev.read(start, len as u32, buf)?;
    inner.charge(cost);
    for (bno, img) in (start..).zip(buf.chunks_exact(BLOCK_SIZE)) {
        st.cache.insert_clean(bno, img);
    }
    Ok(())
}

/// Frees all blocks beyond `new_size` and updates size/nblocks.
fn truncate_inode(inner: &Inner, st: &mut State, inode: &mut Inode, new_size: u64) -> FsResult<()> {
    let keep = new_size.div_ceil(BS);
    let nd = N_DIRECT as u64;
    // Zero the kept tail of a partial last block so a later extension
    // reads zeros, not stale bytes (POSIX truncate semantics).
    if new_size < inode.size && !new_size.is_multiple_of(BS) {
        if let Some(bno) = bmap(inner, st, inode, keep - 1)? {
            let from = (new_size % BS) as usize;
            bmodify(inner, st, bno, DirtyKind::Data, |b| {
                b[from..].fill(0);
            })?;
        }
    }
    // Direct blocks.
    for fb in keep..nd {
        let p = inode.block[fb as usize];
        if p != 0 {
            free_block(inner, st, p as BlockNo)?;
            inode.block[fb as usize] = 0;
            inode.nblocks -= 1;
        }
    }
    // Single indirect.
    if inode.block[N_DIRECT] != 0 {
        let ind = inode.block[N_DIRECT] as BlockNo;
        let start = keep.saturating_sub(nd).min(PPB);
        let freed_all = free_ptr_range(inner, st, ind, start as usize, inode)?;
        if keep <= nd && freed_all {
            free_block(inner, st, ind)?;
            inode.block[N_DIRECT] = 0;
            inode.nblocks -= 1;
        }
    }
    // Double indirect.
    if inode.block[N_DIRECT + 1] != 0 {
        let dind = inode.block[N_DIRECT + 1] as BlockNo;
        let base = nd + PPB;
        let segments = live_ptrs(bread(inner, st, dind)?);
        let mut any_left = false;
        for (i1, p1) in segments {
            let seg_start = base + (i1 as u64) * PPB;
            let start = keep.saturating_sub(seg_start).min(PPB);
            let freed_all = free_ptr_range(inner, st, p1 as BlockNo, start as usize, inode)?;
            if keep <= seg_start && freed_all {
                free_block(inner, st, p1 as BlockNo)?;
                inode.nblocks -= 1;
                let idx = i1;
                bmodify(inner, st, dind, DirtyKind::Meta, |b| {
                    write_ptr(b, idx, 0);
                })?;
            } else {
                any_left = true;
            }
        }
        if keep <= nd + PPB && !any_left {
            free_block(inner, st, dind)?;
            inode.block[N_DIRECT + 1] = 0;
            inode.nblocks -= 1;
        }
    }
    inode.size = new_size;
    inode.mtime = inner.now_ns();
    Ok(())
}

/// Frees pointers `[start, PPB)` of a pointer block; returns true if
/// the block ends up with no pointers at all.
fn free_ptr_range(
    inner: &Inner,
    st: &mut State,
    ptr_block: BlockNo,
    start: usize,
    inode: &mut Inode,
) -> FsResult<bool> {
    let mut to_free = live_ptrs(bread(inner, st, ptr_block)?);
    let any_left = to_free.first().is_some_and(|&(i, _)| i < start);
    to_free.retain(|&(i, _)| i >= start);
    for &(i, p) in &to_free {
        free_block(inner, st, p as BlockNo)?;
        inode.nblocks -= 1;
        bmodify(inner, st, ptr_block, DirtyKind::Meta, |b| {
            write_ptr(b, i, 0);
        })?;
    }
    Ok(!any_left)
}

/// Frees a directory's (direct-only, in practice small) block list.
fn truncate_dir_blocks(inner: &Inner, st: &mut State, inode: &mut Inode) -> FsResult<()> {
    truncate_inode(inner, st, inode, 0)
}
