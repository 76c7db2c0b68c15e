//! Consistency checker used by the crash-recovery property tests.
//!
//! Walks the directory tree from the root, accounting every reachable
//! inode and block, and cross-checks the allocation bitmaps and link
//! counts. After a crash plus journal replay the file system must pass
//! `fsck` — uncommitted updates may be lost (the paper's §2.3
//! persistence caveat) but never leave dangling state.

use crate::alloc;
use crate::dir;
use crate::error::FsResult;
use crate::fs::*;
use crate::layout::*;
use crate::ops::bmap;
use blockdev::{BlockNo, BLOCK_SIZE};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Outcome of a consistency check.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Human-readable inconsistencies; empty means the volume is
    /// consistent.
    pub errors: Vec<String>,
    /// Reachable inodes.
    pub inodes: u64,
    /// Blocks referenced by reachable inodes (data + pointer blocks).
    pub blocks: u64,
}

impl FsckReport {
    /// True if no inconsistencies were found.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl crate::Ext3 {
    /// Runs a full-volume consistency check.
    ///
    /// # Errors
    ///
    /// Returns an error only for I/O failures; *inconsistencies* are
    /// reported in the [`FsckReport`].
    pub fn fsck(&self) -> FsResult<FsckReport> {
        self.with_op(|inner, st| {
            let mut report = FsckReport::default();
            let mut used_inos: BTreeMap<Ino, u16> = BTreeMap::new(); // ino -> observed refs
            let mut used_blocks: BTreeSet<BlockNo> = BTreeSet::new();
            let mut queue: VecDeque<Ino> = VecDeque::new();
            queue.push_back(ROOT_INO);
            used_inos.insert(ROOT_INO, 1); // "/" has an implicit reference

            let mut subdir_counts: BTreeMap<Ino, u16> = BTreeMap::new();

            while let Some(ino) = queue.pop_front() {
                let inode = read_inode(inner, st, ino)?;
                if inode.is_free() {
                    report.errors.push(format!("referenced inode {ino} is free"));
                    continue;
                }
                report.inodes += 1;
                // Account this inode's blocks (data + pointer blocks).
                for bno in inode_blocks(inner, st, &inode)? {
                    if !used_blocks.insert(bno) {
                        report
                            .errors
                            .push(format!("block {bno} referenced more than once"));
                    }
                }
                if inode.file_type()? == FileType::Directory {
                    let mut entries = Vec::new();
                    for fb in 0..inode.size / BLOCK_SIZE as u64 {
                        if let Some(bno) = bmap(inner, st, &inode, fb)? {
                            entries.extend(dir::entries(bread(inner, st, bno)?));
                        }
                    }
                    for e in entries {
                        if e.name == "." {
                            if e.ino != ino {
                                report.errors.push(format!("bad '.' in dir {ino}"));
                            }
                            continue;
                        }
                        if e.name == ".." {
                            continue; // verified via link counts
                        }
                        let first_ref = !used_inos.contains_key(&e.ino);
                        *used_inos.entry(e.ino).or_insert(0) += 1;
                        let child = read_inode(inner, st, e.ino)?;
                        if child.is_free() {
                            report
                                .errors
                                .push(format!("entry {} -> free inode {}", e.name, e.ino));
                            continue;
                        }
                        if child.file_type()? == FileType::Directory {
                            *subdir_counts.entry(ino).or_insert(0) += 1;
                            if first_ref {
                                queue.push_back(e.ino);
                            } else {
                                report
                                    .errors
                                    .push(format!("directory {} multiply linked", e.ino));
                            }
                        } else if first_ref {
                            // Non-directories: walk once to account
                            // their blocks.
                            queue.push_back(e.ino);
                        }
                    }
                }
            }
            report.blocks = used_blocks.len() as u64;

            // Link counts.
            for (&ino, &refs) in &used_inos {
                let inode = read_inode(inner, st, ino)?;
                if inode.is_free() {
                    continue;
                }
                let expect = match inode.file_type()? {
                    // '.'; the parent's entry (or "/" itself for the
                    // root); one '..' per subdirectory.
                    FileType::Directory => 2 + subdir_counts.get(&ino).copied().unwrap_or(0),
                    _ => refs,
                };
                if inode.links != expect {
                    report.errors.push(format!(
                        "inode {ino}: links {} but expected {expect}",
                        inode.links
                    ));
                }
            }

            // Bitmap cross-check.
            for (g, lay) in st.layouts.clone().into_iter().enumerate() {
                let gd_free = st.groups[g].free_blocks as usize;
                let bimg = bread(inner, st, lay.block_bitmap)?;
                let limit = (lay.end - lay.start) as usize;
                for i in 0..limit {
                    let bno = lay.start + i as u64;
                    let marked = alloc::test_bit(bimg, i);
                    let is_meta = bno < lay.data_start;
                    let reachable = used_blocks.contains(&bno);
                    if marked && !is_meta && !reachable {
                        report
                            .errors
                            .push(format!("block {bno} marked used but unreachable"));
                    }
                    if !marked && (reachable || is_meta) {
                        report
                            .errors
                            .push(format!("block {bno} in use but marked free"));
                    }
                }
                // Group-descriptor free-block count must agree with
                // the bitmap.
                let bitmap_free = alloc::count_zeros(bimg, limit);
                if gd_free != bitmap_free {
                    report.errors.push(format!(
                        "group {g}: descriptor says {gd_free} free blocks, bitmap says {bitmap_free}"
                    ));
                }
                let iimg = bread(inner, st, lay.inode_bitmap)?;
                for idx in 0..INODES_PER_GROUP as usize {
                    let ino = (g as u64 * INODES_PER_GROUP + idx as u64 + 1) as Ino;
                    let marked = alloc::test_bit(iimg, idx);
                    let reserved = g == 0 && (idx as u32) < FIRST_FREE_INO - 1;
                    let reachable = used_inos.contains_key(&ino);
                    if marked && !reserved && !reachable && ino != ROOT_INO {
                        report
                            .errors
                            .push(format!("inode {ino} marked used but unreachable"));
                    }
                    if !marked && reachable {
                        report
                            .errors
                            .push(format!("inode {ino} in use but marked free"));
                    }
                }
            }
            Ok(report)
        })
    }
}

/// Every block an inode references: data blocks plus pointer blocks.
fn inode_blocks(inner: &Inner, st: &mut State, inode: &Inode) -> FsResult<Vec<BlockNo>> {
    let mut out = Vec::new();
    if inode.file_type()? == FileType::Symlink && inode.nblocks == 0 {
        return Ok(out); // fast symlink: no blocks
    }
    for (i, &p) in inode.block.iter().take(N_DIRECT).enumerate() {
        let _ = i;
        if p != 0 {
            out.push(p as BlockNo);
        }
    }
    if inode.block[N_DIRECT] != 0 {
        let ind = inode.block[N_DIRECT] as BlockNo;
        out.push(ind);
        out.extend(ptrs_of(inner, st, ind)?);
    }
    if inode.block[N_DIRECT + 1] != 0 {
        let dind = inode.block[N_DIRECT + 1] as BlockNo;
        out.push(dind);
        for p1 in ptrs_of(inner, st, dind)? {
            out.push(p1);
            out.extend(ptrs_of(inner, st, p1)?);
        }
    }
    Ok(out)
}

fn ptrs_of(inner: &Inner, st: &mut State, ptr_block: BlockNo) -> FsResult<Vec<BlockNo>> {
    let img = bread(inner, st, ptr_block)?;
    let mut out = Vec::new();
    for i in 0..PTRS_PER_BLOCK {
        let p = u32::from_le_bytes(img[i * 4..i * 4 + 4].try_into().unwrap());
        if p != 0 {
            out.push(p as BlockNo);
        }
    }
    Ok(out)
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ok() {
            write!(
                f,
                "clean: {} inodes, {} blocks reachable",
                self.inodes, self.blocks
            )
        } else {
            writeln!(f, "{} inconsistencies:", self.errors.len())?;
            for e in &self.errors {
                writeln!(f, "  {e}")?;
            }
            Ok(())
        }
    }
}
