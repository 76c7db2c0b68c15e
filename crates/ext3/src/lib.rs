//! An ext3-like journaling file system over a simulated block device.
//!
//! This is the substrate that gives the paper's iSCSI configuration
//! its behaviour (Figure 1(b)): the file system — and therefore the
//! *entire* data and meta-data cache — lives at the client, meta-data
//! updates are asynchronous and batched by a JBD-style journal with a
//! 5-second commit interval, and dirty data is written back lazily
//! with large merged requests. The same implementation also backs the
//! NFS *server* (Figure 1(a)), where it runs on a local RAID volume.
//!
//! Highlights:
//!
//! * real on-disk structures (superblock, block groups, bitmaps,
//!   inode table, ext2-style directory blocks, indirect blocks) that
//!   survive unmount/remount on a raw [`blockdev::BlockDevice`];
//! * a buffer cache with LRU eviction and dirty pinning;
//! * a journal with descriptor/commit records, crash replay at mount,
//!   and lazy checkpointing — commits leave the client as **two**
//!   merged write transactions regardless of how many meta-data
//!   updates were aggregated (the paper's §4.2 batching effect);
//! * sequential read-ahead with run merging, write-back with dirty
//!   throttling, and atime maintenance (the source of iSCSI's
//!   warm-read messages in §4.4);
//! * an `fsck` used by property tests to prove crash consistency.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use simkit::Sim;
//! use blockdev::MemDisk;
//! use ext3::{Ext3, Options};
//!
//! let sim = Sim::new(1);
//! let disk = Rc::new(MemDisk::new("d0", 200_000));
//! let fs = Ext3::mkfs(sim, disk, Options::default())?;
//! let dir = fs.mkdir(fs.root(), "home", 0o755)?;
//! let f = fs.create(dir, "hello.txt", 0o644)?;
//! fs.write(f, 0, b"hello world")?;
//! assert_eq!(fs.read(f, 0, 5)?, b"hello");
//! # Ok::<(), ext3::FsError>(())
//! ```

mod alloc;
mod cache;
#[cfg(test)]
mod cache_table;
mod dir;
mod error;
mod fs;
mod fsck;
mod journal;
mod layout;
mod ops;

/// The owned block image the caches here are made of, for the crates
/// above that cache blocks of their own (the NFS client's pages).
pub use blockdev::Image;
pub use cache::{BufferCache, DirtyKind};
pub use dir::DirEntry;
pub use error::{read_to_vec, FsError, FsResult};
pub use fs::{Attr, Ext3, Ino, Options, SetAttr, StatFs, DIRTY_LIMIT_BLOCKS, WRITEBACK_INTERVAL};
pub use fsck::FsckReport;
pub use layout::{FileType, FAST_SYMLINK_MAX, NAME_MAX, ROOT_INO};
pub use layout::{JOURNAL_BLOCKS, MIN_VOLUME_BLOCKS};

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{BlockDevice, MemDisk};
    use simkit::{Sim, SimDuration};
    use std::rc::Rc;

    fn newfs() -> (Rc<Sim>, Rc<MemDisk>, Ext3) {
        let sim = Sim::new(7);
        let disk = Rc::new(MemDisk::new("d0", 300_000));
        let fs = Ext3::mkfs(sim.clone(), disk.clone(), Options::default()).unwrap();
        (sim, disk, fs)
    }

    #[test]
    fn mkfs_then_basic_tree() {
        let (_sim, _disk, fs) = newfs();
        let d = fs.mkdir(fs.root(), "a", 0o755).unwrap();
        let f = fs.create(d, "f", 0o644).unwrap();
        assert_eq!(fs.lookup(fs.root(), "a").unwrap(), d);
        assert_eq!(fs.lookup(d, "f").unwrap(), f);
        assert_eq!(fs.lookup(d, "missing"), Err(FsError::NotFound));
        let names: Vec<_> = fs
            .readdir(fs.root())
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec![".", "..", "a"]);
    }

    #[test]
    fn op_counters_exist_only_once_bumped() {
        let (sim, _disk, fs) = newfs();
        let op_counters = || -> Vec<(String, u64)> {
            let mut all = sim.counters().to_vec();
            all.retain(|(name, _)| name.starts_with("ext3.op."));
            all
        };
        assert_eq!(op_counters(), [], "mkfs runs no file operation");
        fs.create(fs.root(), "f", 0o644).unwrap();
        for _ in 0..3 {
            fs.lookup(fs.root(), "f").unwrap();
        }
        assert_eq!(
            op_counters(),
            [
                ("ext3.op.create".to_string(), 1),
                ("ext3.op.lookup".to_string(), 3)
            ]
        );
    }

    #[test]
    fn write_read_round_trip_small() {
        let (_sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        fs.write(f, 0, b"hello world").unwrap();
        assert_eq!(fs.read(f, 0, 1024).unwrap(), b"hello world");
        assert_eq!(fs.read(f, 6, 5).unwrap(), b"world");
        assert_eq!(fs.getattr(f).unwrap().size, 11);
    }

    #[test]
    fn write_read_round_trip_large_spans_indirects() {
        let (_sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "big", 0o644).unwrap();
        // 6 MB: direct (48 KB) + single indirect (4 MB) + into double.
        let mb = 1024 * 1024;
        let mut pattern = vec![0u8; 6 * mb];
        for (i, b) in pattern.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let chunk = 256 * 1024;
        for (i, c) in pattern.chunks(chunk).enumerate() {
            fs.write(f, (i * chunk) as u64, c).unwrap();
        }
        let attr = fs.getattr(f).unwrap();
        assert_eq!(attr.size, 6 * mb as u64);
        for &off in &[0u64, 40 * 1024, 4 * mb as u64, 5 * mb as u64 + 12345] {
            let got = fs.read(f, off, 1000).unwrap();
            assert_eq!(
                got,
                &pattern[off as usize..off as usize + 1000],
                "off {off}"
            );
        }
    }

    #[test]
    fn sparse_files_read_zero() {
        let (_sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "sparse", 0o644).unwrap();
        fs.write(f, 1_000_000, b"end").unwrap();
        assert_eq!(fs.getattr(f).unwrap().size, 1_000_003);
        let hole = fs.read(f, 5000, 100).unwrap();
        assert!(hole.iter().all(|&b| b == 0));
        assert_eq!(fs.read(f, 1_000_000, 3).unwrap(), b"end");
    }

    #[test]
    fn unlink_frees_space() {
        let (_sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        fs.write(f, 0, &vec![9u8; 100_000]).unwrap();
        fs.unlink(fs.root(), "f").unwrap();
        assert_eq!(fs.lookup(fs.root(), "f"), Err(FsError::NotFound));
        assert!(fs.fsck().unwrap().ok());
    }

    #[test]
    fn hard_links_share_data() {
        let (_sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "a", 0o644).unwrap();
        fs.write(f, 0, b"shared").unwrap();
        fs.link(fs.root(), "b", f).unwrap();
        assert_eq!(fs.getattr(f).unwrap().links, 2);
        fs.unlink(fs.root(), "a").unwrap();
        let b = fs.lookup(fs.root(), "b").unwrap();
        assert_eq!(b, f);
        assert_eq!(fs.read(b, 0, 6).unwrap(), b"shared");
        assert_eq!(fs.getattr(b).unwrap().links, 1);
    }

    #[test]
    fn symlinks_fast_and_slow() {
        let (_sim, _disk, fs) = newfs();
        let s1 = fs.symlink(fs.root(), "s1", "short/target").unwrap();
        assert_eq!(fs.readlink(s1).unwrap(), "short/target");
        let long = "x/".repeat(80); // 160 bytes > FAST_SYMLINK_MAX
        let s2 = fs.symlink(fs.root(), "s2", &long).unwrap();
        assert_eq!(fs.readlink(s2).unwrap(), long);
        assert_eq!(fs.readlink(fs.root()), Err(FsError::NotASymlink));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let (_sim, _disk, fs) = newfs();
        let d1 = fs.mkdir(fs.root(), "d1", 0o755).unwrap();
        let d2 = fs.mkdir(fs.root(), "d2", 0o755).unwrap();
        let f = fs.create(d1, "f", 0o644).unwrap();
        fs.write(f, 0, b"data").unwrap();
        fs.rename(d1, "f", d2, "g").unwrap();
        assert_eq!(fs.lookup(d1, "f"), Err(FsError::NotFound));
        assert_eq!(fs.lookup(d2, "g").unwrap(), f);
        // Replace an existing file.
        let h = fs.create(d2, "h", 0o644).unwrap();
        fs.rename(d2, "g", d2, "h").unwrap();
        assert_eq!(fs.lookup(d2, "h").unwrap(), f);
        assert_ne!(fs.lookup(d2, "h").unwrap(), h);
        assert!(fs.fsck().unwrap().ok());
    }

    #[test]
    fn rename_directory_updates_dotdot_and_links() {
        let (_sim, _disk, fs) = newfs();
        let d1 = fs.mkdir(fs.root(), "d1", 0o755).unwrap();
        let d2 = fs.mkdir(fs.root(), "d2", 0o755).unwrap();
        let sub = fs.mkdir(d1, "sub", 0o755).unwrap();
        fs.rename(d1, "sub", d2, "sub2").unwrap();
        assert_eq!(fs.lookup(d2, "sub2").unwrap(), sub);
        assert_eq!(fs.lookup(sub, "..").unwrap(), d2);
        assert_eq!(fs.getattr(d1).unwrap().links, 2);
        assert_eq!(fs.getattr(d2).unwrap().links, 3);
        assert!(fs.fsck().unwrap().ok());
    }

    #[test]
    fn rmdir_requires_empty() {
        let (_sim, _disk, fs) = newfs();
        let d = fs.mkdir(fs.root(), "d", 0o755).unwrap();
        fs.create(d, "f", 0o644).unwrap();
        assert_eq!(fs.rmdir(fs.root(), "d"), Err(FsError::NotEmpty));
        fs.unlink(d, "f").unwrap();
        fs.rmdir(fs.root(), "d").unwrap();
        assert_eq!(fs.lookup(fs.root(), "d"), Err(FsError::NotFound));
        assert!(fs.fsck().unwrap().ok());
    }

    #[test]
    fn truncate_and_extend() {
        let (_sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        fs.write(f, 0, &vec![7u8; 50_000]).unwrap();
        fs.setattr(
            f,
            SetAttr {
                size: Some(100),
                ..SetAttr::default()
            },
        )
        .unwrap();
        assert_eq!(fs.getattr(f).unwrap().size, 100);
        assert_eq!(fs.read(f, 0, 200).unwrap().len(), 100);
        assert!(fs.fsck().unwrap().ok());
    }

    #[test]
    fn setattr_changes_metadata() {
        let (_sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        let a = fs
            .setattr(
                f,
                SetAttr {
                    perm: Some(0o600),
                    uid: Some(42),
                    gid: Some(43),
                    atime: Some(1111),
                    mtime: Some(2222),
                    ..SetAttr::default()
                },
            )
            .unwrap();
        assert_eq!(a.perm, 0o600);
        assert_eq!(a.uid, 42);
        assert_eq!(a.gid, 43);
        assert_eq!(a.atime, 1111);
        assert_eq!(a.mtime, 2222);
    }

    #[test]
    fn unmount_remount_preserves_tree() {
        let (sim, disk, fs) = newfs();
        let d = fs.mkdir(fs.root(), "persist", 0o755).unwrap();
        let f = fs.create(d, "f", 0o644).unwrap();
        fs.write(f, 0, b"durable data").unwrap();
        fs.unmount().unwrap();
        let fs2 = Ext3::mount(sim, disk, Options::default()).unwrap();
        let d2 = fs2.lookup(fs2.root(), "persist").unwrap();
        let f2 = fs2.lookup(d2, "f").unwrap();
        assert_eq!(fs2.read(f2, 0, 100).unwrap(), b"durable data");
        assert!(fs2.fsck().unwrap().ok());
    }

    #[test]
    fn crash_after_commit_recovers_via_journal() {
        let (sim, disk, fs) = newfs();
        let d = fs.mkdir(fs.root(), "committed", 0o755).unwrap();
        let _ = d;
        // Let the 5s commit pass, then crash before any checkpoint.
        sim.advance(SimDuration::from_secs(6));
        fs.crash();
        drop(fs);
        let fs2 = Ext3::mount(sim, disk, Options::default()).unwrap();
        assert!(fs2.lookup(fs2.root(), "committed").is_ok());
        assert!(fs2.fsck().unwrap().ok());
    }

    #[test]
    fn crash_before_commit_loses_update_but_stays_consistent() {
        let (sim, disk, fs) = newfs();
        fs.mkdir(fs.root(), "lost", 0o755).unwrap();
        // Crash immediately: the running transaction never committed.
        fs.crash();
        drop(fs);
        let fs2 = Ext3::mount(sim, disk, Options::default()).unwrap();
        assert_eq!(
            fs2.lookup(fs2.root(), "lost"),
            Err(FsError::NotFound),
            "uncommitted meta-data is lost (paper §2.3)"
        );
        assert!(fs2.fsck().unwrap().ok());
    }

    /// Enough fsynced commits to run past the end of the journal: the
    /// commit that no longer fits checkpoints first (the only path
    /// that writes the superblock while the file system stays mounted
    /// and its caches stay warm), and the log wraps to its start.
    #[test]
    fn a_full_journal_checkpoints_and_wraps() {
        const FILES: usize = 1000;
        let (sim, disk, fs) = newfs();
        let on_disk_seq = || {
            let mut sb = [0u8; blockdev::BLOCK_SIZE];
            disk.read(0, 1, &mut sb).unwrap();
            layout::SuperBlock::decode(&sb).unwrap().journal_seq
        };
        let seq_at_mkfs = on_disk_seq();
        let d = fs.mkdir(fs.root(), "d", 0o755).unwrap();
        let mut files = Vec::with_capacity(FILES);
        let mut wrapped_at = None;
        for i in 0..FILES {
            let f = fs.create(d, &format!("f{i}"), 0o644).unwrap();
            fs.fsync(f).unwrap();
            files.push(f);
            if wrapped_at.is_none() && on_disk_seq() != seq_at_mkfs {
                wrapped_at = Some(i);
            }
        }
        // A commit here logs a descriptor, a commit record and the few
        // blocks the create changed, so the log holds hundreds of them.
        let wrapped_at = wrapped_at.expect("the journal never filled");
        assert!(wrapped_at > 100, "checkpointed after {wrapped_at} commits");
        assert!(fs.fsck().unwrap().ok());

        fs.unmount().unwrap();
        let fs = Ext3::mount(sim, disk, Options::default()).unwrap();
        for (i, &f) in files.iter().enumerate() {
            assert_eq!(fs.lookup(d, &format!("f{i}")), Ok(f));
        }
        assert!(fs.fsck().unwrap().ok());
    }

    #[test]
    fn journal_commit_is_two_write_transactions() {
        // Use an iSCSI-style counter: a raw MemDisk has no counters, so
        // count journal commits via the sim counter and writeback via
        // device state changes is overkill here; instead check that a
        // burst of metadata ops followed by a commit produces exactly
        // one commit (aggregation).
        let (sim, _disk, fs) = newfs();
        let base = sim.counters().get("ext3.journal.commits");
        for i in 0..50 {
            fs.mkdir(fs.root(), &format!("d{i}"), 0o755).unwrap();
        }
        sim.advance(SimDuration::from_secs(6));
        assert_eq!(
            sim.counters().get("ext3.journal.commits") - base,
            1,
            "50 mkdirs aggregate into a single commit"
        );
    }

    #[test]
    fn journal_commits_emit_spans_and_latencies() {
        let (sim, _disk, fs) = newfs();
        // mkfs itself commits; only count what happens after.
        let base = sim
            .metrics()
            .histogram("ext3.journal.commit")
            .map_or(0, |h| h.count());
        sim.tracer().set_enabled(true);
        for i in 0..10 {
            fs.mkdir(fs.root(), &format!("d{i}"), 0o755).unwrap();
        }
        sim.advance(SimDuration::from_secs(6));
        let h = sim.metrics().histogram("ext3.journal.commit").unwrap();
        assert_eq!(h.count() - base, 1, "one aggregated commit");
        let spans = sim.tracer().spans();
        let commits: Vec<_> = spans.iter().filter(|s| s.op == "journal_commit").collect();
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].layer, "ext3");
        assert!(commits[0]
            .attrs
            .iter()
            .any(|(k, v)| *k == "meta_blocks" && v.parse::<u64>().unwrap() > 0));
    }

    #[test]
    fn fsck_detects_corruption() {
        let (_sim, disk, fs) = newfs();
        let d = fs.mkdir(fs.root(), "x", 0o755).unwrap();
        let _ = d;
        fs.unmount().unwrap();
        // Clobber the root directory block on the raw device: the tree
        // is now inconsistent with the bitmaps.
        // Find root dir block: read root inode via a fresh mount is
        // simplest; instead corrupt the inode bitmap of group 0.
        let sim2 = Sim::new(9);
        let fs2 = Ext3::mount(sim2, disk.clone(), Options::default()).unwrap();
        // Reach into the device and flip a bit in some inode bitmap.
        // Group 0 inode bitmap is at journal_end + 1.
        let ib = 2 + JOURNAL_BLOCKS + 1;
        let mut img = vec![0u8; blockdev::BLOCK_SIZE];
        disk.read(ib, 1, &mut img).unwrap();
        img[100] = 0xFF; // mark 8 random inodes used
        disk.write(ib, &img).unwrap();
        let report = fs2.fsck().unwrap();
        assert!(!report.ok());
    }

    #[test]
    fn reading_before_checkpoint_sees_committed_image() {
        // Meta-data committed to the journal but not yet checkpointed
        // must be visible through a cold cache (pending-image path).
        let (sim, _disk, fs) = newfs();
        fs.mkdir(fs.root(), "pending", 0o755).unwrap();
        sim.advance(SimDuration::from_secs(6)); // commit, no checkpoint
                                                // Evict everything clean to force re-reads.
        fs.sync().unwrap();
        assert!(fs.lookup(fs.root(), "pending").is_ok());
    }

    #[test]
    fn directory_grows_past_one_block() {
        let (_sim, _disk, fs) = newfs();
        let d = fs.mkdir(fs.root(), "big", 0o755).unwrap();
        for i in 0..500 {
            fs.create(d, &format!("file_with_a_longish_name_{i:04}"), 0o644)
                .unwrap();
        }
        assert!(fs.getattr(d).unwrap().size > blockdev::BLOCK_SIZE as u64);
        assert!(fs.lookup(d, "file_with_a_longish_name_0499").is_ok());
        assert_eq!(fs.readdir(d).unwrap().len(), 502);
        assert!(fs.fsck().unwrap().ok());
    }

    #[test]
    fn dirty_data_flushes_in_background() {
        let (sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        fs.write(f, 0, &vec![1u8; 1 << 20]).unwrap(); // 1 MB dirty
        assert_eq!(sim.counters().get("ext3.writeback.blocks"), 0);
        sim.advance(SimDuration::from_secs(11));
        assert!(sim.counters().get("ext3.writeback.blocks") >= 256);
    }

    #[test]
    fn atime_updates_on_read() {
        let (sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        fs.write(f, 0, b"x").unwrap();
        let before = fs.getattr(f).unwrap().atime;
        sim.advance(SimDuration::from_secs(1));
        fs.read(f, 0, 1).unwrap();
        assert!(fs.getattr(f).unwrap().atime > before);
    }

    /// A fixed script whose cache hits/misses, residency, dirty counts,
    /// background device time and virtual clock were recorded at the
    /// commit before blocks started crossing `bread` by reference: any
    /// change to the numbers is a change to cache or clock behaviour.
    ///
    /// It also pins a known model deviation (EXPERIMENTS.md, "Known
    /// deviations"): `commit_journal` marks the *journal-slot* block
    /// numbers clean, so the 58 meta-data blocks dirtied by 50 mkdirs
    /// stay `DirtyKind::Meta` after their commit.
    #[test]
    fn cache_accounting_is_unchanged() {
        use blockdev::{DiskModel, DiskParams};
        const REQ: usize = blockdev::BLOCK_SIZE;
        const FILE_BLOCKS: u64 = 6 * 1024 * 1024 / REQ as u64;
        let dirty = |fs: &Ext3| {
            let st = fs.inner.state.borrow();
            (
                st.cache.dirty_count(DirtyKind::Meta),
                st.cache.dirty_count(DirtyKind::Data),
            )
        };
        let block = |i: u64| vec![(i % 251) as u8; REQ];

        let sim = Sim::new(7);
        let disk = Rc::new(DiskModel::new(
            MemDisk::new("d0", 300_000),
            DiskParams::ultra160_10k(),
        ));
        let fs = Ext3::mkfs(sim.clone(), disk, Options::default()).unwrap();

        for i in 0..50 {
            fs.mkdir(fs.root(), &format!("d{i}"), 0o755).unwrap();
        }
        sim.advance(SimDuration::from_secs(6)); // one commit
        assert_eq!(dirty(&fs), (58, 0), "after 50 mkdirs + one commit");
        assert_eq!(fs.cache_stats(), (398, 7));
        assert_eq!(fs.cached_blocks(), 58);

        // 6 MB in 4 KB requests: direct, single- and double-indirect.
        let f = fs.create(fs.root(), "big", 0o644).unwrap();
        for i in 0..FILE_BLOCKS {
            fs.write(f, i * REQ as u64, &block(i)).unwrap();
        }
        assert_eq!(dirty(&fs), (62, 1536), "after the write phase");
        assert_eq!(fs.cache_stats(), (7522, 8));
        assert_eq!(fs.cached_blocks(), 1598);

        fs.drop_caches().unwrap();
        assert_eq!(dirty(&fs), (0, 0), "after drop_caches");
        assert_eq!(fs.cached_blocks(), 0);

        for i in 0..FILE_BLOCKS {
            assert_eq!(fs.read(f, i * REQ as u64, REQ).unwrap(), block(i));
        }
        assert_eq!(fs.cache_stats(), (28_806, 12), "after the sequential read");
        let mut x = 12345u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) % FILE_BLOCKS;
            assert_eq!(fs.read(f, i * REQ as u64, REQ).unwrap(), block(i));
        }
        assert_eq!(fs.cache_stats(), (29_723, 12), "after 200 random reads");
        assert_eq!(dirty(&fs), (1, 0));
        assert_eq!(fs.cached_blocks(), 1540);

        fs.unlink(fs.root(), "big").unwrap();
        assert_eq!(fs.cache_stats(), (29_731, 16), "after unlink");
        assert_eq!(dirty(&fs), (8, 0));
        assert_eq!(fs.cached_blocks(), 1544);
        assert_eq!(sim.now().as_nanos(), 6_700_099_200);
    }

    /// Rewrites `ino`'s on-disk inode through the file system's own
    /// primitives, as corruption on the device would present it.
    fn patch_inode(fs: &Ext3, ino: Ino, patch: impl FnOnce(&mut layout::Inode)) {
        let inner = &fs.inner;
        let mut st = inner.state.borrow_mut();
        let mut inode = crate::fs::read_inode(inner, &mut st, ino).unwrap();
        patch(&mut inode);
        crate::fs::write_inode(inner, &mut st, ino, &inode).unwrap();
    }

    #[test]
    fn out_of_volume_block_pointer_is_corrupt() {
        let (_sim, _disk, fs) = newfs();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        patch_inode(&fs, f, |inode| {
            inode.block[0] = 0xFFFF_FF00;
            inode.size = blockdev::BLOCK_SIZE as u64;
        });
        let corrupt = FsError::Corrupt("block pointer past end of volume");
        let block = [7u8; blockdev::BLOCK_SIZE];
        assert_eq!(fs.write(f, 0, &block), Err(corrupt.clone()));
        assert_eq!(fs.read(f, 0, block.len()), Err(corrupt));
        fs.sync().unwrap();
        let st = fs.inner.state.borrow();
        assert_eq!(st.cache.dirty_count(DirtyKind::Data), 0);
        assert!(!st.cache.contains(0xFFFF_FF00));
    }

    /// A `MemDisk` that rejects every write touching block `bad`, if set.
    struct RejectsBlock {
        disk: MemDisk,
        bad: std::cell::Cell<Option<blockdev::BlockNo>>,
    }

    impl BlockDevice for RejectsBlock {
        fn name(&self) -> &str {
            self.disk.name()
        }
        fn block_count(&self) -> u64 {
            self.disk.block_count()
        }
        fn read(
            &self,
            start: blockdev::BlockNo,
            nblocks: u32,
            buf: &mut [u8],
        ) -> blockdev::Result<blockdev::IoCost> {
            self.disk.read(start, nblocks, buf)
        }
        fn write(
            &self,
            start: blockdev::BlockNo,
            data: &[u8],
        ) -> blockdev::Result<blockdev::IoCost> {
            let blocks = start..start + (data.len() / blockdev::BLOCK_SIZE) as u64;
            match self.bad.get() {
                Some(bad) if blocks.contains(&bad) => Err(blockdev::BlockError::DeviceFailed {
                    device: self.name().to_string(),
                }),
                _ => self.disk.write(start, data),
            }
        }
        fn flush(&self) -> blockdev::Result<blockdev::IoCost> {
            self.disk.flush()
        }
    }

    #[test]
    fn write_back_errors_reach_sync_drop_caches_and_unmount() {
        let sim = Sim::new(7);
        let disk = Rc::new(RejectsBlock {
            disk: MemDisk::new("d0", 300_000),
            bad: Default::default(),
        });
        let fs = Ext3::mkfs(sim, disk.clone(), Options::default()).unwrap();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        let data: Vec<u8> = (0..3 * blockdev::BLOCK_SIZE).map(|i| i as u8).collect();
        fs.write(f, 0, &data).unwrap();
        let blocks: Vec<blockdev::BlockNo> = {
            let inner = &fs.inner;
            let mut st = inner.state.borrow_mut();
            let inode = crate::fs::read_inode(inner, &mut st, f).unwrap();
            inode.block[..3]
                .iter()
                .map(|&p| p as blockdev::BlockNo)
                .collect()
        };
        // The three blocks are contiguous: one write-back command.
        disk.bad.set(Some(blocks[1]));
        let kept = |fs: &Ext3| {
            let st = fs.inner.state.borrow();
            let resident = blocks.iter().all(|&b| st.cache.contains(b));
            (st.cache.dirty_blocks(DirtyKind::Data), resident)
        };
        assert!(matches!(fs.drop_caches(), Err(FsError::Io(_))));
        assert_eq!(kept(&fs), (blocks.clone(), true), "the failed run is kept");
        assert!(matches!(fs.sync(), Err(FsError::Io(_))));
        assert!(matches!(fs.unmount(), Err(FsError::Io(_))));
        assert_eq!(kept(&fs), (blocks.clone(), true), "still mounted");
        assert_eq!(fs.read(f, 0, data.len()).unwrap(), data);

        disk.bad.set(None);
        fs.drop_caches().unwrap();
        assert_eq!(fs.cached_blocks(), 0);
        assert_eq!(fs.read(f, 0, data.len()).unwrap(), data, "from the device");
        fs.unmount().unwrap();
    }

    /// A fresh file system on a `RejectsBlock` device holding one empty
    /// file in its running transaction.
    fn fs_on_rejecting_disk() -> (Rc<RejectsBlock>, Ext3, Ino) {
        let disk = Rc::new(RejectsBlock {
            disk: MemDisk::new("d0", 300_000),
            bad: Default::default(),
        });
        let fs = Ext3::mkfs(Sim::new(7), disk.clone(), Options::default()).unwrap();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        (disk, fs, f)
    }

    fn checkpoint_pending(fs: &Ext3) -> usize {
        fs.inner.state.borrow().journal.checkpoint_pending_len()
    }

    #[test]
    fn journal_errors_reach_fsync_sync_drop_caches_and_unmount() {
        let (disk, fs, f) = fs_on_rejecting_disk();
        // mkfs checkpointed, so the next commit's descriptor goes to the
        // journal's first block.
        let journal_start = 2;
        disk.bad.set(Some(journal_start));
        assert!(matches!(fs.fsync(f), Err(FsError::Io(_))));
        assert!(matches!(fs.sync(), Err(FsError::Io(_))));
        assert!(matches!(fs.drop_caches(), Err(FsError::Io(_))));
        assert!(matches!(fs.unmount(), Err(FsError::Io(_))));
        assert_eq!(checkpoint_pending(&fs), 0, "nothing reached the log");

        disk.bad.set(None);
        fs.fsync(f).unwrap();
        assert!(
            checkpoint_pending(&fs) > 0,
            "the kept transaction committed"
        );
        fs.crash();
        let fs = Ext3::mount(Sim::new(8), disk, Options::default()).unwrap();
        assert_eq!(fs.lookup(fs.root(), "f"), Ok(f), "replayed from the log");
    }

    #[test]
    fn a_failed_checkpoint_keeps_its_images() {
        let (disk, fs, f) = fs_on_rejecting_disk();
        fs.fsync(f).unwrap();
        let committed = checkpoint_pending(&fs);
        // The group descriptors (block 1) changed with the new inode.
        let descriptors = *fs.inner.state.borrow().journal.pending_image(1).unwrap();
        disk.bad.set(Some(1));
        assert!(matches!(fs.drop_caches(), Err(FsError::Io(_))));
        assert_eq!(checkpoint_pending(&fs), committed);
        assert_eq!(fs.lookup(fs.root(), "f"), Ok(f));

        disk.bad.set(None);
        fs.drop_caches().unwrap();
        assert_eq!(checkpoint_pending(&fs), 0);
        let mut home = [0u8; blockdev::BLOCK_SIZE];
        disk.read(1, 1, &mut home).unwrap();
        assert_eq!(
            home, descriptors,
            "the committed image reached its home block"
        );
        fs.unmount().unwrap();
        let fs = Ext3::mount(Sim::new(8), disk, Options::default()).unwrap();
        assert_eq!(fs.lookup(fs.root(), "f"), Ok(f));
        assert!(fs.fsck().unwrap().ok());
    }

    #[test]
    fn operations_take_simulated_time() {
        let (sim, _disk, fs) = newfs();
        let t0 = sim.now();
        let f = fs.create(fs.root(), "f", 0o644).unwrap();
        fs.write(f, 0, &vec![0u8; 64 * 1024]).unwrap();
        assert!(sim.now() > t0, "writes must consume CPU/copy time");
    }
}
