//! JBD-style meta-data journal.
//!
//! The running transaction collects the block numbers of modified
//! meta-data blocks; every commit interval (ext3's default of 5 s) the
//! commit daemon writes a *descriptor block* listing the targets, the
//! block images themselves, and a *commit record* to the journal
//! region. The descriptor and images are contiguous, so they leave the
//! client as **one** large sequential write command, followed by the
//! commit record — two transactions on the wire no matter how many
//! meta-data updates were batched. This is the paper's "aggregation of
//! meta-data updates" (§4.2), and it is why iSCSI's warm-cache message
//! counts stay flat.
//!
//! A commit is assembled first ([`Journal::prepare`]) and takes effect
//! ([`Journal::complete`]) only once the device has taken both writes,
//! so a rejected commit leaves its transaction running; a checkpoint
//! likewise forgets its images only after they are in place.
//!
//! In-place ("checkpoint") writes are deferred until the journal fills
//! or the file system unmounts, as in real ext3. After a crash,
//! [`replay_scan`] recovers every committed-but-not-checkpointed
//! transaction; uncommitted updates are lost — exactly the reduced
//! persistence the paper attributes to iSCSI-plus-ext3 (§2.3).

use crate::error::{FsError, FsResult};
use blockdev::{BlockNo, Image, BLOCK_SIZE};
use std::collections::BTreeMap;

/// Magic tag of a descriptor block.
pub const DESC_MAGIC: u32 = 0x4A44_5343; // "JDSC"
/// Magic tag of a commit record.
pub const COMMIT_MAGIC: u32 = 0x4A43_4D54; // "JCMT"

/// Maximum target blocks one descriptor can list.
pub const MAX_TXN_BLOCKS: usize = (BLOCK_SIZE - 16) / 8;

/// The journal's in-memory state.
#[derive(Debug)]
pub struct Journal {
    /// First block of the on-disk journal region.
    pub start: BlockNo,
    /// Region length in blocks.
    pub len: u64,
    /// Next free block within the region (relative).
    head: u64,
    /// Sequence number the next commit will carry.
    next_seq: u64,
    /// Running transaction: target block → committed image pending
    /// checkpoint is tracked separately; here just the dirty set.
    running: BTreeMap<BlockNo, ()>,
    /// Blocks committed to the journal but not yet written in place.
    checkpoint_pending: BTreeMap<BlockNo, Image>,
}

/// The device writes a commit turns into, over the byte image
/// [`Journal::prepare`] assembled: descriptor, block images and commit
/// record, contiguous and in journal order.
#[derive(Debug)]
pub struct CommitPlan {
    /// `(start block, number of blocks)` per merged write command, the
    /// way the block layer would merge them: one sequential burst for
    /// descriptor + images, one for the commit record after a barrier.
    pub commands: [(BlockNo, u32); 2],
    /// Sequence number committed.
    pub seq: u64,
}

impl Journal {
    /// Creates an empty journal over the given region, starting at
    /// sequence `seq`.
    pub(crate) fn new(start: BlockNo, len: u64, seq: u64) -> Journal {
        Journal {
            start,
            len,
            head: 0,
            next_seq: seq,
            running: BTreeMap::new(),
            checkpoint_pending: BTreeMap::new(),
        }
    }

    /// Adds a meta-data block to the running transaction.
    pub(crate) fn add(&mut self, bno: BlockNo) {
        self.running.insert(bno, ());
    }

    /// True if the running transaction has no blocks.
    pub(crate) fn running_is_empty(&self) -> bool {
        self.running.is_empty()
    }

    /// Sequence number the next commit will use.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Journal blocks needed to commit the next slice of the running
    /// transaction (oversized transactions split across commits).
    pub(crate) fn blocks_needed(&self) -> u64 {
        if self.running.is_empty() {
            0
        } else {
            // descriptor + images + commit
            2 + self.running.len().min(MAX_TXN_BLOCKS) as u64
        }
    }

    /// True if committing now would overflow the region (a checkpoint
    /// must run first).
    pub(crate) fn needs_checkpoint(&self) -> bool {
        self.head + self.blocks_needed() > self.len
    }

    /// Builds the commit plan for the next slice of the running
    /// transaction, given a lookup of the current image of each dirty
    /// block (a block no longer resident commits as zeros), and
    /// assembles the bytes to write into `out` (cleared first). The
    /// journal itself is unchanged until
    /// [`complete`](Journal::complete) is called with the same plan
    /// and bytes, once the device has taken both commands.
    ///
    /// Returns `None` when there is nothing to commit.
    ///
    /// # Panics
    ///
    /// Panics if the region is full — callers must checkpoint first
    /// (see [`needs_checkpoint`](Journal::needs_checkpoint)).
    pub(crate) fn prepare<'a>(
        &self,
        image_of: impl Fn(BlockNo) -> Option<&'a [u8; BLOCK_SIZE]>,
        out: &mut Vec<u8>,
    ) -> Option<CommitPlan> {
        if self.running.is_empty() {
            return None;
        }
        assert!(
            !self.needs_checkpoint(),
            "journal full: checkpoint required before commit"
        );
        let seq = self.next_seq;
        // Oversized transactions split across commits, as in JBD.
        let count = self.running.len().min(MAX_TXN_BLOCKS);
        let targets = || self.running.keys().copied().take(count);

        out.clear();
        out.resize((count + 2) * BLOCK_SIZE, 0);
        let (desc, rest) = out.split_at_mut(BLOCK_SIZE);
        let (images, commit) = rest.split_at_mut(count * BLOCK_SIZE);

        // Descriptor block.
        desc[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        desc[4..12].copy_from_slice(&seq.to_le_bytes());
        desc[12..16].copy_from_slice(&(count as u32).to_le_bytes());
        for (i, t) in targets().enumerate() {
            desc[16 + i * 8..24 + i * 8].copy_from_slice(&t.to_le_bytes());
        }

        for (t, slot) in targets().zip(images.chunks_exact_mut(BLOCK_SIZE)) {
            if let Some(img) = image_of(t) {
                slot.copy_from_slice(img);
            }
        }

        // Commit record.
        commit[0..4].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
        commit[4..12].copy_from_slice(&seq.to_le_bytes());

        let base = self.start + self.head;
        let commit_block = base + 1 + count as u64;
        Some(CommitPlan {
            commands: [(base, 1 + count as u32), (commit_block, 1)],
            seq,
        })
    }

    /// Completes the commit [`prepare`](Journal::prepare) built into
    /// `bytes`, after the device took it: moves the committed blocks
    /// from the running transaction to the checkpoint-pending set with
    /// their committed images, and advances the log head and sequence.
    pub(crate) fn complete(&mut self, plan: &CommitPlan, bytes: &[u8]) {
        assert_eq!(plan.seq, self.next_seq, "completing a stale plan");
        let count = plan.commands[0].1 as usize - 1;
        let images = bytes[BLOCK_SIZE..].chunks_exact(BLOCK_SIZE).take(count);
        for img in images {
            let (t, ()) = self
                .running
                .pop_first()
                .expect("planned block still running");
            self.checkpoint_pending.insert(t, Image::from_slice(img));
        }
        self.next_seq += 1;
        self.head += 2 + count as u64;
    }

    /// The checkpoint-pending images, sorted by target block. The
    /// caller writes them in place, persists the advanced sequence
    /// number in the superblock, and then calls
    /// [`checkpointed`](Journal::checkpointed).
    pub(crate) fn pending(&self) -> &BTreeMap<BlockNo, Image> {
        &self.checkpoint_pending
    }

    /// Forgets the checkpoint-pending images, now in place, and resets
    /// the log head.
    pub(crate) fn checkpointed(&mut self) {
        self.head = 0;
        self.checkpoint_pending.clear();
    }

    /// Number of blocks awaiting checkpoint.
    pub(crate) fn checkpoint_pending_len(&self) -> usize {
        self.checkpoint_pending.len()
    }

    /// The committed image of `bno` if it awaits checkpoint. Readers
    /// must prefer this over the device: the home location is stale
    /// until the checkpoint writes it back.
    pub(crate) fn pending_image(&self, bno: BlockNo) -> Option<&[u8; BLOCK_SIZE]> {
        self.checkpoint_pending.get(&bno).map(|img| &**img)
    }
}

/// Scans a journal region image for transactions with sequence numbers
/// `>= min_seq`, in order, stopping at the first gap or invalid
/// record. Returns the recovered `(target block, image)` writes (later
/// transactions override earlier ones) and the next sequence number.
///
/// # Errors
///
/// Returns [`FsError::Corrupt`] if a descriptor is malformed (count
/// out of range).
pub(crate) fn replay_scan(
    region: &[u8],
    min_seq: u64,
) -> FsResult<(BTreeMap<BlockNo, Image>, u64)> {
    let nblocks = region.len() / BLOCK_SIZE;
    let mut recovered: BTreeMap<BlockNo, Image> = BTreeMap::new();
    let mut expect_seq = min_seq;
    let mut i = 0usize;
    while i < nblocks {
        let b = &region[i * BLOCK_SIZE..][..BLOCK_SIZE];
        let magic = u32::from_le_bytes(b[0..4].try_into().unwrap());
        if magic != DESC_MAGIC {
            break;
        }
        let seq = u64::from_le_bytes(b[4..12].try_into().unwrap());
        if seq != expect_seq {
            break;
        }
        let count = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
        if count == 0 || count > MAX_TXN_BLOCKS || i + 1 + count >= nblocks {
            return Err(FsError::Corrupt("journal descriptor out of range"));
        }
        // The transaction only counts if its commit record landed.
        let cb = &region[(i + 1 + count) * BLOCK_SIZE..][..BLOCK_SIZE];
        let cmagic = u32::from_le_bytes(cb[0..4].try_into().unwrap());
        let cseq = u64::from_le_bytes(cb[4..12].try_into().unwrap());
        if cmagic != COMMIT_MAGIC || cseq != seq {
            break; // torn commit: everything from here on is discarded
        }
        for k in 0..count {
            let target = u64::from_le_bytes(b[16 + k * 8..24 + k * 8].try_into().unwrap());
            let img = &region[(i + 1 + k) * BLOCK_SIZE..][..BLOCK_SIZE];
            recovered.insert(target, Image::from_slice(img));
        }
        expect_seq = seq + 1;
        i += 2 + count;
    }
    Ok((recovered, expect_seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fill: u8) -> [u8; BLOCK_SIZE] {
        [fill; BLOCK_SIZE]
    }

    /// Prepares a commit and completes it, as a commit whose device
    /// writes succeed does.
    fn commit<'a>(
        j: &mut Journal,
        image_of: impl Fn(BlockNo) -> Option<&'a [u8; BLOCK_SIZE]>,
        out: &mut Vec<u8>,
    ) -> Option<CommitPlan> {
        let plan = j.prepare(image_of, out)?;
        j.complete(&plan, out);
        Some(plan)
    }

    /// Lays committed byte images out in a journal region of `len`
    /// blocks starting at device block `start`.
    fn region_from(commits: &[(&CommitPlan, &[u8])], start: BlockNo, len: u64) -> Vec<u8> {
        let mut region = vec![0u8; (len as usize) * BLOCK_SIZE];
        for (plan, bytes) in commits {
            let off = ((plan.commands[0].0 - start) as usize) * BLOCK_SIZE;
            region[off..off + bytes.len()].copy_from_slice(bytes);
        }
        region
    }

    #[test]
    fn empty_transaction_commits_nothing() {
        let mut j = Journal::new(2, 64, 1);
        assert!(commit(&mut j, |_| None, &mut Vec::new()).is_none());
        assert_eq!(j.blocks_needed(), 0);
    }

    #[test]
    fn commit_produces_two_commands() {
        let mut j = Journal::new(2, 64, 1);
        j.add(100);
        j.add(50);
        j.add(100); // duplicate folds away
        assert_eq!(j.blocks_needed(), 4); // desc + 2 images + commit
        let (i50, i100) = (image(50), image(100));
        let mut out = Vec::new();
        let plan = commit(
            &mut j,
            |b| Some(if b == 50 { &i50 } else { &i100 }),
            &mut out,
        )
        .unwrap();
        assert_eq!(plan.commands, [(2, 3), (5, 1)]);
        assert_eq!(out.len(), 4 * BLOCK_SIZE);
        // Images follow the descriptor in target order.
        assert_eq!(out[BLOCK_SIZE], 50);
        assert_eq!(out[2 * BLOCK_SIZE], 100);
        assert!(j.running_is_empty());
        assert_eq!(j.checkpoint_pending_len(), 2);
        assert_eq!(j.pending_image(50), Some(&i50));
    }

    #[test]
    fn a_prepared_commit_changes_nothing_until_completed() {
        let mut j = Journal::new(2, 64, 1);
        j.add(100);
        j.add(50);
        let img = image(7);
        let mut out = Vec::new();
        let first = j.prepare(|_| Some(&img), &mut out).unwrap();
        // The device rejected it: the same commit is prepared again.
        let mut again = Vec::new();
        let second = j.prepare(|_| Some(&img), &mut again).unwrap();
        assert_eq!((first.commands, first.seq), (second.commands, second.seq));
        assert_eq!(out, again);
        assert_eq!(j.checkpoint_pending_len(), 0);
        assert_eq!(j.blocks_needed(), 4);
        j.complete(&second, &again);
        assert!(j.running_is_empty());
        assert_eq!(j.pending_image(50), Some(&img));
        assert_eq!(j.next_seq(), 2);
        let mut next = Vec::new();
        j.add(9);
        let plan = j.prepare(|_| None, &mut next).unwrap();
        assert_eq!(plan.commands, [(6, 2), (8, 1)], "after the first commit");
    }

    #[test]
    fn evicted_block_commits_as_zeros() {
        let mut j = Journal::new(2, 64, 1);
        j.add(100);
        let mut out = vec![0xFFu8; 8 * BLOCK_SIZE]; // stale scratch
        commit(&mut j, |_| None, &mut out).unwrap();
        assert_eq!(out.len(), 3 * BLOCK_SIZE);
        assert!(out[BLOCK_SIZE..2 * BLOCK_SIZE].iter().all(|&b| b == 0));
        assert_eq!(j.pending_image(100), Some(&image(0)));
    }

    #[test]
    fn replay_recovers_committed_transactions() {
        let mut j = Journal::new(2, 64, 1);
        let (one, two, nine) = (image(1), image(2), image(9));
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        j.add(100);
        let p1 = commit(&mut j, |_| Some(&one), &mut b1).unwrap();
        j.add(200);
        j.add(100); // overwrite 100 in a later txn
        let p2 = commit(
            &mut j,
            |b| Some(if b == 100 { &nine } else { &two }),
            &mut b2,
        )
        .unwrap();
        let region = region_from(&[(&p1, &b1), (&p2, &b2)], 2, 64);
        let (rec, next) = replay_scan(&region, 1).unwrap();
        assert_eq!(next, 3);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec[&100][0], 9, "later transaction wins");
        assert_eq!(rec[&200][0], 2);
    }

    #[test]
    fn replay_ignores_torn_commit() {
        let mut j = Journal::new(2, 64, 1);
        let (one, two) = (image(1), image(2));
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        j.add(100);
        let p1 = commit(&mut j, |_| Some(&one), &mut b1).unwrap();
        j.add(200);
        let p2 = commit(&mut j, |_| Some(&two), &mut b2).unwrap();
        // Drop the commit record of txn 2 ("crash mid-commit").
        b2.truncate(b2.len() - BLOCK_SIZE);
        let region = region_from(&[(&p1, &b1), (&p2, &b2)], 2, 64);
        let (rec, next) = replay_scan(&region, 1).unwrap();
        assert_eq!(next, 2);
        assert!(rec.contains_key(&100));
        assert!(!rec.contains_key(&200), "uncommitted txn discarded");
    }

    #[test]
    fn replay_respects_min_seq() {
        let mut j = Journal::new(2, 64, 5);
        j.add(100);
        let one = image(1);
        let mut bytes = Vec::new();
        let p = commit(&mut j, |_| Some(&one), &mut bytes).unwrap();
        let region = region_from(&[(&p, &bytes)], 2, 64);
        // Already checkpointed past seq 5: nothing to replay.
        let (rec, next) = replay_scan(&region, 6).unwrap();
        assert!(rec.is_empty());
        assert_eq!(next, 6);
    }

    #[test]
    fn checkpoint_resets_head() {
        let mut j = Journal::new(2, 8, 1);
        let img = image(1);
        let mut out = Vec::new();
        j.add(100);
        j.add(101);
        commit(&mut j, |_| Some(&img), &mut out).unwrap();
        // head = 4 of 8; a 3-block txn (2 targets) fits exactly…
        j.add(102);
        assert!(!j.needs_checkpoint());
        j.add(103);
        j.add(104);
        // desc + 3 + commit = 5 > remaining 4.
        assert!(j.needs_checkpoint());
        assert_eq!(j.pending().keys().copied().collect::<Vec<_>>(), [100, 101]);
        j.checkpointed();
        assert_eq!(j.checkpoint_pending_len(), 0);
        assert!(!j.needs_checkpoint());
        assert!(commit(&mut j, |_| Some(&img), &mut out).is_some());
    }

    #[test]
    fn replay_rejects_corrupt_descriptor() {
        let mut region = vec![0u8; 8 * BLOCK_SIZE];
        region[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        region[4..12].copy_from_slice(&1u64.to_le_bytes());
        region[12..16].copy_from_slice(&10_000u32.to_le_bytes()); // absurd count
        assert!(replay_scan(&region, 1).is_err());
    }

    #[test]
    fn empty_region_replays_clean() {
        let region = vec![0u8; 8 * BLOCK_SIZE];
        let (rec, next) = replay_scan(&region, 3).unwrap();
        assert!(rec.is_empty());
        assert_eq!(next, 3);
    }
}
