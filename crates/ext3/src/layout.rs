//! On-disk layout: superblock, group descriptors, and inodes, with
//! real byte-level encoding so the file system survives unmount,
//! remount, and crash-replay across a raw block device.
//!
//! The layout follows ext2/ext3 in spirit at 4 KiB block size:
//!
//! ```text
//! block 0               superblock
//! block 1               group descriptor table
//! block 2..2+J          journal region (J blocks, fixed at mkfs)
//! then per group g:     block bitmap, inode bitmap, inode table,
//!                       data blocks
//! ```

use crate::error::{FsError, FsResult};
use blockdev::BLOCK_SIZE;

/// Magic number identifying the file system ("XT3S" little-endian).
pub const SUPER_MAGIC: u32 = 0x5333_5458;
/// Inode size in bytes (ext2's enlarged inode).
pub const INODE_SIZE: usize = 128;
/// Inodes per on-disk inode-table block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;
/// Blocks covered by one block-bitmap block (one group).
pub const BLOCKS_PER_GROUP: u64 = (BLOCK_SIZE * 8) as u64;
/// Inodes per group.
pub const INODES_PER_GROUP: u64 = 8192;
/// Inode-table blocks per group.
pub const ITABLE_BLOCKS: u64 = INODES_PER_GROUP / INODES_PER_BLOCK as u64;
/// The root directory's inode number (ext2 convention).
pub const ROOT_INO: u32 = 2;
/// First inode number handed out to ordinary files.
pub const FIRST_FREE_INO: u32 = 11;
/// Direct block pointers in an inode.
pub const N_DIRECT: usize = 12;
/// Block pointers per indirect block.
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 4;
/// Longest symlink target stored inline in the inode ("fast" symlink).
pub const FAST_SYMLINK_MAX: usize = (N_DIRECT + 2) * 4;
/// Maximum file name length.
pub const NAME_MAX: usize = 255;
/// Maximum hard links per inode.
pub const LINK_MAX: u16 = 32000;

/// File type bits stored in an inode's mode (high nibble-ish, as in
/// POSIX `S_IFMT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

impl FileType {
    /// The `S_IFMT` bits for this type.
    pub(crate) fn mode_bits(self) -> u16 {
        match self {
            FileType::Regular => 0o100000,
            FileType::Directory => 0o040000,
            FileType::Symlink => 0o120000,
        }
    }

    /// Parses the `S_IFMT` bits of a mode.
    pub(crate) fn from_mode(mode: u16) -> FsResult<FileType> {
        match mode & 0o170000 {
            0o100000 => Ok(FileType::Regular),
            0o040000 => Ok(FileType::Directory),
            0o120000 => Ok(FileType::Symlink),
            _ => Err(FsError::Corrupt("unknown file type in mode")),
        }
    }

    /// Directory-entry type code.
    pub(crate) fn dirent_code(self) -> u8 {
        match self {
            FileType::Regular => 1,
            FileType::Directory => 2,
            FileType::Symlink => 7,
        }
    }
}

/// The superblock, stored in block 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperBlock {
    /// Total blocks on the volume.
    pub blocks_count: u64,
    /// Number of block groups.
    pub groups_count: u32,
    /// First block of the journal region.
    pub journal_start: u64,
    /// Length of the journal region in blocks.
    pub journal_len: u64,
    /// Next journal sequence number to use after the last clean
    /// shutdown (replay scans for sequences ≥ this - epsilon).
    pub journal_seq: u64,
    /// 1 if the file system was unmounted cleanly.
    pub clean: bool,
}

impl SuperBlock {
    /// Serializes into a 4 KiB block image.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[0..4].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
        b[8..16].copy_from_slice(&self.blocks_count.to_le_bytes());
        b[16..20].copy_from_slice(&self.groups_count.to_le_bytes());
        b[24..32].copy_from_slice(&self.journal_start.to_le_bytes());
        b[32..40].copy_from_slice(&self.journal_len.to_le_bytes());
        b[40..48].copy_from_slice(&self.journal_seq.to_le_bytes());
        b[48] = self.clean as u8;
        b
    }

    /// Parses a superblock image.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] on a bad magic number.
    pub(crate) fn decode(b: &[u8]) -> FsResult<SuperBlock> {
        let magic = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        if magic != SUPER_MAGIC {
            return Err(FsError::Corrupt("bad superblock magic"));
        }
        Ok(SuperBlock {
            blocks_count: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            groups_count: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            journal_start: u64::from_le_bytes(b[24..32].try_into().unwrap()),
            journal_len: u64::from_le_bytes(b[32..40].try_into().unwrap()),
            journal_seq: u64::from_le_bytes(b[40..48].try_into().unwrap()),
            clean: b[48] != 0,
        })
    }
}

/// Per-group bookkeeping, all groups packed into block 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupDesc {
    /// Block number of the group's block bitmap.
    pub block_bitmap: u64,
    /// Block number of the group's inode bitmap.
    pub inode_bitmap: u64,
    /// First block of the group's inode table.
    pub inode_table: u64,
    /// Free blocks in the group (allocator hint).
    pub free_blocks: u32,
    /// Free inodes in the group.
    pub free_inodes: u32,
}

/// Bytes per encoded group descriptor.
pub const GROUP_DESC_SIZE: usize = 32;

impl GroupDesc {
    /// Serializes into `GROUP_DESC_SIZE` bytes.
    pub(crate) fn encode(&self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.block_bitmap.to_le_bytes());
        out[8..16].copy_from_slice(&self.inode_bitmap.to_le_bytes());
        out[16..24].copy_from_slice(&self.inode_table.to_le_bytes());
        out[24..28].copy_from_slice(&self.free_blocks.to_le_bytes());
        out[28..32].copy_from_slice(&self.free_inodes.to_le_bytes());
    }

    /// Parses from `GROUP_DESC_SIZE` bytes.
    pub(crate) fn decode(b: &[u8]) -> GroupDesc {
        GroupDesc {
            block_bitmap: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            inode_bitmap: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            inode_table: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            free_blocks: u32::from_le_bytes(b[24..28].try_into().unwrap()),
            free_inodes: u32::from_le_bytes(b[28..32].try_into().unwrap()),
        }
    }
}

/// An in-memory inode, 1:1 with its 128-byte on-disk image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// File type and permission bits.
    pub mode: u16,
    /// Hard-link count.
    pub links: u16,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// Access time (ns since epoch of the simulation).
    pub atime: u64,
    /// Modification time.
    pub mtime: u64,
    /// Change time.
    pub ctime: u64,
    /// 12 direct pointers, 1 indirect, 1 double indirect. Zero means
    /// "hole". For fast symlinks this area holds the target bytes.
    pub block: [u32; N_DIRECT + 2],
    /// Blocks actually allocated to the file (for `stat.st_blocks`
    /// and the fsck accounting).
    pub nblocks: u32,
}

impl Inode {
    /// A zeroed (free) inode.
    pub(crate) fn empty() -> Inode {
        Inode {
            mode: 0,
            links: 0,
            uid: 0,
            gid: 0,
            size: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            block: [0; N_DIRECT + 2],
            nblocks: 0,
        }
    }

    /// A fresh inode of the given type and permissions.
    pub(crate) fn new(ftype: FileType, perms: u16, now: u64) -> Inode {
        Inode {
            mode: ftype.mode_bits() | (perms & 0o7777),
            links: 1,
            uid: 0,
            gid: 0,
            size: 0,
            atime: now,
            mtime: now,
            ctime: now,
            block: [0; N_DIRECT + 2],
            nblocks: 0,
        }
    }

    /// The inode's file type.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] if the mode bits are invalid.
    pub(crate) fn file_type(&self) -> FsResult<FileType> {
        FileType::from_mode(self.mode)
    }

    /// True if the inode is unallocated.
    pub(crate) fn is_free(&self) -> bool {
        self.mode == 0 && self.links == 0
    }

    /// Serializes into a 128-byte slot.
    pub(crate) fn encode(&self, out: &mut [u8]) {
        out[..INODE_SIZE].fill(0);
        out[0..2].copy_from_slice(&self.mode.to_le_bytes());
        out[2..4].copy_from_slice(&self.links.to_le_bytes());
        out[4..8].copy_from_slice(&self.uid.to_le_bytes());
        out[8..12].copy_from_slice(&self.gid.to_le_bytes());
        out[12..20].copy_from_slice(&self.size.to_le_bytes());
        out[20..28].copy_from_slice(&self.atime.to_le_bytes());
        out[28..36].copy_from_slice(&self.mtime.to_le_bytes());
        out[36..44].copy_from_slice(&self.ctime.to_le_bytes());
        for (i, p) in self.block.iter().enumerate() {
            out[44 + i * 4..48 + i * 4].copy_from_slice(&p.to_le_bytes());
        }
        out[100..104].copy_from_slice(&self.nblocks.to_le_bytes());
    }

    /// Parses from a 128-byte slot.
    pub(crate) fn decode(b: &[u8]) -> Inode {
        let mut block = [0u32; N_DIRECT + 2];
        for (i, p) in block.iter_mut().enumerate() {
            *p = u32::from_le_bytes(b[44 + i * 4..48 + i * 4].try_into().unwrap());
        }
        Inode {
            mode: u16::from_le_bytes(b[0..2].try_into().unwrap()),
            links: u16::from_le_bytes(b[2..4].try_into().unwrap()),
            uid: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            gid: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            size: u64::from_le_bytes(b[12..20].try_into().unwrap()),
            atime: u64::from_le_bytes(b[20..28].try_into().unwrap()),
            mtime: u64::from_le_bytes(b[28..36].try_into().unwrap()),
            ctime: u64::from_le_bytes(b[36..44].try_into().unwrap()),
            block,
            nblocks: u32::from_le_bytes(b[100..104].try_into().unwrap()),
        }
    }

    /// Reads the fast-symlink target stored in the pointer area.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotASymlink`] for other inode types.
    pub(crate) fn fast_symlink_target(&self) -> FsResult<String> {
        if self.file_type()? != FileType::Symlink {
            return Err(FsError::NotASymlink);
        }
        let mut bytes = Vec::with_capacity(self.size as usize);
        for p in &self.block {
            bytes.extend_from_slice(&p.to_le_bytes());
        }
        bytes.truncate(self.size as usize);
        String::from_utf8(bytes).map_err(|_| FsError::Corrupt("symlink target not UTF-8"))
    }

    /// Stores a fast-symlink target in the pointer area.
    ///
    /// # Panics
    ///
    /// Panics if the target exceeds [`FAST_SYMLINK_MAX`].
    pub(crate) fn set_fast_symlink_target(&mut self, target: &str) {
        assert!(target.len() <= FAST_SYMLINK_MAX);
        let mut bytes = [0u8; FAST_SYMLINK_MAX];
        bytes[..target.len()].copy_from_slice(target.as_bytes());
        for (i, p) in self.block.iter_mut().enumerate() {
            *p = u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
        }
        self.size = target.len() as u64;
    }
}

/// Computed block addresses for one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLayout {
    /// First block of the group.
    pub start: u64,
    /// Block bitmap block.
    pub block_bitmap: u64,
    /// Inode bitmap block.
    pub inode_bitmap: u64,
    /// First inode-table block.
    pub inode_table: u64,
    /// First data block.
    pub data_start: u64,
    /// One past the last block of the group.
    pub end: u64,
}

/// Computes the layout of group `g` for a volume with a journal of
/// `journal_len` blocks. Groups start after block 0 (superblock),
/// block 1 (descriptors), and the journal region.
pub(crate) fn group_layout(g: u32, journal_len: u64, blocks_count: u64) -> GroupLayout {
    let meta_end = 2 + journal_len;
    let start = meta_end + g as u64 * BLOCKS_PER_GROUP;
    let end = (start + BLOCKS_PER_GROUP).min(blocks_count);
    GroupLayout {
        start,
        block_bitmap: start,
        inode_bitmap: start + 1,
        inode_table: start + 2,
        data_start: start + 2 + ITABLE_BLOCKS,
        end,
    }
}

/// Smallest group worth laying out: its metadata (two bitmaps and the
/// inode table) plus a few data blocks.
const MIN_GROUP_BLOCKS: u64 = 2 + ITABLE_BLOCKS + 64;

/// Smallest volume `groups_for` (hence mkfs) accepts with a journal
/// of `journal_len` blocks: superblock, descriptors, the journal, and
/// one block more than a minimal group. Callers that carve volumes
/// (per-client iSCSI LUNs) size against this instead of repeating the
/// arithmetic.
pub const fn min_volume_blocks(journal_len: u64) -> u64 {
    2 + journal_len + MIN_GROUP_BLOCKS + 1
}

/// Number of groups for a volume of `blocks_count` blocks and a
/// journal of `journal_len` blocks (partial trailing groups allowed as
/// long as they can hold their metadata).
pub(crate) fn groups_for(blocks_count: u64, journal_len: u64) -> u32 {
    assert!(
        blocks_count >= min_volume_blocks(journal_len),
        "volume too small"
    );
    let usable = blocks_count - (2 + journal_len);
    let full = usable / BLOCKS_PER_GROUP;
    let rem = usable % BLOCKS_PER_GROUP;
    (full + u64::from(rem >= MIN_GROUP_BLOCKS)).max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_round_trips() {
        let sb = SuperBlock {
            blocks_count: 1 << 20,
            groups_count: 32,
            journal_start: 2,
            journal_len: 1024,
            journal_seq: 99,
            clean: true,
        };
        assert_eq!(SuperBlock::decode(&sb.encode()).unwrap(), sb);
    }

    #[test]
    fn superblock_rejects_bad_magic() {
        let b = vec![0u8; BLOCK_SIZE];
        assert!(matches!(
            SuperBlock::decode(&b),
            Err(FsError::Corrupt("bad superblock magic"))
        ));
    }

    #[test]
    fn group_desc_round_trips() {
        let gd = GroupDesc {
            block_bitmap: 100,
            inode_bitmap: 101,
            inode_table: 102,
            free_blocks: 5000,
            free_inodes: 8000,
        };
        let mut buf = [0u8; GROUP_DESC_SIZE];
        gd.encode(&mut buf);
        assert_eq!(GroupDesc::decode(&buf), gd);
    }

    #[test]
    fn inode_round_trips() {
        let mut ino = Inode::new(FileType::Regular, 0o644, 12345);
        ino.size = 1 << 33;
        ino.links = 3;
        ino.block[0] = 77;
        ino.block[13] = 0xFFFF_FFFF;
        ino.nblocks = 9;
        let mut buf = [0u8; INODE_SIZE];
        ino.encode(&mut buf);
        assert_eq!(Inode::decode(&buf), ino);
    }

    #[test]
    fn fresh_inode_has_one_link() {
        let ino = Inode::new(FileType::Directory, 0o755, 0);
        assert_eq!(ino.links, 1);
        assert_eq!(ino.file_type().unwrap(), FileType::Directory);
        assert!(!ino.is_free());
        assert!(Inode::empty().is_free());
    }

    #[test]
    fn fast_symlink_round_trips() {
        let mut ino = Inode::new(FileType::Symlink, 0o777, 0);
        ino.set_fast_symlink_target("../some/where");
        assert_eq!(ino.fast_symlink_target().unwrap(), "../some/where");
        // Non-symlink rejects.
        let f = Inode::new(FileType::Regular, 0o644, 0);
        assert_eq!(f.fast_symlink_target(), Err(FsError::NotASymlink));
    }

    #[test]
    fn group_layout_is_contiguous() {
        let jlen = 256;
        let blocks = 200_000;
        let g0 = group_layout(0, jlen, blocks);
        assert_eq!(g0.start, 2 + jlen);
        assert_eq!(g0.data_start, g0.inode_table + ITABLE_BLOCKS);
        let g1 = group_layout(1, jlen, blocks);
        assert_eq!(g1.start, g0.start + BLOCKS_PER_GROUP);
    }

    #[test]
    fn groups_for_counts_partials() {
        let jlen = 256;
        // Exactly one full group plus a viable partial.
        let blocks = 2 + jlen + BLOCKS_PER_GROUP + 2 + ITABLE_BLOCKS + 100;
        assert_eq!(groups_for(blocks, jlen), 2);
        // A tiny tail is ignored.
        let blocks = 2 + jlen + BLOCKS_PER_GROUP + 10;
        assert_eq!(groups_for(blocks, jlen), 1);
    }

    #[test]
    fn file_types_round_trip_mode_bits() {
        for t in [FileType::Regular, FileType::Directory, FileType::Symlink] {
            assert_eq!(FileType::from_mode(t.mode_bits() | 0o644).unwrap(), t);
        }
        assert!(FileType::from_mode(0).is_err());
    }
}
