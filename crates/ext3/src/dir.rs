//! Directory-entry blocks in the classic ext2 linear format.
//!
//! Each directory data block is a chain of records:
//!
//! ```text
//! | ino: u32 | rec_len: u16 | name_len: u8 | ftype: u8 | name ... pad |
//! ```
//!
//! `rec_len` always reaches the next record (or the end of the block),
//! so deletion just folds a record's space into its predecessor — the
//! same trick real ext2/ext3 uses.

use crate::error::{FsError, FsResult};
use crate::layout::{FileType, NAME_MAX};
use blockdev::BLOCK_SIZE;

/// Fixed header bytes before the name.
pub const DIRENT_HEADER: usize = 8;

/// A parsed directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Inode number (0 = unused slot).
    pub ino: u32,
    /// Entry name.
    pub name: String,
    /// File type code (see `FileType::dirent_code`).
    pub ftype: u8,
}

fn rec_len_for(name_len: usize) -> usize {
    (DIRENT_HEADER + name_len + 3) & !3
}

fn read_rec(block: &[u8], off: usize) -> (u32, usize, usize, u8) {
    let ino = u32::from_le_bytes(block[off..off + 4].try_into().unwrap());
    let rec_len = u16::from_le_bytes(block[off + 4..off + 6].try_into().unwrap()) as usize;
    let name_len = block[off + 6] as usize;
    let ftype = block[off + 7];
    (ino, rec_len, name_len, ftype)
}

/// Initializes an empty directory block: one free record spanning the
/// whole block.
pub(crate) fn init_block(block: &mut [u8]) {
    block.fill(0);
    block[4..6].copy_from_slice(&(BLOCK_SIZE as u16).to_le_bytes());
}

/// Validates a name for use as a directory entry.
///
/// # Errors
///
/// Returns [`FsError::InvalidName`] for empty names, names over
/// [`NAME_MAX`], or names containing `/` or NUL.
pub(crate) fn check_name(name: &str) -> FsResult<()> {
    if name.is_empty() || name.len() > NAME_MAX || name.contains(['/', '\0']) {
        return Err(FsError::InvalidName);
    }
    Ok(())
}

/// Iterates the live entries of one directory block.
pub(crate) fn entries(block: &[u8]) -> Vec<DirEntry> {
    let mut out = Vec::new();
    let mut off = 0;
    while off + DIRENT_HEADER <= BLOCK_SIZE {
        let (ino, rec_len, name_len, ftype) = read_rec(block, off);
        if rec_len < DIRENT_HEADER || off + rec_len > BLOCK_SIZE {
            break; // corrupt chain: stop rather than loop
        }
        if ino != 0 && name_len > 0 {
            let name =
                String::from_utf8_lossy(&block[off + DIRENT_HEADER..][..name_len]).into_owned();
            out.push(DirEntry { ino, name, ftype });
        }
        off += rec_len;
    }
    out
}

/// Finds `name` in the block; returns its inode and type.
pub(crate) fn find(block: &[u8], name: &str) -> Option<(u32, u8)> {
    let mut off = 0;
    while off + DIRENT_HEADER <= BLOCK_SIZE {
        let (ino, rec_len, name_len, ftype) = read_rec(block, off);
        if rec_len < DIRENT_HEADER || off + rec_len > BLOCK_SIZE {
            break;
        }
        if ino != 0
            && name_len == name.len()
            && &block[off + DIRENT_HEADER..][..name_len] == name.as_bytes()
        {
            return Some((ino, ftype));
        }
        off += rec_len;
    }
    None
}

/// Inserts an entry, splitting a record with enough slack. Returns
/// `true` on success, `false` if the block is full.
pub(crate) fn insert(block: &mut [u8], name: &str, ino: u32, ftype: FileType) -> bool {
    debug_assert!(check_name(name).is_ok());
    let needed = rec_len_for(name.len());
    let mut off = 0;
    while off + DIRENT_HEADER <= BLOCK_SIZE {
        let (cur_ino, rec_len, name_len, _) = read_rec(block, off);
        if rec_len < DIRENT_HEADER || off + rec_len > BLOCK_SIZE {
            return false;
        }
        let used = if cur_ino == 0 {
            0
        } else {
            rec_len_for(name_len)
        };
        if rec_len - used >= needed {
            let (slot, slot_len) = if cur_ino == 0 {
                (off, rec_len)
            } else {
                // Shrink the current record to its used size and carve
                // the new one out of the tail.
                block[off + 4..off + 6].copy_from_slice(&(used as u16).to_le_bytes());
                (off + used, rec_len - used)
            };
            block[slot..slot + 4].copy_from_slice(&ino.to_le_bytes());
            block[slot + 4..slot + 6].copy_from_slice(&(slot_len as u16).to_le_bytes());
            block[slot + 6] = name.len() as u8;
            block[slot + 7] = ftype.dirent_code();
            block[slot + DIRENT_HEADER..][..name.len()].copy_from_slice(name.as_bytes());
            return true;
        }
        off += rec_len;
    }
    false
}

/// Removes `name` from the block. Returns the removed inode number, or
/// `None` if absent.
pub(crate) fn remove(block: &mut [u8], name: &str) -> Option<u32> {
    let mut prev: Option<usize> = None;
    let mut off = 0;
    while off + DIRENT_HEADER <= BLOCK_SIZE {
        let (ino, rec_len, name_len, _) = read_rec(block, off);
        if rec_len < DIRENT_HEADER || off + rec_len > BLOCK_SIZE {
            return None;
        }
        if ino != 0
            && name_len == name.len()
            && &block[off + DIRENT_HEADER..][..name_len] == name.as_bytes()
        {
            match prev {
                Some(p) => {
                    // Fold this record into its predecessor.
                    let (_, prev_len, _, _) = read_rec(block, p);
                    let merged = (prev_len + rec_len) as u16;
                    block[p + 4..p + 6].copy_from_slice(&merged.to_le_bytes());
                }
                None => {
                    // First record: mark the slot free, keep rec_len.
                    block[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
                    block[off + 6] = 0;
                }
            }
            return Some(ino);
        }
        prev = Some(off);
        off += rec_len;
    }
    None
}

/// Replaces the inode an existing entry points at (rename-over).
/// Returns the old inode, or `None` if the name is absent.
pub(crate) fn replace(block: &mut [u8], name: &str, new_ino: u32, ftype: FileType) -> Option<u32> {
    let mut off = 0;
    while off + DIRENT_HEADER <= BLOCK_SIZE {
        let (ino, rec_len, name_len, _) = read_rec(block, off);
        if rec_len < DIRENT_HEADER || off + rec_len > BLOCK_SIZE {
            return None;
        }
        if ino != 0
            && name_len == name.len()
            && &block[off + DIRENT_HEADER..][..name_len] == name.as_bytes()
        {
            block[off..off + 4].copy_from_slice(&new_ino.to_le_bytes());
            block[off + 7] = ftype.dirent_code();
            return Some(ino);
        }
        off += rec_len;
    }
    None
}

/// True if the block holds no live entries other than `.` and `..`.
pub(crate) fn is_effectively_empty(block: &[u8]) -> bool {
    entries(block)
        .iter()
        .all(|e| e.name == "." || e.name == "..")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        init_block(&mut b);
        b
    }

    #[test]
    fn empty_block_has_no_entries() {
        let b = fresh();
        assert!(entries(&b).is_empty());
        assert!(is_effectively_empty(&b));
    }

    #[test]
    fn insert_find_remove() {
        let mut b = fresh();
        assert!(insert(&mut b, "hello", 42, FileType::Regular));
        assert_eq!(find(&b, "hello"), Some((42, 1)));
        assert_eq!(find(&b, "world"), None);
        assert_eq!(remove(&mut b, "hello"), Some(42));
        assert_eq!(find(&b, "hello"), None);
        assert!(entries(&b).is_empty());
    }

    #[test]
    fn many_entries_then_enumerate() {
        let mut b = fresh();
        for i in 0..100 {
            assert!(insert(&mut b, &format!("f{i}"), i + 1, FileType::Regular));
        }
        let es = entries(&b);
        assert_eq!(es.len(), 100);
        assert_eq!(es[0].name, "f0");
        assert_eq!(es[99].ino, 100);
    }

    #[test]
    fn block_fills_up() {
        let mut b = fresh();
        let mut n = 0;
        while insert(
            &mut b,
            &format!("some_longer_name_{n:05}"),
            n + 1,
            FileType::Regular,
        ) {
            n += 1;
        }
        // 28-byte records in 4096 bytes → about 146 entries.
        assert!(n > 100, "{n}");
        assert_eq!(entries(&b).len(), n as usize);
    }

    #[test]
    fn remove_first_then_reuse_slot() {
        let mut b = fresh();
        insert(&mut b, "a", 1, FileType::Regular);
        insert(&mut b, "b", 2, FileType::Regular);
        assert_eq!(remove(&mut b, "a"), Some(1));
        // The freed head slot is reusable.
        assert!(insert(&mut b, "c", 3, FileType::Directory));
        assert_eq!(find(&b, "c"), Some((3, 2)));
        assert_eq!(find(&b, "b"), Some((2, 1)));
    }

    #[test]
    fn remove_middle_merges_into_predecessor() {
        let mut b = fresh();
        insert(&mut b, "a", 1, FileType::Regular);
        insert(&mut b, "b", 2, FileType::Regular);
        insert(&mut b, "c", 3, FileType::Regular);
        assert_eq!(remove(&mut b, "b"), Some(2));
        let names: Vec<_> = entries(&b).into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "c"]);
        // The merged space is reusable for a long name.
        assert!(insert(&mut b, "bbbbbbbb", 4, FileType::Regular));
    }

    #[test]
    fn replace_swaps_target() {
        let mut b = fresh();
        insert(&mut b, "x", 7, FileType::Regular);
        assert_eq!(replace(&mut b, "x", 9, FileType::Directory), Some(7));
        assert_eq!(find(&b, "x"), Some((9, 2)));
        assert_eq!(replace(&mut b, "y", 1, FileType::Regular), None);
    }

    #[test]
    fn dot_entries_count_as_empty() {
        let mut b = fresh();
        insert(&mut b, ".", 5, FileType::Directory);
        insert(&mut b, "..", 2, FileType::Directory);
        assert!(is_effectively_empty(&b));
        insert(&mut b, "f", 9, FileType::Regular);
        assert!(!is_effectively_empty(&b));
    }

    #[test]
    fn name_validation() {
        assert!(check_name("ok").is_ok());
        assert!(check_name("").is_err());
        assert!(check_name("a/b").is_err());
        assert!(check_name("a\0b").is_err());
        assert!(check_name(&"x".repeat(256)).is_err());
        assert!(check_name(&"x".repeat(255)).is_ok());
    }

    #[test]
    fn corrupt_chain_does_not_loop() {
        let mut b = fresh();
        insert(&mut b, "a", 1, FileType::Regular);
        b[4..6].copy_from_slice(&3u16.to_le_bytes()); // rec_len < header
        let _ = entries(&b);
        let _ = find(&b, "a");
        let _ = remove(&mut b, "a");
    }
}
