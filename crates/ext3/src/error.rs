//! File-system error type.

use std::fmt;

/// Errors returned by the ext3 implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component or inode not found.
    NotFound,
    /// Name already exists in the directory.
    Exists,
    /// Operation requires a directory but the inode is not one.
    NotADirectory,
    /// Operation requires a non-directory (e.g. `unlink` on a dir).
    IsADirectory,
    /// Directory not empty (rmdir).
    NotEmpty,
    /// No free inodes or blocks.
    NoSpace,
    /// Name too long or contains `/` or NUL.
    InvalidName,
    /// Offset/length outside representable file range.
    InvalidArgument,
    /// Too many hard links.
    TooManyLinks,
    /// Not a symlink (readlink).
    NotASymlink,
    /// I/O error from the block layer.
    Io(String),
    /// On-disk structures are corrupt (bad magic, bad journal, ...).
    Corrupt(&'static str),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NotADirectory => write!(f, "not a directory"),
            FsError::IsADirectory => write!(f, "is a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::InvalidName => write!(f, "invalid file name"),
            FsError::InvalidArgument => write!(f, "invalid argument"),
            FsError::TooManyLinks => write!(f, "too many links"),
            FsError::NotASymlink => write!(f, "not a symbolic link"),
            FsError::Io(msg) => write!(f, "i/o error: {msg}"),
            FsError::Corrupt(what) => write!(f, "filesystem corrupt: {what}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<blockdev::BlockError> for FsError {
    fn from(e: blockdev::BlockError) -> Self {
        FsError::Io(e.to_string())
    }
}

/// Result alias for file-system operations.
pub type FsResult<T> = Result<T, FsError>;

/// The `read(..) -> Vec<u8>` shape over a caller-buffer read: hands
/// `read_into` a zeroed buffer of `len` bytes and keeps what it filled.
///
/// # Errors
///
/// Whatever `read_into` returns.
pub fn read_to_vec(
    len: usize,
    read_into: impl FnOnce(&mut [u8]) -> FsResult<usize>,
) -> FsResult<Vec<u8>> {
    let mut out = vec![0u8; len];
    let n = read_into(&mut out)?;
    out.truncate(n);
    Ok(out)
}
