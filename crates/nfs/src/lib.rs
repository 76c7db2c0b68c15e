//! NFS versions 2, 3 and 4 — client and server — for the `ipstorage`
//! testbed, plus the paper's §7 enhancements.
//!
//! The stack mirrors the paper's Figure 1(a)/2(a): applications on the
//! client issue system calls; the NFS client resolves paths component
//! by component against its dentry/attribute caches (Linux semantics:
//! cached meta-data is revalidated after 3 s, cached data after 30 s),
//! issuing RPCs over the simulated network to the server, where an
//! [`ext3::Ext3`] instance on the RAID volume executes them.
//!
//! Version differences modeled (paper §2):
//!
//! * **v2** — UDP, 8 KB maximum transfer, fully synchronous writes,
//!   extra trailing GETATTRs where the protocol returns no attributes;
//! * **v3** — TCP, asynchronous writes with a bounded pending-RPC
//!   window that degenerates to write-through when full (the Linux
//!   behaviour behind the paper's §4.5 write results), COMMIT;
//! * **v4** — TCP, stateful OPEN/CLOSE, larger transfers, and the
//!   per-component ACCESS checks the paper observed in the Linux/UMich
//!   client (§4.1 footnote 2).
//!
//! §7 enhancements ([`Enhancements`]): a strongly-consistent read-only
//! name/attribute cache (server-invalidated, so no revalidation
//! messages) and directory delegation (leased directories whose
//! meta-data updates are applied locally and flushed in aggregated
//! batches, like the ext3 journal).

mod client;
mod name;
mod pagecache;
mod server;
pub mod xdr;

pub use client::{NfsClient, NfsConfig, OpenFile};
pub use pagecache::PageCache;
pub use server::NfsServer;

/// Identifies which client a server-side RPC came from.
///
/// A real NFS server distinguishes callers by source address; the
/// testbed threads this id through every procedure instead. With a
/// single registered client the server's accounting is unchanged; once
/// several clients register (a multi-host topology), each procedure is
/// additionally tallied under `nfs.server.c<id>.<proc>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// NFS protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// NFS version 2 (RFC 1094).
    V2,
    /// NFS version 3 (RFC 1813).
    V3,
    /// NFS version 4 (RFC 3530).
    V4,
}

impl Version {
    /// Default transport for this version on the paper's testbed.
    pub fn transport(self) -> net::Transport {
        match self {
            Version::V2 => net::Transport::Udp,
            Version::V3 | Version::V4 => net::Transport::Tcp,
        }
    }

    /// Maximum read/write transfer size the Linux client uses.
    pub(crate) fn transfer_size(self) -> u64 {
        match self {
            // The paper: v3 "uses the same transfer limit as NFS v2".
            Version::V2 | Version::V3 => 8 * 1024,
            Version::V4 => 32 * 1024,
        }
    }

    /// Whether data writes may complete asynchronously at the client.
    pub(crate) fn async_writes(self) -> bool {
        !matches!(self, Version::V2)
    }

    /// Whether path resolution issues an ACCESS check per component
    /// (the Linux NFS v4 behaviour the paper measured).
    pub(crate) fn access_per_component(self) -> bool {
        matches!(self, Version::V4)
    }
}

/// A file handle: the server-side inode number (a real NFS handle
/// carries more, but a single-server testbed needs no more).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fh(pub u32);

impl From<u32> for Fh {
    fn from(ino: u32) -> Fh {
        Fh(ino)
    }
}

impl From<Fh> for u32 {
    fn from(fh: Fh) -> u32 {
        fh.0
    }
}

/// The §7 enhancements, individually switchable. NFS v4 file
/// delegation is not among them: the paper's Linux client/server pair
/// does not exercise it (§2.3), so a v4 read still pays the periodic
/// data consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Enhancements {
    /// Strongly-consistent read-only name/attribute cache: the server
    /// invalidates instead of the client revalidating, so meta-data
    /// *reads* hit the local cache with no messages.
    pub consistent_metadata_cache: bool,
    /// Directory delegation: leased directories accept local meta-data
    /// *updates*, flushed in aggregated batches.
    pub directory_delegation: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_properties_match_paper() {
        assert_eq!(Version::V2.transport(), net::Transport::Udp);
        assert_eq!(Version::V3.transport(), net::Transport::Tcp);
        assert!(!Version::V2.async_writes());
        assert!(Version::V3.async_writes());
        assert!(Version::V4.access_per_component());
        assert!(!Version::V3.access_per_component());
        assert_eq!(Version::V2.transfer_size(), 8192);
        assert_eq!(Version::V4.transfer_size(), 32768);
    }
}
