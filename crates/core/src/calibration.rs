//! Physical-time calibration of the simulated testbed.
//!
//! Message counts in this reproduction are *emergent* from the
//! protocol models and never calibrated. The constants here set only
//! physical time scales, chosen so the testbed's absolute numbers land
//! in the ballpark of the paper's Table 4 measurements (128 MB
//! sequential read ≈ 35 s, random read ≈ 55–64 s, iSCSI sequential
//! write ≈ 2 s), from which every other experiment's time axis
//! follows. Each constant is documented with its anchor.

use blockdev::DiskParams;
use simkit::SimDuration;

/// Effective mechanical parameters of one RAID-5 member as seen
/// through the ServeRAID controller.
///
/// The paper's arrays sustained only ≈ 3.7 MB/s of application-level
/// sequential throughput (128 MB / 35 s, Table 4) — far below the raw
/// drive rate, reflecting the synchronous request-at-a-time access
/// pattern, the controller, and 2004-era firmware. We therefore model
/// an *effective* member with 8 MB/s media rate and ~0.8 ms of
/// positioning for non-sequential requests (short-stroked 128 MB test
/// region + controller caching), which reproduces both the sequential
/// and the random rows of Table 4.
pub fn raid_member_params() -> DiskParams {
    DiskParams {
        avg_seek: SimDuration::from_micros(200),
        rotation: SimDuration::from_micros(1_200),
        transfer_rate: 8_000_000,
    }
}

/// Number of members per array: the paper's 4+p RAID-5.
pub const RAID_MEMBERS: usize = 5;

/// Foreground cost of a write absorbed by the ServeRAID controller's
/// battery-backed cache (destaging happens in the background).
pub fn controller_cache_hit() -> SimDuration {
    SimDuration::from_micros(250)
}

/// RAID-5 stripe unit in 4 KiB blocks (64 KiB, the ServeRAID default).
pub const RAID_STRIPE_UNIT: u64 = 16;

/// Default volume size in 4 KiB blocks (4 GiB — large enough for the
/// TPC-H scale-1 database plus PostMark pools).
pub const VOLUME_BLOCKS: u64 = 1_048_576;

/// Client page/buffer cache, in 4 KiB units (≈ 256 MB of the client's
/// 512 MB RAM).
pub(crate) const CLIENT_CACHE_BLOCKS: usize = 65_536;

/// Server buffer cache (the server has 1 GB of RAM; ≈ 512 MB cache).
pub(crate) const SERVER_CACHE_BLOCKS: usize = 131_072;

/// Client memory-copy cost per 4 KiB page. 60 µs/page ≈ 66 MB/s of
/// user↔page-cache bandwidth on the 1 GHz PIII client; this is what
/// bounds the 128 MB buffered write at ≈ 2 s (Table 4).
pub(crate) fn mem_copy_cost() -> SimDuration {
    SimDuration::from_micros(60)
}

/// ext3 options for the *client* file system in the iSCSI
/// configuration. The write-back interval, the dirty-data throttle and
/// the write-command merge limit are ext3 constants
/// ([`ext3::WRITEBACK_INTERVAL`], [`ext3::DIRTY_LIMIT_BLOCKS`]).
pub fn client_ext3_options() -> ext3::Options {
    ext3::Options {
        cache_blocks: CLIENT_CACHE_BLOCKS,
        commit_interval: SimDuration::from_secs(5),
        readahead_max: 16,
        mem_copy_cost: mem_copy_cost(),
        // The iSCSI client's file system (journal commits included)
        // runs on the client machine; multi-client topologies override
        // this per client.
        trace_host: simkit::HostId::client(0),
    }
}

/// ext3 options for the *server* file system in the NFS configuration.
/// Copies between the RPC layer and the page cache are part of the
/// server CPU model instead of `mem_copy_cost`.
pub fn server_ext3_options() -> ext3::Options {
    ext3::Options {
        cache_blocks: SERVER_CACHE_BLOCKS,
        mem_copy_cost: SimDuration::ZERO,
        trace_host: simkit::HostId::SERVER,
        ..client_ext3_options()
    }
}

/// How long the measurement harness lets background daemons settle so
/// journal commits and write-back are included in per-operation
/// message counts (the paper's Ethereal traces capture these deferred
/// writes). Two commit intervals plus slack.
pub fn settle_time() -> SimDuration {
    SimDuration::from_secs(12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_effective_rate_near_table4() {
        // One member at 8 MB/s; positioning amortized over a stripe
        // unit. The end-to-end check lives in the integration tests;
        // here just pin the constants.
        let p = raid_member_params();
        let per_block = p.transfer(simkit::units::Bytes::new(4096));
        assert_eq!(per_block, SimDuration::from_micros(512));
        assert_eq!(p.positioning(), SimDuration::from_micros(800));
    }

    #[test]
    fn write_benchmark_stays_under_dirty_limit() {
        // 128 MB = 32768 blocks < ext3's throttle threshold.
        const { assert!(32_768 < ext3::DIRTY_LIMIT_BLOCKS) };
    }

    #[test]
    fn memory_copy_rate_bounds_buffered_writes() {
        // 32768 pages * 60 us ~= 1.97 s for 128 MB: the paper's 2 s.
        let total = mem_copy_cost() * 32_768;
        assert!((1.8..2.2).contains(&total.as_secs_f64()), "{total}");
    }
}
