//! TPC-H-style decision-support emulation.
//!
//! The paper's TPC-H runs use a scale factor of 1 (a 1 GB database,
//! 4 KB pages, 32 KB extents) and are "dominated by large read
//! requests" with saturated client CPUs. Each emulated query scans a
//! contiguous fraction of the database in extent-sized reads, joins a
//! few random segments, and burns client CPU proportional to the data
//! examined.

use simkit::{Sim, SimDuration, SplitMix64};
use std::rc::Rc;
use vfs::{Fd, FileSystem};

/// DSS emulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DssConfig {
    /// Database size in 4 KiB pages (scale 1 ≈ 262144 pages).
    pub db_pages: u64,
    /// Extent size in pages (paper: 32 KB extents = 8 pages).
    pub extent_pages: u64,
    /// Number of queries in the stream (TPC-H has 22).
    pub queries: usize,
    /// Fraction of the database each query scans, in 1/64ths.
    pub scan_64ths: u64,
    /// Client CPU per scanned extent (query processing).
    pub cpu_per_extent: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DssConfig {
    fn default() -> Self {
        DssConfig {
            db_pages: 262_144, // 1 GB
            extent_pages: 8,
            queries: 22,
            scan_64ths: 4, // each query scans 1/16 of the database
            cpu_per_extent: SimDuration::from_micros(400),
            seed: 11,
        }
    }
}

/// Results of a DSS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DssReport {
    /// Queries completed.
    pub queries: u64,
    /// Elapsed virtual time.
    pub elapsed: SimDuration,
    /// Queries per hour (the QphH analogue).
    pub qph: f64,
}

/// Loads the database file.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn load(fs: &dyn FileSystem, path: &str, cfg: DssConfig) -> Result<Fd, ext3::FsError> {
    fs.creat(path)?;
    let fd = fs.open(path)?;
    let chunk = vec![0x3Cu8; 64 * 4096];
    let mut page = 0u64;
    while page < cfg.db_pages {
        let n = (cfg.db_pages - page).min(64);
        fs.write(fd, page * 4096, &chunk[..(n as usize) * 4096])?;
        page += n;
    }
    fs.fsync(fd)?;
    Ok(fd)
}

/// Runs the query stream.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn run(
    fs: &dyn FileSystem,
    sim: &Rc<Sim>,
    db: Fd,
    cfg: DssConfig,
) -> Result<DssReport, ext3::FsError> {
    let mut rng = SplitMix64::new(cfg.seed);
    let start = sim.now();
    let mut extent = vec![0u8; (cfg.extent_pages * 4096) as usize];
    for _ in 0..cfg.queries {
        // Sequential scan of a random contiguous region.
        let scan_pages = (cfg.db_pages * cfg.scan_64ths / 64).max(cfg.extent_pages);
        let max_start = cfg.db_pages.saturating_sub(scan_pages);
        let first = if max_start == 0 {
            0
        } else {
            rng.below(max_start)
        };
        let mut p = first;
        while p < first + scan_pages {
            fs.read_into(db, p * 4096, &mut extent)?;
            sim.advance(cfg.cpu_per_extent);
            p += cfg.extent_pages;
        }
        // A handful of random extent probes (index/join lookups).
        for _ in 0..16 {
            let p = rng.below(cfg.db_pages.saturating_sub(cfg.extent_pages).max(1));
            fs.read_into(db, p * 4096, &mut extent)?;
            sim.advance(cfg.cpu_per_extent);
        }
    }
    let elapsed = sim.now().since(start);
    let qph = simkit::units::usize_f64(cfg.queries) / (elapsed.as_secs_f64() / 3600.0);
    Ok(DssReport {
        queries: cfg.queries as u64,
        elapsed,
        qph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_one_is_a_gigabyte() {
        let c = DssConfig::default();
        assert_eq!(c.db_pages * 4096, 1 << 30);
        assert_eq!(c.extent_pages * 4096, 32 * 1024);
    }
}
