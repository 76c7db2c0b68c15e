//! TPC-C-style OLTP emulation.
//!
//! The paper characterizes its TPC-C runs at the I/O level: "small
//! 4 KB random I/Os, two-thirds of the I/Os are reads" with client
//! CPUs saturated by query processing (Tables 6 and 10). This module
//! reproduces that I/O profile against a database file plus a
//! sequential log, charging per-transaction client CPU so the client
//! saturates as measured.

use simkit::{Sim, SimDuration, SplitMix64};
use std::rc::Rc;
use vfs::{Fd, FileSystem};

/// OLTP emulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct OltpConfig {
    /// Database size in 4 KiB pages.
    pub db_pages: u64,
    /// Transactions to run.
    pub transactions: usize,
    /// Page reads per transaction.
    pub reads_per_txn: usize,
    /// Page writes per transaction (2:1 read:write for the paper's
    /// two-thirds-reads mix).
    pub writes_per_txn: usize,
    /// Client CPU time per transaction (query processing; saturates
    /// the client as in Table 10).
    pub cpu_per_txn: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OltpConfig {
    fn default() -> Self {
        OltpConfig {
            db_pages: 32_768, // 128 MB database
            transactions: 2_000,
            reads_per_txn: 8,
            writes_per_txn: 4,
            cpu_per_txn: SimDuration::from_millis(6),
            seed: 7,
        }
    }
}

/// Results of an OLTP run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OltpReport {
    /// Transactions completed.
    pub transactions: u64,
    /// Elapsed virtual time.
    pub elapsed: SimDuration,
    /// Throughput in transactions per minute (the tpmC analogue).
    pub tpm: f64,
}

/// Builds the database file (sequential bulk load).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn load(fs: &dyn FileSystem, path: &str, cfg: OltpConfig) -> Result<Fd, ext3::FsError> {
    fs.creat(path)?;
    let fd = fs.open(path)?;
    let chunk = vec![0x5Au8; 64 * 4096];
    let mut page = 0u64;
    while page < cfg.db_pages {
        let n = (cfg.db_pages - page).min(64);
        fs.write(fd, page * 4096, &chunk[..(n as usize) * 4096])?;
        page += n;
    }
    fs.fsync(fd)?;
    Ok(fd)
}

/// Runs the transaction mix against a loaded database.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn run(
    fs: &dyn FileSystem,
    sim: &Rc<Sim>,
    db: Fd,
    log: Fd,
    cfg: OltpConfig,
) -> Result<OltpReport, ext3::FsError> {
    let mut rng = SplitMix64::new(cfg.seed);
    let start = sim.now();
    let page = vec![0xA5u8; 4096];
    let mut buf = vec![0u8; 4096];
    let mut log_off = 0u64;
    for _ in 0..cfg.transactions {
        for _ in 0..cfg.reads_per_txn {
            let p = rng.below(cfg.db_pages);
            fs.read_into(db, p * 4096, &mut buf)?;
        }
        for _ in 0..cfg.writes_per_txn {
            let p = rng.below(cfg.db_pages);
            fs.write(db, p * 4096, &page)?;
        }
        // Commit record to the sequential log.
        fs.write(log, log_off, &page[..512])?;
        log_off += 512;
        sim.advance(cfg.cpu_per_txn);
    }
    let elapsed = sim.now().since(start);
    let tpm = simkit::units::usize_f64(cfg.transactions) / (elapsed.as_secs_f64() / 60.0);
    Ok(OltpReport {
        transactions: cfg.transactions as u64,
        elapsed,
        tpm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_thirds_reads_by_default() {
        let c = OltpConfig::default();
        let frac = c.reads_per_txn as f64 / (c.reads_per_txn + c.writes_per_txn) as f64;
        assert!((0.6..0.7).contains(&frac));
    }
}
