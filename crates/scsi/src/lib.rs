//! A subset of the SCSI block command set, as carried by iSCSI.
//!
//! iSCSI is "SCSI over TCP": the initiator wraps SCSI *command
//! descriptor blocks* (CDBs) in PDUs. This crate provides the CDBs the
//! testbed needs — READ(10), WRITE(10), READ CAPACITY(10), INQUIRY,
//! SYNCHRONIZE CACHE(10), TEST UNIT READY — with real wire encoding
//! and decoding, plus a [`ScsiTarget`] that executes commands against
//! a [`BlockDevice`].
//!
//! # Example
//!
//! ```
//! use scsi::Cdb;
//!
//! let cdb = Cdb::Read10 { lba: 0x1234, blocks: 8 };
//! let bytes = cdb.encode();
//! assert_eq!(Cdb::decode(&bytes).unwrap(), cdb);
//! ```

use blockdev::{BlockDevice, IoCost, BLOCK_SIZE};
use std::fmt;
use std::rc::Rc;

/// SCSI operation codes used by the testbed.
pub mod opcodes {
    /// TEST UNIT READY (6-byte CDB).
    pub(crate) const TEST_UNIT_READY: u8 = 0x00;
    /// INQUIRY (6-byte CDB).
    pub(crate) const INQUIRY: u8 = 0x12;
    /// READ CAPACITY (10) (10-byte CDB).
    pub(crate) const READ_CAPACITY_10: u8 = 0x25;
    /// READ (10) (10-byte CDB).
    pub(crate) const READ_10: u8 = 0x28;
    /// WRITE (10) (10-byte CDB).
    pub(crate) const WRITE_10: u8 = 0x2A;
    /// SYNCHRONIZE CACHE (10) (10-byte CDB).
    pub(crate) const SYNCHRONIZE_CACHE_10: u8 = 0x35;
    /// MODE SENSE (6) (6-byte CDB).
    pub(crate) const MODE_SENSE_6: u8 = 0x1A;
    /// REPORT LUNS (12-byte CDB).
    pub(crate) const REPORT_LUNS: u8 = 0xA0;
}

/// A decoded command descriptor block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cdb {
    /// Read `blocks` logical blocks starting at `lba`.
    Read10 {
        /// First logical block address.
        lba: u32,
        /// Transfer length in blocks.
        blocks: u16,
    },
    /// Write `blocks` logical blocks starting at `lba`.
    Write10 {
        /// First logical block address.
        lba: u32,
        /// Transfer length in blocks.
        blocks: u16,
    },
    /// Query capacity: returns last LBA + block size.
    ReadCapacity10,
    /// Device identification.
    Inquiry,
    /// Flush the device write cache for the given range (0 = all).
    SynchronizeCache10 {
        /// First logical block address.
        lba: u32,
        /// Number of blocks (0 means whole device).
        blocks: u16,
    },
    /// Readiness probe.
    TestUnitReady,
    /// Mode pages (caching parameters etc.).
    ModeSense6 {
        /// Requested page code (0x08 = caching, 0x3F = all).
        page: u8,
    },
    /// LUN inventory.
    ReportLuns,
}

/// CDB decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdbError {
    /// Opcode not implemented by this target.
    UnsupportedOpcode(u8),
    /// Byte slice too short for the opcode's CDB length.
    Truncated {
        /// Opcode observed.
        opcode: u8,
        /// Bytes available.
        len: usize,
    },
}

impl fmt::Display for CdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdbError::UnsupportedOpcode(op) => write!(f, "unsupported SCSI opcode {op:#04x}"),
            CdbError::Truncated { opcode, len } => {
                write!(f, "truncated CDB for opcode {opcode:#04x} ({len} bytes)")
            }
        }
    }
}

impl std::error::Error for CdbError {}

impl Cdb {
    /// Encodes to SCSI wire format (6- or 10-byte CDB).
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            Cdb::Read10 { lba, blocks } => encode_rw10(opcodes::READ_10, lba, blocks),
            Cdb::Write10 { lba, blocks } => encode_rw10(opcodes::WRITE_10, lba, blocks),
            Cdb::ReadCapacity10 => {
                let mut b = vec![0u8; 10];
                b[0] = opcodes::READ_CAPACITY_10;
                b
            }
            Cdb::Inquiry => {
                let mut b = vec![0u8; 6];
                b[0] = opcodes::INQUIRY;
                b[4] = 36; // standard inquiry data length
                b
            }
            Cdb::SynchronizeCache10 { lba, blocks } => {
                encode_rw10(opcodes::SYNCHRONIZE_CACHE_10, lba, blocks)
            }
            Cdb::TestUnitReady => vec![0u8; 6],
            Cdb::ModeSense6 { page } => {
                let mut b = vec![0u8; 6];
                b[0] = opcodes::MODE_SENSE_6;
                b[2] = page;
                b[4] = 64; // allocation length
                b
            }
            Cdb::ReportLuns => {
                let mut b = vec![0u8; 12];
                b[0] = opcodes::REPORT_LUNS;
                b[9] = 16; // allocation length (one LUN entry + header)
                b
            }
        }
    }

    /// Decodes from SCSI wire format.
    ///
    /// # Errors
    ///
    /// Returns [`CdbError`] on unknown opcodes or short buffers.
    pub fn decode(bytes: &[u8]) -> Result<Cdb, CdbError> {
        let opcode = *bytes
            .first()
            .ok_or(CdbError::Truncated { opcode: 0, len: 0 })?;
        let need = match opcode {
            opcodes::TEST_UNIT_READY | opcodes::INQUIRY | opcodes::MODE_SENSE_6 => 6,
            opcodes::READ_10
            | opcodes::WRITE_10
            | opcodes::READ_CAPACITY_10
            | opcodes::SYNCHRONIZE_CACHE_10 => 10,
            opcodes::REPORT_LUNS => 12,
            other => return Err(CdbError::UnsupportedOpcode(other)),
        };
        if bytes.len() < need {
            return Err(CdbError::Truncated {
                opcode,
                len: bytes.len(),
            });
        }
        Ok(match opcode {
            opcodes::TEST_UNIT_READY => Cdb::TestUnitReady,
            opcodes::INQUIRY => Cdb::Inquiry,
            opcodes::READ_CAPACITY_10 => Cdb::ReadCapacity10,
            opcodes::READ_10 => {
                let (lba, blocks) = decode_rw10(bytes);
                Cdb::Read10 { lba, blocks }
            }
            opcodes::WRITE_10 => {
                let (lba, blocks) = decode_rw10(bytes);
                Cdb::Write10 { lba, blocks }
            }
            opcodes::SYNCHRONIZE_CACHE_10 => {
                let (lba, blocks) = decode_rw10(bytes);
                Cdb::SynchronizeCache10 { lba, blocks }
            }
            opcodes::MODE_SENSE_6 => Cdb::ModeSense6 { page: bytes[2] },
            opcodes::REPORT_LUNS => Cdb::ReportLuns,
            _ => unreachable!(),
        })
    }

    /// Bytes the target returns in the data-in phase.
    pub fn data_in_len(&self) -> usize {
        match *self {
            Cdb::Read10 { blocks, .. } => blocks as usize * BLOCK_SIZE,
            Cdb::ReadCapacity10 => 8,
            Cdb::Inquiry => 36,
            Cdb::ModeSense6 { .. } => 24,
            Cdb::ReportLuns => 16,
            _ => 0,
        }
    }
}

fn encode_rw10(opcode: u8, lba: u32, blocks: u16) -> Vec<u8> {
    let mut b = vec![0u8; 10];
    b[0] = opcode;
    b[2..6].copy_from_slice(&lba.to_be_bytes());
    b[7..9].copy_from_slice(&blocks.to_be_bytes());
    b
}

fn decode_rw10(bytes: &[u8]) -> (u32, u16) {
    let lba = u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
    let blocks = u16::from_be_bytes([bytes[7], bytes[8]]);
    (lba, blocks)
}

/// SCSI sense keys reported on CHECK CONDITION.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenseKey {
    /// CDB or LBA out of range / malformed.
    IllegalRequest,
    /// Unrecoverable media error (e.g. double disk failure).
    MediumError,
    /// Device not ready.
    NotReady,
}

/// Command completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScsiStatus {
    /// Command succeeded.
    Good,
    /// Command failed with the given sense key.
    CheckCondition(SenseKey),
}

/// Result of executing a command at the target.
#[derive(Debug, Clone)]
pub struct ScsiCompletion {
    /// Completion status.
    pub status: ScsiStatus,
    /// Data-in payload (reads, capacity, inquiry).
    pub data: Vec<u8>,
    /// Device service time for the command.
    pub cost: IoCost,
}

/// Server-side SCSI command executor over a block device — the "SCSI
/// server layer" in the paper's description of the iSCSI processing
/// path.
pub struct ScsiTarget {
    device: Rc<dyn BlockDevice>,
}

impl fmt::Debug for ScsiTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScsiTarget")
            .field("device", &self.device.name())
            .finish()
    }
}

impl ScsiTarget {
    /// Creates a target backed by `device`.
    pub fn new(device: Rc<dyn BlockDevice>) -> Self {
        ScsiTarget { device }
    }

    /// The backing device.
    pub fn device(&self) -> &Rc<dyn BlockDevice> {
        &self.device
    }

    /// Executes a `Read10` directly into `buf`, avoiding the
    /// per-command data-in allocation of [`execute`](ScsiTarget::execute).
    /// `buf` must hold exactly `blocks * BLOCK_SIZE` bytes; on success
    /// the payload is in `buf` and the returned completion carries no
    /// owned data.
    pub fn execute_read_into(&self, lba: u32, blocks: u16, buf: &mut [u8]) -> ScsiCompletion {
        debug_assert_eq!(buf.len(), blocks as usize * BLOCK_SIZE);
        match self.device.read(lba as u64, blocks as u32, buf) {
            Ok(cost) => ScsiCompletion {
                status: ScsiStatus::Good,
                data: Vec::new(),
                cost,
            },
            Err(e) => self.fail(e),
        }
    }

    /// Executes one command. `data_out` must hold the data-out phase:
    /// `blocks * BLOCK_SIZE` bytes for `Write10`, nothing otherwise.
    pub fn execute(&self, cdb: Cdb, data_out: &[u8]) -> ScsiCompletion {
        match cdb {
            Cdb::TestUnitReady => ScsiCompletion {
                status: ScsiStatus::Good,
                data: Vec::new(),
                cost: IoCost::FREE,
            },
            Cdb::Inquiry => {
                let mut data = vec![0u8; 36];
                data[0] = 0x00; // direct-access block device
                data[8..16].copy_from_slice(b"IPSTORE ");
                ScsiCompletion {
                    status: ScsiStatus::Good,
                    data,
                    cost: IoCost::FREE,
                }
            }
            Cdb::ReadCapacity10 => {
                let last = self.device.block_count().saturating_sub(1);
                let mut data = Vec::with_capacity(8);
                data.extend_from_slice(&(last.min(u32::MAX as u64) as u32).to_be_bytes());
                data.extend_from_slice(&(BLOCK_SIZE as u32).to_be_bytes());
                ScsiCompletion {
                    status: ScsiStatus::Good,
                    data,
                    cost: IoCost::FREE,
                }
            }
            Cdb::Read10 { lba, blocks } => {
                let mut data = vec![0u8; blocks as usize * BLOCK_SIZE];
                match self.device.read(lba as u64, blocks as u32, &mut data) {
                    Ok(cost) => ScsiCompletion {
                        status: ScsiStatus::Good,
                        data,
                        cost,
                    },
                    Err(e) => self.fail(e),
                }
            }
            Cdb::Write10 { lba, blocks } => {
                debug_assert_eq!(data_out.len(), blocks as usize * BLOCK_SIZE);
                match self.device.write(lba as u64, data_out) {
                    Ok(cost) => ScsiCompletion {
                        status: ScsiStatus::Good,
                        data: Vec::new(),
                        cost,
                    },
                    Err(e) => self.fail(e),
                }
            }
            Cdb::ModeSense6 { page } => {
                // Mode parameter header + the caching page (0x08):
                // write cache enabled, read ahead enabled — the
                // behaviours the testbed's timing models encode.
                let mut data = vec![0u8; 24];
                data[0] = 23; // mode data length
                data[4] = 0x08; // page code: caching
                data[5] = 18; // page length
                data[6] = 0b0000_0101; // WCE | RCD=0 (read cache on)
                let _ = page;
                ScsiCompletion {
                    status: ScsiStatus::Good,
                    data,
                    cost: IoCost::FREE,
                }
            }
            Cdb::ReportLuns => {
                let mut data = vec![0u8; 16];
                data[3] = 8; // LUN list length: one entry
                             // LUN 0 entry is all zeroes.
                ScsiCompletion {
                    status: ScsiStatus::Good,
                    data,
                    cost: IoCost::FREE,
                }
            }
            Cdb::SynchronizeCache10 { .. } => match self.device.flush() {
                Ok(cost) => ScsiCompletion {
                    status: ScsiStatus::Good,
                    data: Vec::new(),
                    cost,
                },
                Err(e) => self.fail(e),
            },
        }
    }

    fn fail(&self, e: blockdev::BlockError) -> ScsiCompletion {
        let key = match e {
            blockdev::BlockError::OutOfRange { .. } | blockdev::BlockError::Misaligned { .. } => {
                SenseKey::IllegalRequest
            }
            blockdev::BlockError::DeviceFailed { .. } => SenseKey::MediumError,
        };
        ScsiCompletion {
            status: ScsiStatus::CheckCondition(key),
            data: Vec::new(),
            cost: IoCost::FREE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::MemDisk;

    #[test]
    fn cdb_round_trips() {
        let cases = [
            Cdb::Read10 {
                lba: 0xDEAD_BEEF,
                blocks: 513,
            },
            Cdb::Write10 { lba: 1, blocks: 1 },
            Cdb::ReadCapacity10,
            Cdb::Inquiry,
            Cdb::SynchronizeCache10 { lba: 0, blocks: 0 },
            Cdb::TestUnitReady,
        ];
        for cdb in cases {
            assert_eq!(Cdb::decode(&cdb.encode()).unwrap(), cdb, "{cdb:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            Cdb::decode(&[0xFF, 0, 0]),
            Err(CdbError::UnsupportedOpcode(0xFF))
        ));
        assert!(matches!(
            Cdb::decode(&[opcodes::READ_10, 0, 0]),
            Err(CdbError::Truncated { .. })
        ));
        assert!(matches!(Cdb::decode(&[]), Err(CdbError::Truncated { .. })));
    }

    #[test]
    fn read_write_through_target() {
        let dev = Rc::new(MemDisk::new("d", 64));
        let t = ScsiTarget::new(dev);
        let data = vec![0x5Au8; 2 * BLOCK_SIZE];
        let w = t.execute(Cdb::Write10 { lba: 3, blocks: 2 }, &data);
        assert_eq!(w.status, ScsiStatus::Good);
        let r = t.execute(Cdb::Read10 { lba: 3, blocks: 2 }, &[]);
        assert_eq!(r.status, ScsiStatus::Good);
        assert_eq!(r.data, data);
    }

    #[test]
    fn capacity_reports_block_size() {
        let t = ScsiTarget::new(Rc::new(MemDisk::new("d", 100)));
        let c = t.execute(Cdb::ReadCapacity10, &[]);
        assert_eq!(c.status, ScsiStatus::Good);
        let last = u32::from_be_bytes([c.data[0], c.data[1], c.data[2], c.data[3]]);
        let bs = u32::from_be_bytes([c.data[4], c.data[5], c.data[6], c.data[7]]);
        assert_eq!(last, 99);
        assert_eq!(bs, BLOCK_SIZE as u32);
    }

    #[test]
    fn read_into_matches_owned_read() {
        let dev = Rc::new(MemDisk::new("d", 16));
        let t = ScsiTarget::new(dev);
        let data = vec![0xA7u8; 2 * BLOCK_SIZE];
        t.execute(Cdb::Write10 { lba: 5, blocks: 2 }, &data);
        let owned = t.execute(Cdb::Read10 { lba: 5, blocks: 2 }, &[]);
        let mut buf = vec![0u8; 2 * BLOCK_SIZE];
        let r = t.execute_read_into(5, 2, &mut buf);
        assert_eq!(r.status, ScsiStatus::Good);
        assert!(r.data.is_empty(), "payload lands in the caller's buffer");
        assert_eq!(buf, owned.data);
        assert_eq!(r.cost, owned.cost);
    }

    #[test]
    fn read_into_out_of_range_is_illegal_request() {
        let t = ScsiTarget::new(Rc::new(MemDisk::new("d", 4)));
        let mut buf = vec![0u8; BLOCK_SIZE];
        let r = t.execute_read_into(10, 1, &mut buf);
        assert_eq!(
            r.status,
            ScsiStatus::CheckCondition(SenseKey::IllegalRequest)
        );
    }

    #[test]
    fn out_of_range_is_illegal_request() {
        let t = ScsiTarget::new(Rc::new(MemDisk::new("d", 4)));
        let r = t.execute(Cdb::Read10 { lba: 10, blocks: 1 }, &[]);
        assert_eq!(
            r.status,
            ScsiStatus::CheckCondition(SenseKey::IllegalRequest)
        );
    }

    #[test]
    fn data_phase_lengths() {
        assert_eq!(
            Cdb::Read10 { lba: 0, blocks: 3 }.data_in_len(),
            3 * BLOCK_SIZE
        );
        assert_eq!(Cdb::ReadCapacity10.data_in_len(), 8);
        assert_eq!(Cdb::TestUnitReady.data_in_len(), 0);
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;
    use blockdev::MemDisk;
    use std::rc::Rc;

    #[test]
    fn mode_sense_and_report_luns_round_trip() {
        for cdb in [Cdb::ModeSense6 { page: 0x08 }, Cdb::ReportLuns] {
            assert_eq!(Cdb::decode(&cdb.encode()).unwrap(), cdb);
        }
    }

    #[test]
    fn mode_sense_reports_write_cache_enabled() {
        let t = ScsiTarget::new(Rc::new(MemDisk::new("d", 64)));
        let c = t.execute(Cdb::ModeSense6 { page: 0x08 }, &[]);
        assert_eq!(c.status, ScsiStatus::Good);
        assert_eq!(c.data[4], 0x08, "caching page");
        assert_ne!(c.data[6] & 0x04, 0, "WCE set");
    }

    #[test]
    fn report_luns_lists_lun_zero() {
        let t = ScsiTarget::new(Rc::new(MemDisk::new("d", 64)));
        let c = t.execute(Cdb::ReportLuns, &[]);
        assert_eq!(c.status, ScsiStatus::Good);
        assert_eq!(c.data[3], 8, "one 8-byte LUN entry");
        assert!(c.data[8..16].iter().all(|&b| b == 0), "LUN 0");
    }
}
