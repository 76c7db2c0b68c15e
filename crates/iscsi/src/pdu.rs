//! iSCSI PDU framing: the 48-byte basic header segment (BHS) and the
//! PDU kinds the testbed exchanges. Encoding is real enough to
//! round-trip; the simulator uses [`BHS_LEN`] for byte accounting.

/// Length of the basic header segment that starts every PDU.
pub const BHS_LEN: usize = 48;

/// iSCSI opcodes (initiator → target use the request codes, target →
/// initiator the response codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// NOP-Out (ping / keepalive).
    NopOut = 0x00,
    /// SCSI Command carrying a CDB.
    ScsiCommand = 0x01,
    /// Login Request.
    LoginRequest = 0x03,
    /// SCSI Data-Out (write payload).
    DataOut = 0x05,
    /// Logout Request.
    LogoutRequest = 0x06,
    /// NOP-In.
    NopIn = 0x20,
    /// SCSI Response (status + sense).
    ScsiResponse = 0x21,
    /// Login Response.
    LoginResponse = 0x23,
    /// SCSI Data-In (read payload), may carry piggybacked status.
    DataIn = 0x25,
    /// Ready To Transfer (target solicits write data).
    R2t = 0x31,
    /// Logout Response.
    LogoutResponse = 0x26,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub(crate) fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b & 0x3F {
            0x00 => Opcode::NopOut,
            0x01 => Opcode::ScsiCommand,
            0x03 => Opcode::LoginRequest,
            0x05 => Opcode::DataOut,
            0x06 => Opcode::LogoutRequest,
            0x20 => Opcode::NopIn,
            0x21 => Opcode::ScsiResponse,
            0x23 => Opcode::LoginResponse,
            0x25 => Opcode::DataIn,
            0x31 => Opcode::R2t,
            0x26 => Opcode::LogoutResponse,
            _ => return None,
        })
    }
}

/// A decoded basic header segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicHeader {
    /// PDU kind.
    pub opcode: Opcode,
    /// Final bit (last PDU of a sequence).
    pub final_bit: bool,
    /// Length of the data segment that follows the header.
    pub data_segment_len: u32,
    /// Initiator task tag correlating command and response.
    pub task_tag: u32,
    /// Command or status sequence number, by direction.
    pub sequence: u32,
}

/// A PDU: header plus (unstored) payload length. The simulator tracks
/// sizes rather than shipping payload bytes through the network model;
/// actual data moves via the in-process [`Target`](crate::Target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pdu {
    /// Header fields.
    pub header: BasicHeader,
}

impl BasicHeader {
    /// Encodes to the 48-byte wire form.
    pub fn encode(&self) -> [u8; BHS_LEN] {
        let mut b = [0u8; BHS_LEN];
        b[0] = self.opcode as u8;
        if self.final_bit {
            b[1] |= 0x80;
        }
        // 24-bit data segment length in bytes 5..8.
        let dsl = self.data_segment_len.to_be_bytes();
        b[5] = dsl[1];
        b[6] = dsl[2];
        b[7] = dsl[3];
        b[16..20].copy_from_slice(&self.task_tag.to_be_bytes());
        b[24..28].copy_from_slice(&self.sequence.to_be_bytes());
        b
    }

    /// Decodes from the wire form.
    ///
    /// Returns `None` for unknown opcodes or short buffers.
    pub fn decode(bytes: &[u8]) -> Option<BasicHeader> {
        if bytes.len() < BHS_LEN {
            return None;
        }
        let opcode = Opcode::from_u8(bytes[0])?;
        let final_bit = bytes[1] & 0x80 != 0;
        let data_segment_len = u32::from_be_bytes([0, bytes[5], bytes[6], bytes[7]]);
        let task_tag = u32::from_be_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
        let sequence = u32::from_be_bytes([bytes[24], bytes[25], bytes[26], bytes[27]]);
        Some(BasicHeader {
            opcode,
            final_bit,
            data_segment_len,
            task_tag,
            sequence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = BasicHeader {
            opcode: Opcode::ScsiCommand,
            final_bit: true,
            data_segment_len: 0x0001_2345,
            task_tag: 0xDEAD_BEEF,
            sequence: 42,
        };
        let enc = h.encode();
        assert_eq!(BasicHeader::decode(&enc), Some(h));
    }

    #[test]
    fn all_opcodes_round_trip() {
        for op in [
            Opcode::NopOut,
            Opcode::ScsiCommand,
            Opcode::LoginRequest,
            Opcode::DataOut,
            Opcode::LogoutRequest,
            Opcode::NopIn,
            Opcode::ScsiResponse,
            Opcode::LoginResponse,
            Opcode::DataIn,
            Opcode::R2t,
            Opcode::LogoutResponse,
        ] {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(BasicHeader::decode(&[0u8; 10]), None);
    }

    #[test]
    fn data_segment_len_is_24_bit() {
        let h = BasicHeader {
            opcode: Opcode::DataIn,
            final_bit: false,
            data_segment_len: 0x00FF_FFFF,
            task_tag: 0,
            sequence: 0,
        };
        assert_eq!(
            BasicHeader::decode(&h.encode()).unwrap().data_segment_len,
            0x00FF_FFFF
        );
    }
}
