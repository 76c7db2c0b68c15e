//! The wire decoders against hostile input: arbitrary bytes (0–128 B)
//! and mangled valid encodings (truncated, one byte flipped) must make
//! every decoder return — never panic — and encode-then-decode must
//! round-trip random field values for each codec.

use ipstorage::iscsi::{BasicHeader, Opcode};
use ipstorage::nfs::{xdr, Fh};
use ipstorage::rpc::wire::{AuthFlavor, CallHeader, ReplyHeader};
use ipstorage::scsi::Cdb;
use proptest::prelude::*;

fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

fn flag() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// Runs every decoder on `b`; each must return an error or a value.
fn decode_all(b: &[u8]) {
    let _ = CallHeader::decode(b);
    let _ = ReplyHeader::decode(b);
    let _ = xdr::decode_lookup_args(b);
    let _ = xdr::decode_read_args(b);
    let _ = BasicHeader::decode(b);
    let _ = Cdb::decode(b);
}

const OPCODES: [Opcode; 11] = [
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
];

fn call_header() -> impl Strategy<Value = CallHeader> {
    (0u32..u32::MAX, 0u32..u32::MAX, 0u32..8, 0u32..32, flag()).prop_map(
        |(xid, prog, vers, proc_num, unix)| CallHeader {
            xid,
            prog,
            vers,
            proc_num,
            auth: if unix {
                AuthFlavor::Unix
            } else {
                AuthFlavor::None
            },
        },
    )
}

fn basic_header() -> impl Strategy<Value = BasicHeader> {
    (
        0usize..OPCODES.len(),
        flag(),
        0u32..1 << 24,
        0u32..u32::MAX,
        0u32..u32::MAX,
    )
        .prop_map(
            |(op, final_bit, data_segment_len, task_tag, sequence)| BasicHeader {
                opcode: OPCODES[op],
                final_bit,
                data_segment_len,
                task_tag,
                sequence,
            },
        )
}

fn cdb() -> impl Strategy<Value = Cdb> {
    prop_oneof![
        (0u32..u32::MAX, 0u16..u16::MAX).prop_map(|(lba, blocks)| Cdb::Read10 { lba, blocks }),
        (0u32..u32::MAX, 0u16..u16::MAX).prop_map(|(lba, blocks)| Cdb::Write10 { lba, blocks }),
        (0u32..u32::MAX, 0u16..u16::MAX)
            .prop_map(|(lba, blocks)| Cdb::SynchronizeCache10 { lba, blocks }),
        byte().prop_map(|page| Cdb::ModeSense6 { page }),
        Just(Cdb::ReadCapacity10),
        Just(Cdb::Inquiry),
        Just(Cdb::TestUnitReady),
        Just(Cdb::ReportLuns),
    ]
}

/// A name of 0–40 characters from U+0020..U+00E8: ASCII and two-byte
/// UTF-8 sequences, so XDR padding sees every length mod 4.
fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..200, 0..41).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(0x20 + c).expect("U+0020..U+00E8 are scalar values"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(b in prop::collection::vec(byte(), 0..129)) {
        decode_all(&b);
    }

    #[test]
    fn mangled_encodings_never_panic_a_decoder(
        call in call_header(),
        bhs in basic_header(),
        cdb in cdb(),
        fields in (0u32..u32::MAX, 0u64..u64::MAX, 0u32..u32::MAX),
        name in name(),
        mangle in (0usize..129, 0usize..128, 1u16..256),
    ) {
        let (fh, offset, count) = fields;
        let (cut, at, mask) = mangle;
        let encodings = [
            call.encode(),
            ReplyHeader { xid: fh, accept_stat: count }.encode(),
            xdr::encode_lookup_args(Fh(fh), &name),
            xdr::encode_read_args(Fh(fh), offset, count),
            bhs.encode().to_vec(),
            cdb.encode(),
        ];
        for mut e in encodings {
            let i = at % e.len();
            e[i] ^= mask as u8;
            e.truncate(cut);
            decode_all(&e);
        }
    }

    #[test]
    fn call_header_round_trips(h in call_header()) {
        let enc = h.encode();
        prop_assert_eq!(enc.len(), h.encoded_len());
        prop_assert_eq!(CallHeader::decode(&enc), Ok((h, enc.len())));
    }

    #[test]
    fn reply_header_round_trips(xid in 0u32..u32::MAX, accept_stat in 0u32..u32::MAX) {
        let h = ReplyHeader { xid, accept_stat };
        let enc = h.encode();
        prop_assert_eq!(ReplyHeader::decode(&enc), Ok((h, enc.len())));
    }

    #[test]
    fn lookup_args_round_trip(fh in 0u32..u32::MAX, name in name()) {
        let enc = xdr::encode_lookup_args(Fh(fh), &name);
        prop_assert_eq!(xdr::decode_lookup_args(&enc), Some((Fh(fh), name)));
    }

    #[test]
    fn read_args_round_trip(
        fh in 0u32..u32::MAX,
        offset in 0u64..u64::MAX,
        count in 0u32..u32::MAX,
    ) {
        let enc = xdr::encode_read_args(Fh(fh), offset, count);
        prop_assert_eq!(xdr::decode_read_args(&enc), Some((Fh(fh), offset, count)));
    }

    #[test]
    fn basic_header_round_trips(h in basic_header()) {
        prop_assert_eq!(BasicHeader::decode(&h.encode()), Some(h));
    }

    #[test]
    fn cdb_round_trips(c in cdb()) {
        prop_assert_eq!(Cdb::decode(&c.encode()), Ok(c));
    }
}
