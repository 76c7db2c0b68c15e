//! XDR marshalling for the NFS procedures the testbed exchanges (a
//! practical subset of RFC 1813). The client sizes its RPC messages
//! from these encodings rather than guessed constants, and the codec
//! round-trips under test like the SCSI and RPC layers do.

use crate::Fh;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// XDR strings/opaques are length-prefixed and padded to 4 bytes.
fn put_opaque(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
    out.extend(std::iter::repeat_n(
        0,
        bytes.len().div_ceil(4) * 4 - bytes.len(),
    ));
}

fn get_u32(b: &[u8], off: &mut usize) -> Option<u32> {
    let s = b.get(*off..*off + 4)?;
    *off += 4;
    Some(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
}

fn get_u64(b: &[u8], off: &mut usize) -> Option<u64> {
    let s = b.get(*off..*off + 8)?;
    *off += 8;
    Some(u64::from_be_bytes(s.try_into().ok()?))
}

fn get_opaque(b: &[u8], off: &mut usize) -> Option<Vec<u8>> {
    let len = get_u32(b, off)? as usize;
    let s = b.get(*off..*off + len)?.to_vec();
    *off += len.div_ceil(4) * 4;
    Some(s)
}

/// Encodes an NFSv3 file handle (fixed 8-byte opaque in this testbed;
/// real handles are up to 64 bytes).
pub(crate) fn encode_fh(out: &mut Vec<u8>, fh: Fh) {
    put_opaque(out, &(fh.0 as u64).to_be_bytes());
}

/// Decodes a file handle. A handle whose value does not fit the
/// testbed's 32-bit handle space names no file and decodes as `None`.
pub(crate) fn decode_fh(b: &[u8], off: &mut usize) -> Option<Fh> {
    let o = get_opaque(b, off)?;
    let arr: [u8; 8] = o.try_into().ok()?;
    u32::try_from(u64::from_be_bytes(arr)).ok().map(Fh)
}

/// Size of an encoded `fattr3`: five u32 fields, five u64 fields, and
/// three 8-byte timestamps.
pub(crate) const FATTR3_LEN: usize = 5 * 4 + 5 * 8 + 3 * 8;

/// LOOKUP3args: `(dir handle, name)`.
pub fn encode_lookup_args(dir: Fh, name: &str) -> Vec<u8> {
    let mut out = Vec::new();
    encode_fh(&mut out, dir);
    put_opaque(&mut out, name.as_bytes());
    out
}

/// Length of [`encode_lookup_args`]' output, without building it: the
/// handle (length word + 8 bytes), the name's length word, and the
/// name padded to 4 bytes.
pub(crate) fn lookup_args_len(name: &str) -> usize {
    (4 + 8) + 4 + name.len().div_ceil(4) * 4
}

/// Decodes LOOKUP3args.
pub fn decode_lookup_args(b: &[u8]) -> Option<(Fh, String)> {
    let mut off = 0;
    let fh = decode_fh(b, &mut off)?;
    let name = String::from_utf8(get_opaque(b, &mut off)?).ok()?;
    Some((fh, name))
}

/// READ3args: `(handle, offset, count)`. Public for the decoder
/// property tests (ROADMAP item 12's fuzzing).
pub fn encode_read_args(fh: Fh, offset: u64, count: u32) -> Vec<u8> {
    let mut out = Vec::new();
    encode_fh(&mut out, fh);
    put_u64(&mut out, offset);
    put_u32(&mut out, count);
    out
}

/// Decodes READ3args. Public for the decoder property tests (ROADMAP
/// item 12's fuzzing).
pub fn decode_read_args(b: &[u8]) -> Option<(Fh, u64, u32)> {
    let mut off = 0;
    let fh = decode_fh(b, &mut off)?;
    let o = get_u64(b, &mut off)?;
    let c = get_u32(b, &mut off)?;
    Some((fh, o, c))
}

/// Wire size of a LOOKUP call: RPC header + args.
pub(crate) fn lookup_call_len(name: &str) -> usize {
    rpc::wire::CallHeader {
        xid: 0,
        prog: rpc::wire::NFS_PROGRAM,
        vers: 3,
        proc_num: 3,
        auth: rpc::wire::AuthFlavor::Unix,
    }
    .encoded_len()
        + lookup_args_len(name)
}

/// Wire size of a LOOKUP reply carrying post-op attributes.
pub(crate) fn lookup_reply_len() -> usize {
    6 * 4 + 4 + 12 + 4 + FATTR3_LEN
}

/// Wire size of a GETATTR call / reply pair's halves.
pub(crate) fn getattr_call_len() -> usize {
    15 * 4 + 12
}

/// Wire size of a GETATTR reply.
pub(crate) fn getattr_reply_len() -> usize {
    6 * 4 + 4 + FATTR3_LEN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fh_round_trips() {
        let mut out = Vec::new();
        encode_fh(&mut out, Fh(0xABCD));
        let mut off = 0;
        assert_eq!(decode_fh(&out, &mut off), Some(Fh(0xABCD)));
        assert_eq!(off, out.len());
    }

    #[test]
    fn fh_with_high_bits_set_is_rejected_not_truncated() {
        let mut out = Vec::new();
        put_opaque(&mut out, &0x1_0000_0005u64.to_be_bytes());
        let mut off = 0;
        assert_eq!(decode_fh(&out, &mut off), None);
        put_opaque(&mut out, b"name");
        assert_eq!(decode_lookup_args(&out), None);
    }

    #[test]
    fn lookup_args_round_trip() {
        let enc = encode_lookup_args(Fh(5), "hello_world.txt");
        let (fh, name) = decode_lookup_args(&enc).unwrap();
        assert_eq!(fh, Fh(5));
        assert_eq!(name, "hello_world.txt");
        // XDR padding keeps everything 4-aligned.
        assert_eq!(enc.len() % 4, 0);
    }

    #[test]
    fn lookup_args_len_matches_the_encoding() {
        for len in 0..=300usize {
            // ASCII, then two- and three-byte UTF-8 sequences, each
            // filled out with ASCII to exactly `len` bytes.
            for unit in ["n", "é", "名"] {
                let name = "n".repeat(len % unit.len()) + &unit.repeat(len / unit.len());
                assert_eq!(name.len(), len);
                assert_eq!(
                    lookup_args_len(&name),
                    encode_lookup_args(Fh(7), &name).len(),
                    "{len}-byte name of {unit:?}"
                );
            }
        }
    }

    #[test]
    fn read_args_round_trip() {
        let enc = encode_read_args(Fh(9), 1 << 40, 8192);
        let (fh, off, count) = decode_read_args(&enc).unwrap();
        assert_eq!((fh, off, count), (Fh(9), 1 << 40, 8192));
    }

    #[test]
    fn call_sizes_scale_with_name_length() {
        assert!(lookup_call_len("a_much_longer_file_name") > lookup_call_len("a"));
        assert!(lookup_reply_len() > getattr_call_len());
    }

    #[test]
    fn truncated_input_returns_none() {
        assert!(decode_lookup_args(&[0, 0]).is_none());
        assert!(decode_read_args(&[1, 2, 3]).is_none());
    }
}
