//! ONC RPC wire format (a practical subset of RFC 5531): the record
//! header that precedes every call and reply. The simulator sizes its
//! messages from these encodings, and the codec is exercised by
//! round-trip tests — the same "build the substrate for real"
//! treatment the SCSI CDBs get.

/// RPC message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgType {
    /// A call from client to server.
    Call = 0,
    /// A reply from server to client.
    Reply = 1,
}

/// Authentication flavor (the paper's testbed uses AUTH_UNIX).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthFlavor {
    /// No authentication.
    None = 0,
    /// Traditional uid/gid credentials.
    Unix = 1,
}

/// An RPC call header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id, matched by the reply.
    pub xid: u32,
    /// Program number (NFS = 100003).
    pub prog: u32,
    /// Program version (2, 3, or 4).
    pub vers: u32,
    /// Procedure number.
    pub proc_num: u32,
    /// Credential flavor.
    pub auth: AuthFlavor,
}

/// An RPC reply header (accepted replies only; the testbed's server
/// never rejects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Transaction id echoing the call.
    pub xid: u32,
    /// Acceptance status (0 = success).
    pub accept_stat: u32,
}

/// The NFS program number.
pub const NFS_PROGRAM: u32 = 100_003;

/// Wire decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a header needs.
    Truncated,
    /// A field held an invalid discriminant.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated rpc message"),
            WireError::Invalid(what) => write!(f, "invalid rpc field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn get_u32(b: &[u8], off: &mut usize) -> Result<u32, WireError> {
    let s = b.get(*off..*off + 4).ok_or(WireError::Truncated)?;
    *off += 4;
    Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
}

impl CallHeader {
    /// Encodes the call header (with an empty verifier and a minimal
    /// AUTH_UNIX credential body, as Linux sends).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        put_u32(&mut out, self.xid);
        put_u32(&mut out, MsgType::Call as u32);
        put_u32(&mut out, 2); // RPC version
        put_u32(&mut out, self.prog);
        put_u32(&mut out, self.vers);
        put_u32(&mut out, self.proc_num);
        put_u32(&mut out, self.auth as u32);
        match self.auth {
            AuthFlavor::None => put_u32(&mut out, 0),
            AuthFlavor::Unix => {
                // stamp, machinename (empty), uid, gid, 0 aux gids
                put_u32(&mut out, 20);
                put_u32(&mut out, 0);
                put_u32(&mut out, 0);
                put_u32(&mut out, 0);
                put_u32(&mut out, 0);
                put_u32(&mut out, 0);
            }
        }
        // Verifier: AUTH_NONE, zero length.
        put_u32(&mut out, 0);
        put_u32(&mut out, 0);
        out
    }

    /// Bytes the encoded header occupies.
    pub fn encoded_len(&self) -> usize {
        match self.auth {
            AuthFlavor::None => 10 * 4,
            AuthFlavor::Unix => 15 * 4,
        }
    }

    /// Decodes a call header.
    ///
    /// # Errors
    ///
    /// [`WireError`] on short input or bad discriminants.
    pub fn decode(b: &[u8]) -> Result<(CallHeader, usize), WireError> {
        let mut off = 0;
        let xid = get_u32(b, &mut off)?;
        if get_u32(b, &mut off)? != MsgType::Call as u32 {
            return Err(WireError::Invalid("msg_type"));
        }
        if get_u32(b, &mut off)? != 2 {
            return Err(WireError::Invalid("rpc version"));
        }
        let prog = get_u32(b, &mut off)?;
        let vers = get_u32(b, &mut off)?;
        let proc_num = get_u32(b, &mut off)?;
        let auth = match get_u32(b, &mut off)? {
            0 => AuthFlavor::None,
            1 => AuthFlavor::Unix,
            _ => return Err(WireError::Invalid("auth flavor")),
        };
        let cred_len = get_u32(b, &mut off)? as usize;
        off += cred_len.div_ceil(4) * 4;
        let _verf_flavor = get_u32(b, &mut off)?;
        let verf_len = get_u32(b, &mut off)? as usize;
        off += verf_len.div_ceil(4) * 4;
        if off > b.len() {
            return Err(WireError::Truncated);
        }
        Ok((
            CallHeader {
                xid,
                prog,
                vers,
                proc_num,
                auth,
            },
            off,
        ))
    }
}

impl ReplyHeader {
    /// Encodes an accepted reply header. Public for the decoder
    /// property tests (ROADMAP item 12's fuzzing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6 * 4);
        put_u32(&mut out, self.xid);
        put_u32(&mut out, MsgType::Reply as u32);
        put_u32(&mut out, 0); // MSG_ACCEPTED
        put_u32(&mut out, 0); // verifier: AUTH_NONE
        put_u32(&mut out, 0); // verifier length
        put_u32(&mut out, self.accept_stat);
        out
    }

    /// Decodes an accepted reply header.
    ///
    /// # Errors
    ///
    /// [`WireError`] on short input or a rejected reply. Public for the
    /// decoder property tests (ROADMAP item 12's fuzzing).
    pub fn decode(b: &[u8]) -> Result<(ReplyHeader, usize), WireError> {
        let mut off = 0;
        let xid = get_u32(b, &mut off)?;
        if get_u32(b, &mut off)? != MsgType::Reply as u32 {
            return Err(WireError::Invalid("msg_type"));
        }
        if get_u32(b, &mut off)? != 0 {
            return Err(WireError::Invalid("rejected reply"));
        }
        let _verf = get_u32(b, &mut off)?;
        let verf_len = get_u32(b, &mut off)? as usize;
        off += verf_len.div_ceil(4) * 4;
        let accept_stat = get_u32(b, &mut off)?;
        Ok((ReplyHeader { xid, accept_stat }, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_header_round_trips() {
        for auth in [AuthFlavor::None, AuthFlavor::Unix] {
            let h = CallHeader {
                xid: 0xDEAD_BEEF,
                prog: NFS_PROGRAM,
                vers: 3,
                proc_num: 4,
                auth,
            };
            let enc = h.encode();
            assert_eq!(enc.len(), h.encoded_len());
            let (back, used) = CallHeader::decode(&enc).unwrap();
            assert_eq!(back, h);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn reply_header_round_trips() {
        let h = ReplyHeader {
            xid: 42,
            accept_stat: 0,
        };
        let enc = h.encode();
        let (back, used) = ReplyHeader::decode(&enc).unwrap();
        assert_eq!(back, h);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(CallHeader::decode(&[0u8; 7]), Err(WireError::Truncated));
        let mut bad = CallHeader {
            xid: 1,
            prog: NFS_PROGRAM,
            vers: 3,
            proc_num: 0,
            auth: AuthFlavor::None,
        }
        .encode();
        bad[7] = 9; // msg_type
        assert!(matches!(
            CallHeader::decode(&bad),
            Err(WireError::Invalid("msg_type"))
        ));
    }

    #[test]
    fn reply_decode_flags_rejections() {
        let mut enc = ReplyHeader {
            xid: 1,
            accept_stat: 0,
        }
        .encode();
        enc[11] = 1; // reply_stat = MSG_DENIED
        assert!(matches!(
            ReplyHeader::decode(&enc),
            Err(WireError::Invalid("rejected reply"))
        ));
    }
}
