//! Protocol-transparency property: an arbitrary sequence of system
//! calls produces the same observable file-system state over every
//! protocol stack (NFS v2/v3/v4 and iSCSI). This is what licenses the
//! paper's methodology of running identical benchmarks over both
//! systems. The same holds inside one stack for the two read shapes:
//! `read_into` a caller's buffer and `read` into a fresh `Vec` are the
//! same bytes and the same length, cold or warm.

use ipstorage::core::{Protocol, Testbed};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Call {
    Mkdir(u8),
    Creat(u8, u8),
    WriteAt(u8, u8, u16, u8),
    Unlink(u8, u8),
    Rmdir(u8),
    Rename(u8, u8, u8),
    Chmod(u8, u8, u16),
    SymlinkTo(u8, u8),
    Settle,
}

fn call_strategy() -> impl Strategy<Value = Call> {
    prop_oneof![
        (0u8..4).prop_map(Call::Mkdir),
        (0u8..4, 0u8..6).prop_map(|(d, f)| Call::Creat(d, f)),
        (0u8..4, 0u8..6, 0u16..30_000, 1u8..255).prop_map(|(d, f, o, b)| Call::WriteAt(d, f, o, b)),
        (0u8..4, 0u8..6).prop_map(|(d, f)| Call::Unlink(d, f)),
        (0u8..4).prop_map(Call::Rmdir),
        (0u8..4, 0u8..6, 0u8..6).prop_map(|(d, a, b)| Call::Rename(d, a, b)),
        (0u8..4, 0u8..6, 0u16..0o777).prop_map(|(d, f, m)| Call::Chmod(d, f, m)),
        (0u8..4, 0u8..6).prop_map(|(d, f)| Call::SymlinkTo(d, f)),
        Just(Call::Settle),
    ]
}

fn dpath(d: u8) -> String {
    format!("/dir{d}")
}
fn fpath(d: u8, f: u8) -> String {
    format!("/dir{d}/file{f}")
}

/// Applies a call, recording the outcome (success or error kind) so
/// error behaviour must match across protocols too.
fn apply(tb: &Testbed, call: &Call) -> String {
    let fs = tb.fs();
    let show = |r: Result<(), ext3::FsError>| match r {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err:{e}"),
    };
    match call {
        Call::Mkdir(d) => show(fs.mkdir(&dpath(*d))),
        Call::Creat(d, f) => show(fs.creat(&fpath(*d, *f))),
        Call::WriteAt(d, f, off, byte) => {
            let path = fpath(*d, *f);
            match fs.open(&path) {
                Ok(fd) => {
                    let data = vec![*byte; 64];
                    let r = fs.write(fd, *off as u64, &data).map(|_| ());
                    let _ = fs.close(fd);
                    show(r)
                }
                Err(e) => format!("err:{e}"),
            }
        }
        Call::Unlink(d, f) => show(fs.unlink(&fpath(*d, *f))),
        Call::Rmdir(d) => show(fs.rmdir(&dpath(*d))),
        Call::Rename(d, a, b) => show(fs.rename(&fpath(*d, *a), &fpath(*d, *b))),
        Call::Chmod(d, f, m) => show(fs.chmod(&fpath(*d, *f), *m)),
        Call::SymlinkTo(d, f) => show(fs.symlink("target", &fpath(*d, *f))),
        Call::Settle => {
            tb.settle();
            "ok".to_string()
        }
    }
}

/// Serializes the observable state: directory listings, attributes,
/// and file contents.
fn fingerprint(tb: &Testbed) -> Vec<String> {
    let fs = tb.fs();
    let mut out = Vec::new();
    for d in 0..4u8 {
        let dir = dpath(d);
        match fs.readdir(&dir) {
            Ok(mut names) => {
                names.sort();
                for name in names {
                    if name == "." || name == ".." {
                        continue;
                    }
                    let p = format!("{dir}/{name}");
                    let a = fs.stat(&p).expect("stat listed entry");
                    out.push(format!(
                        "{p} type={:?} size={} perm={:o} links={}",
                        a.ftype, a.size, a.perm, a.links
                    ));
                    if a.ftype == ext3::FileType::Regular && a.size > 0 {
                        let fd = fs.open(&p).unwrap();
                        let data = fs.read(fd, 0, a.size as usize).unwrap();
                        let sum: u64 = data.iter().map(|&b| b as u64).sum();
                        out.push(format!("{p} len={} sum={sum}", data.len()));
                        let _ = fs.close(fd);
                    }
                }
            }
            Err(e) => out.push(format!("{dir} err:{e}")),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn all_protocols_agree(calls in prop::collection::vec(call_strategy(), 1..40)) {
        let mut reference: Option<(Protocol, Vec<String>, Vec<String>)> = None;
        for proto in Protocol::ALL {
            let tb = Testbed::with_protocol(proto);
            let outcomes: Vec<String> = calls.iter().map(|c| apply(&tb, c)).collect();
            let state = fingerprint(&tb);
            match &reference {
                None => reference = Some((proto, outcomes, state)),
                Some((rp, ro, rs)) => {
                    let rp = *rp;
                    prop_assert_eq!(&outcomes, ro, "outcomes differ: {:?} vs {:?}", proto, rp);
                    prop_assert_eq!(&state, rs, "state differs: {:?} vs {:?}", proto, rp);
                }
            }
        }
    }
}

/// A file with every kind of range a read can cross: data, a hole of
/// whole unmapped blocks, data again past the direct blocks, and a
/// tail that ends mid-block. Returns its contents.
fn sparse_file(tb: &Testbed, path: &str) -> Vec<u8> {
    let fs = tb.fs();
    fs.creat(path).unwrap();
    let fd = fs.open(path).unwrap();
    let mut model = Vec::new();
    for (off, len, fill) in [
        (0usize, 5_000usize, 1u8),
        (40_000, 3_000, 2),
        (60_000, 1_234, 3),
    ] {
        fs.write(fd, off as u64, &vec![fill; len]).unwrap();
        model.resize(off, 0);
        model.resize(off + len, fill);
    }
    fs.close(fd).unwrap();
    tb.settle();
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn read_into_is_read(
        ranges in prop::collection::vec((0u64..70_000, 0usize..20_000), 1..8),
    ) {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            let tb = Testbed::with_protocol(proto);
            let fs = tb.fs();
            let model = sparse_file(&tb, "/sparse");
            for &(off, len) in &ranges {
                let expect = &model[model.len().min(off as usize)..model.len().min(off as usize + len)];
                // Each shape from cold caches, then each again warm.
                for cold in [true, false] {
                    for into in [false, true] {
                        if cold {
                            tb.cold_caches();
                        }
                        let fd = fs.open("/sparse").unwrap();
                        let got = if into {
                            let mut buf = vec![0xCD; len];
                            let n = fs.read_into(fd, off, &mut buf).unwrap();
                            prop_assert!(
                                buf[n..].iter().all(|&b| b == 0xCD),
                                "{:?}: read_into wrote past the {} bytes it returned", proto, n
                            );
                            buf.truncate(n);
                            buf
                        } else {
                            fs.read(fd, off, len).unwrap()
                        };
                        fs.close(fd).unwrap();
                        prop_assert_eq!(
                            &got[..], expect,
                            "{:?} off={} len={} cold={} read_into={}", proto, off, len, cold, into
                        );
                    }
                }
            }
        }
    }
}
