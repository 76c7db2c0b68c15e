//! Property tests for the file system: a random operation sequence is
//! mirrored against an in-memory model; afterwards the tree must match
//! the model, `fsck` must pass, and the state must survive
//! unmount/remount. A crash variant checks that journal replay always
//! yields a consistent (if possibly older) tree.

use blockdev::MemDisk;
use ext3::{Ext3, FsError, Options, SetAttr};
use proptest::prelude::*;
use simkit::{Sim, SimDuration};
use std::collections::HashMap;
use std::rc::Rc;

/// Operations the generator draws from. Names index a small pool so
/// collisions (Exists/NotFound paths) are exercised too.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write(u8, u16, u8),
    Truncate(u8, u16),
    Unlink(u8),
    Mkdir(u8),
    Rmdir(u8),
    Rename(u8, u8),
    Link(u8, u8),
    Chmod(u8, u16),
    Advance(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12).prop_map(Op::Create),
        (0u8..12, 0u16..20_000, 0u8..255).prop_map(|(f, o, b)| Op::Write(f, o, b)),
        (0u8..12, 0u16..20_000).prop_map(|(f, s)| Op::Truncate(f, s)),
        (0u8..12).prop_map(Op::Unlink),
        (0u8..6).prop_map(Op::Mkdir),
        (0u8..6).prop_map(Op::Rmdir),
        (0u8..12, 0u8..12).prop_map(|(a, b)| Op::Rename(a, b)),
        (0u8..12, 0u8..12).prop_map(|(a, b)| Op::Link(a, b)),
        (0u8..12, 0u16..0o777).prop_map(|(f, m)| Op::Chmod(f, m)),
        (1u8..10).prop_map(Op::Advance),
    ]
}

#[derive(Debug, Default, Clone)]
struct Model {
    /// name -> content (files; hard links share via a second map).
    files: HashMap<String, Vec<u8>>,
    dirs: HashMap<String, ()>,
}

fn fname(i: u8) -> String {
    format!("f{i}")
}
fn dname(i: u8) -> String {
    format!("sub{i}")
}

fn apply(fs: &Ext3, model: &mut Model, sim: &Rc<Sim>, op: &Op) {
    let root = fs.root();
    match op {
        Op::Create(f) => {
            let name = fname(*f);
            let r = fs.create(root, &name, 0o644);
            if let std::collections::hash_map::Entry::Vacant(e) = model.files.entry(name) {
                r.unwrap();
                e.insert(Vec::new());
            } else {
                assert_eq!(r, Err(FsError::Exists));
            }
        }
        Op::Write(f, off, byte) => {
            let name = fname(*f);
            if let Some(content) = model.files.get_mut(&name) {
                let ino = fs.lookup(root, &name).unwrap();
                let data = vec![*byte; 100];
                fs.write(ino, *off as u64, &data).unwrap();
                let end = *off as usize + 100;
                if content.len() < end {
                    content.resize(end, 0);
                }
                content[*off as usize..end].copy_from_slice(&data);
            }
        }
        Op::Truncate(f, size) => {
            let name = fname(*f);
            if model.files.contains_key(&name) {
                let ino = fs.lookup(root, &name).unwrap();
                fs.setattr(
                    ino,
                    SetAttr {
                        size: Some(*size as u64),
                        ..SetAttr::default()
                    },
                )
                .unwrap();
                model
                    .files
                    .get_mut(&name)
                    .unwrap()
                    .resize(*size as usize, 0);
            }
        }
        Op::Unlink(f) => {
            let name = fname(*f);
            let r = fs.unlink(root, &name);
            if model.files.remove(&name).is_some() {
                r.unwrap();
            } else {
                assert!(r.is_err());
            }
        }
        Op::Mkdir(d) => {
            let name = dname(*d);
            let r = fs.mkdir(root, &name, 0o755);
            if let std::collections::hash_map::Entry::Vacant(e) = model.dirs.entry(name) {
                r.unwrap();
                e.insert(());
            } else {
                assert_eq!(r, Err(FsError::Exists));
            }
        }
        Op::Rmdir(d) => {
            let name = dname(*d);
            let r = fs.rmdir(root, &name);
            if model.dirs.remove(&name).is_some() {
                r.unwrap();
            } else {
                assert!(r.is_err());
            }
        }
        Op::Rename(a, b) => {
            let (an, bn) = (fname(*a), fname(*b));
            let r = fs.rename(root, &an, root, &bn);
            if let Some(content) = model.files.get(&an).cloned() {
                if a == b {
                    r.unwrap();
                } else {
                    r.unwrap();
                    model.files.remove(&an);
                    model.files.insert(bn, content);
                }
            } else {
                assert!(r.is_err());
            }
        }
        Op::Link(a, b) => {
            let (an, bn) = (fname(*a), fname(*b));
            if model.files.contains_key(&an) && !model.files.contains_key(&bn) {
                let ino = fs.lookup(root, &an).unwrap();
                fs.link(root, &bn, ino).unwrap();
                // Model treats links as snapshots; subsequent writes
                // through either name keep them in sync only if we
                // model aliasing — keep it simple: writes to a name
                // update both when inodes match is NOT modeled, so
                // remove the alias before divergence can happen by
                // unlinking the new name again.
                fs.unlink(root, &bn).unwrap();
            }
        }
        Op::Chmod(f, mode) => {
            let name = fname(*f);
            if model.files.contains_key(&name) {
                let ino = fs.lookup(root, &name).unwrap();
                let a = fs
                    .setattr(
                        ino,
                        SetAttr {
                            perm: Some(*mode),
                            ..SetAttr::default()
                        },
                    )
                    .unwrap();
                assert_eq!(a.perm, mode & 0o7777);
            }
        }
        Op::Advance(s) => {
            sim.advance(SimDuration::from_secs(*s as u64));
        }
    }
}

#[expect(
    clippy::iter_over_hash_type,
    clippy::disallowed_methods,
    reason = "D2: each model entry is checked on its own, so order cannot change the verdict"
)]
fn check_against_model(fs: &Ext3, model: &Model) {
    let root = fs.root();
    // Every model object exists with the right content.
    for (name, content) in &model.files {
        let ino = fs
            .lookup(root, name)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let attr = fs.getattr(ino).unwrap();
        assert_eq!(attr.size, content.len() as u64, "{name}");
        let got = fs.read(ino, 0, content.len().max(1)).unwrap();
        assert_eq!(&got, content, "{name}");
    }
    for name in model.dirs.keys() {
        fs.lookup(root, name).unwrap();
    }
    // And nothing else does.
    let listed: Vec<String> = fs
        .readdir(root)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .filter(|n| n != "." && n != "..")
        .collect();
    assert_eq!(
        listed.len(),
        model.files.len() + model.dirs.len(),
        "directory contents diverge: {listed:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random operation sequences keep the tree equal to the model,
    /// fsck-clean, and durable across unmount/remount.
    #[test]
    fn matches_model_and_survives_remount(
        ops in prop::collection::vec(op_strategy(), 1..60),
        seed in 0u64..1000,
    ) {
        let sim = Sim::new(seed);
        let disk = Rc::new(MemDisk::new("d", 300_000));
        let fs = Ext3::mkfs(sim.clone(), disk.clone(), Options::default()).unwrap();
        let mut model = Model::default();
        for op in &ops {
            apply(&fs, &mut model, &sim, op);
        }
        check_against_model(&fs, &model);
        let report = fs.fsck().unwrap();
        prop_assert!(report.ok(), "{report}");
        fs.unmount().unwrap();
        let fs2 = Ext3::mount(sim, disk, Options::default()).unwrap();
        check_against_model(&fs2, &model);
        prop_assert!(fs2.fsck().unwrap().ok());
    }

    /// Crashing at an arbitrary point never leaves an inconsistent
    /// volume: journal replay restores a clean (possibly older) tree.
    #[test]
    fn crash_replay_is_always_consistent(
        ops in prop::collection::vec(op_strategy(), 1..60),
        seed in 0u64..1000,
    ) {
        let sim = Sim::new(seed);
        let disk = Rc::new(MemDisk::new("d", 300_000));
        let fs = Ext3::mkfs(sim.clone(), disk.clone(), Options::default()).unwrap();
        let mut model = Model::default();
        for op in &ops {
            apply(&fs, &mut model, &sim, op);
        }
        fs.crash();
        drop(fs);
        let fs2 = Ext3::mount(sim, disk, Options::default()).unwrap();
        let report = fs2.fsck().unwrap();
        prop_assert!(report.ok(), "after crash: {report}");
    }
}
