//! Integration tests of the mount against real stacks: an NFS v3
//! client/server pair and an ext3-over-iSCSI local mount.

use blockdev::MemDisk;
use cpu::{CostModel, CpuAccount};
use ext3::{Ext3, FsError};
use iscsi::{Initiator, SessionParams, Target};
use net::{LinkParams, Network, Transport};
use nfs::{NfsClient, NfsConfig, NfsServer, Version};
use rpc::{RpcClient, RpcConfig};
use simkit::Sim;
use std::rc::Rc;
use vfs::{Fd, FileSystem, LocalMount, NfsMount};

fn nfs_mount() -> NfsMount {
    let sim = Sim::new(1);
    let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
    let fs = Ext3::mkfs(
        sim.clone(),
        Rc::new(MemDisk::new("srv", 300_000)),
        ext3::Options::default(),
    )
    .unwrap();
    let server = Rc::new(NfsServer::new(
        fs,
        Rc::new(CpuAccount::new()),
        CostModel::p3_933(),
    ));
    let rpcc = RpcClient::new(netw.channel("nfs", Transport::Tcp), RpcConfig::default());
    let client = Rc::new(NfsClient::new(
        sim,
        rpcc,
        server,
        NfsConfig::for_version(Version::V3),
        Rc::new(CpuAccount::new()),
        CostModel::p3_933(),
    ));
    NfsMount::new(client)
}

fn local_mount() -> LocalMount {
    let sim = Sim::new(1);
    let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
    let target = Rc::new(Target::new(Rc::new(MemDisk::new("lun", 300_000))));
    let disk = Rc::new(
        Initiator::new(netw.channel("iscsi", Transport::Tcp), target)
            .login(SessionParams::default())
            .unwrap(),
    );
    let fs = Rc::new(Ext3::mkfs(sim, disk, ext3::Options::default()).unwrap());
    LocalMount::new(fs, Rc::new(CpuAccount::new()), CostModel::p3_933())
}

fn mounts() -> Vec<(&'static str, Box<dyn FileSystem>)> {
    vec![
        ("nfs", Box::new(nfs_mount())),
        ("iscsi", Box::new(local_mount())),
    ]
}

#[test]
fn path_resolution_absolute_and_relative() {
    for (name, fs) in mounts() {
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.chdir("/a").unwrap();
        fs.creat("b/file").unwrap();
        assert!(fs.stat("/a/b/file").is_ok(), "{name}");
        assert!(fs.stat("b/file").is_ok(), "{name}");
        fs.chdir("/").unwrap();
        assert_eq!(fs.stat("b/file").unwrap_err(), FsError::NotFound, "{name}");
    }
}

#[test]
fn dotdot_resolution_over_nfs() {
    let fs = nfs_mount();
    fs.mkdir("/x").unwrap();
    fs.mkdir("/x/y").unwrap();
    fs.chdir("/x/y").unwrap();
    fs.creat("../in_x").unwrap();
    assert!(fs.stat("/x/in_x").is_ok());
}

#[test]
fn read_write_via_descriptors() {
    for (name, fs) in mounts() {
        fs.creat("/f").unwrap();
        let fd = fs.open("/f").unwrap();
        assert_eq!(fs.write(fd, 0, b"0123456789").unwrap(), 10, "{name}");
        assert_eq!(fs.read(fd, 3, 4).unwrap(), b"3456", "{name}");
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 10, "{name}");
    }
}

#[test]
fn full_table1_syscall_surface() {
    for (name, fs) in mounts() {
        fs.mkdir("/d").unwrap();
        fs.chdir("/d").unwrap();
        fs.creat("f").unwrap();
        fs.link("f", "hard").unwrap();
        fs.symlink("f", "soft").unwrap();
        assert_eq!(fs.readlink("soft").unwrap(), "f", "{name}");
        fs.truncate("f", 0).unwrap();
        fs.chmod("f", 0o640).unwrap();
        fs.chown("f", 7, 8).unwrap();
        fs.access("f").unwrap();
        fs.utime("f").unwrap();
        let st = fs.stat("f").unwrap();
        assert_eq!(st.perm, 0o640, "{name}");
        assert_eq!(st.uid, 7, "{name}");
        assert_eq!(st.links, 2, "{name}");
        let mut names = fs.readdir(".").unwrap();
        names.sort();
        assert_eq!(names, vec![".", "..", "f", "hard", "soft"], "{name}");
        fs.rename("hard", "renamed").unwrap();
        fs.unlink("renamed").unwrap();
        fs.unlink("soft").unwrap();
        fs.unlink("f").unwrap();
        fs.chdir("/").unwrap();
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.stat("/d").unwrap_err(), FsError::NotFound, "{name}");
    }
}

#[test]
fn errors_surface_consistently() {
    for (name, fs) in mounts() {
        assert_eq!(
            fs.stat("/missing").unwrap_err(),
            FsError::NotFound,
            "{name}"
        );
        fs.mkdir("/d").unwrap();
        assert_eq!(fs.mkdir("/d").unwrap_err(), FsError::Exists, "{name}");
        fs.creat("/d/f").unwrap();
        assert_eq!(fs.rmdir("/d").unwrap_err(), FsError::NotEmpty, "{name}");
        assert_eq!(
            fs.unlink("/d").unwrap_err(),
            FsError::IsADirectory,
            "{name}"
        );
        assert_eq!(
            fs.readdir("/d/f").unwrap_err(),
            FsError::NotADirectory,
            "{name}"
        );
    }
}

#[test]
fn statfs_reports_capacity_and_usage() {
    for (name, fs) in mounts() {
        let before = fs.statfs().unwrap();
        assert!(before.blocks_total > 0, "{name}");
        assert!(before.blocks_free <= before.blocks_total, "{name}");
        assert_eq!(before.block_size, 4096, "{name}");
        // Consuming space shows up.
        fs.creat("/big").unwrap();
        let fd = fs.open("/big").unwrap();
        fs.write(fd, 0, &vec![1u8; 1 << 20]).unwrap();
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        let after = fs.statfs().unwrap();
        assert!(after.blocks_free < before.blocks_free, "{name}");
        assert!(after.inodes_free < before.inodes_free, "{name}");
    }
}

/// `off + len` past `u64::MAX` used to panic under the test profile's
/// overflow checks and wrap to a tiny range in release builds.
fn offset_overflow_is_invalid_argument(fs: &dyn FileSystem) {
    fs.creat("/f").unwrap();
    let fd = fs.open("/f").unwrap();
    fs.write(fd, 0, b"hello").unwrap();
    let mut buf = [0u8; 4096];
    let overflow = FsError::InvalidArgument;
    assert_eq!(fs.read(fd, u64::MAX - 1, 4096).unwrap_err(), overflow);
    assert_eq!(
        fs.read_into(fd, u64::MAX - 1, &mut buf).unwrap_err(),
        overflow
    );
    assert_eq!(fs.write(fd, u64::MAX - 1, &buf).unwrap_err(), overflow);
    // The last range that fits is a read at EOF, not an error.
    assert_eq!(fs.read(fd, u64::MAX - 4096, 4096), Ok(Vec::new()));
    assert_eq!(fs.read(fd, 0, 4096).unwrap(), b"hello", "file unharmed");
}

#[test]
fn offset_overflow_is_invalid_argument_over_nfs() {
    offset_overflow_is_invalid_argument(&nfs_mount());
}

#[test]
fn offset_overflow_is_invalid_argument_over_iscsi() {
    offset_overflow_is_invalid_argument(&local_mount());
}

/// A descriptor no `open` could have returned is refused, not
/// truncated: `Fd((1 << 32) | n)` used to reach inode `n`.
#[test]
fn out_of_range_descriptor_is_invalid_argument() {
    for (name, fs) in mounts() {
        fs.creat("/f").unwrap();
        let fd = fs.open("/f").unwrap();
        fs.write(fd, 0, b"hello").unwrap();
        let bad = Fd((1 << 32) | fd.0);
        let invalid = FsError::InvalidArgument;
        let mut buf = [0u8; 5];
        assert_eq!(fs.read(bad, 0, 5).unwrap_err(), invalid, "{name}");
        assert_eq!(
            fs.read_into(bad, 0, &mut buf).unwrap_err(),
            invalid,
            "{name}"
        );
        assert_eq!(fs.write(bad, 0, b"HELLO").unwrap_err(), invalid, "{name}");
        assert_eq!(fs.fsync(bad).unwrap_err(), invalid, "{name}");
        assert_eq!(fs.close(bad).unwrap_err(), invalid, "{name}");
        assert_eq!(
            fs.read(fd, 0, 5).unwrap(),
            b"hello",
            "{name}: file unharmed"
        );
        fs.close(fd).unwrap();
    }
}
