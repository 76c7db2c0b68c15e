//! The paper's Table 8 shell workloads, driven against a synthetic
//! kernel-like source tree: `tar -xzf` (extract), `ls -lR` (recursive
//! list + stat), `make` (compile: read sources, write objects, heavy
//! client CPU), and `rm -rf` (recursive delete).

use simkit::{Sim, SimDuration, SplitMix64};
use std::rc::Rc;
use vfs::FileSystem;

/// Shape of the synthetic source tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    /// Top-level directories (kernel subsystems).
    pub top_dirs: usize,
    /// Sub-directories per top-level directory.
    pub sub_dirs: usize,
    /// Files per leaf directory.
    pub files_per_dir: usize,
    /// Mean file size in bytes.
    pub mean_file_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TreeSpec {
    fn default() -> Self {
        // A scaled Linux 2.4 source tree: ~25 * 8 = 200 dirs,
        // ~2400 files, ~17 MB.
        TreeSpec {
            top_dirs: 25,
            sub_dirs: 8,
            files_per_dir: 12,
            mean_file_size: 7_000,
            seed: 3,
        }
    }
}

impl TreeSpec {
    fn size_of(&self, rng: &mut SplitMix64) -> usize {
        // Half to 1.5x the mean, uniformly.
        let lo = self.mean_file_size / 2;
        let hi = self.mean_file_size * 3 / 2;
        rng.range_inclusive(lo as u64, hi as u64) as usize
    }
}

/// Completion times of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShellReport {
    /// `tar -xzf`: extracting the tree.
    pub tar_extract: SimDuration,
    /// `ls -lR`: recursive listing.
    pub ls_lr: SimDuration,
    /// `make`: the compile pass.
    pub compile: SimDuration,
    /// `rm -rf`: recursive removal.
    pub rm_rf: SimDuration,
}

fn leaf_dirs(root: &str, spec: &TreeSpec) -> Vec<String> {
    let mut v = Vec::new();
    for t in 0..spec.top_dirs {
        for s in 0..spec.sub_dirs {
            v.push(format!("{root}/sub{t}/dir{s}"));
        }
    }
    v
}

/// `tar -xzf`: creates the directory tree and writes every file
/// (decompression CPU charged per file).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn tar_extract(
    fs: &dyn FileSystem,
    sim: &Rc<Sim>,
    root: &str,
    spec: &TreeSpec,
) -> Result<SimDuration, ext3::FsError> {
    let mut rng = SplitMix64::new(spec.seed);
    let start = sim.now();
    match fs.mkdir(root) {
        Ok(()) | Err(ext3::FsError::Exists) => {}
        Err(e) => return Err(e),
    }
    for t in 0..spec.top_dirs {
        fs.mkdir(&format!("{root}/sub{t}"))?;
        for s in 0..spec.sub_dirs {
            let dir = format!("{root}/sub{t}/dir{s}");
            fs.mkdir(&dir)?;
            for f in 0..spec.files_per_dir {
                let path = format!("{dir}/file{f}.c");
                let size = spec.size_of(&mut rng);
                fs.creat(&path)?;
                let fd = fs.open(&path)?;
                let data = vec![b'x'; size];
                fs.write(fd, 0, &data)?;
                fs.close(fd)?;
                // gunzip CPU: ~50 MB/s on the PIII client.
                sim.advance(SimDuration::from_nanos(size as u64 * 20));
            }
        }
    }
    Ok(sim.now().since(start))
}

/// `ls -lR`: readdir + stat of everything.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn ls_lr(
    fs: &dyn FileSystem,
    sim: &Rc<Sim>,
    root: &str,
    spec: &TreeSpec,
) -> Result<SimDuration, ext3::FsError> {
    let start = sim.now();
    for top in fs.readdir(root)? {
        if top == "." || top == ".." {
            continue;
        }
        let tpath = format!("{root}/{top}");
        fs.stat(&tpath)?;
        for sub in fs.readdir(&tpath)? {
            if sub == "." || sub == ".." {
                continue;
            }
            let spath = format!("{tpath}/{sub}");
            fs.stat(&spath)?;
            for name in fs.readdir(&spath)? {
                if name == "." || name == ".." {
                    continue;
                }
                fs.stat(&format!("{spath}/{name}"))?;
            }
        }
    }
    let _ = spec;
    Ok(sim.now().since(start))
}

/// `make`: reads every source file, charges compile CPU, writes an
/// object file ~1.5x the source size.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn compile(
    fs: &dyn FileSystem,
    sim: &Rc<Sim>,
    root: &str,
    spec: &TreeSpec,
) -> Result<SimDuration, ext3::FsError> {
    let start = sim.now();
    let mut buf = vec![0u8; 65_536];
    for dir in leaf_dirs(root, spec) {
        for f in 0..spec.files_per_dir {
            let src = format!("{dir}/file{f}.c");
            let size = fs.stat(&src)?.size as usize;
            let fd = fs.open(&src)?;
            let mut off = 0usize;
            while off < size {
                let n = fs.read_into(fd, off as u64, &mut buf)?;
                if n == 0 {
                    break;
                }
                off += n;
            }
            fs.close(fd)?;
            // gcc 2.95 on the 1 GHz PIII client: ~100 KB/s of source.
            sim.advance(SimDuration::from_nanos(size as u64 * 10_000));
            let obj = format!("{dir}/file{f}.o");
            fs.creat(&obj)?;
            let ofd = fs.open(&obj)?;
            fs.write(ofd, 0, &vec![0u8; size * 3 / 2])?;
            fs.close(ofd)?;
        }
    }
    Ok(sim.now().since(start))
}

/// `rm -rf`: recursive delete of the whole tree.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn rm_rf(fs: &dyn FileSystem, sim: &Rc<Sim>, root: &str) -> Result<SimDuration, ext3::FsError> {
    let start = sim.now();
    remove_dir_recursive(fs, root)?;
    Ok(sim.now().since(start))
}

fn remove_dir_recursive(fs: &dyn FileSystem, path: &str) -> Result<(), ext3::FsError> {
    for name in fs.readdir(path)? {
        if name == "." || name == ".." {
            continue;
        }
        let child = format!("{path}/{name}");
        let attr = fs.stat(&child)?;
        if attr.ftype == ext3::FileType::Directory {
            remove_dir_recursive(fs, &child)?;
        } else {
            fs.unlink(&child)?;
        }
    }
    fs.rmdir(path)
}
