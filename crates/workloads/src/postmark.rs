//! PostMark (Katcher, NetApp TR-3022) reimplemented.
//!
//! The benchmark creates an initial pool of small random text files,
//! then runs transactions, each either *create-or-delete* a file or
//! *read-or-append* one, with equal bias (the paper's configuration),
//! and finally deletes the pool. Its meta-data intensity — creates,
//! deletes, and lookups dominating data transfer — is what exposes the
//! NFS/iSCSI gap in the paper's Table 5.
//!
//! Two entry points: [`run`] executes the whole benchmark on one file
//! system, and [`Session`] exposes the same benchmark one transaction
//! at a time, so a multi-client experiment can interleave N clients'
//! transactions round-robin on the shared simulation clock. `run` is
//! implemented on top of `Session` and draws the identical RNG
//! sequence it always has.
//!
//! File contents come from a text pool, as in Katcher's program: one
//! buffer of random text, every write a slice of it at a random
//! offset. No layer of the model looks at payload bytes, so what they
//! are is not simulated output; how many RNG draws a payload costs is
//! (DESIGN.md §8, the draw-budget rule).

use simkit::units::Bytes;
use simkit::SplitMix64;
use std::fmt::Write as _;
use vfs::FileSystem;

/// Length of the text pool, and so the largest `max_size` a
/// [`Session`] accepts.
pub(crate) const TEXT_POOL_LEN: usize = 16 * 1024;

/// The random text every payload is a slice of: printable bytes
/// 32..=125 from a constant seed, built at compile time, so a session
/// pays nothing for it.
static TEXT_POOL: [u8; TEXT_POOL_LEN] = {
    let mut rng = SplitMix64::new(0x706f_7374_6d61_726b); // "postmark"
    let mut text = [0u8; TEXT_POOL_LEN];
    let mut i = 0;
    while i < TEXT_POOL_LEN {
        text[i] = rng.below(94) as u8 + 32;
        i += 1;
    }
    text
};

/// PostMark parameters.
#[derive(Debug, Clone, Copy)]
pub struct PostmarkConfig {
    /// Initial (and steady-state target) number of files.
    pub file_count: usize,
    /// Minimum file size in bytes.
    pub min_size: usize,
    /// Maximum file size in bytes.
    pub max_size: usize,
    /// Number of transactions to run.
    pub transactions: usize,
    /// Buffered transfer unit for reads/appends.
    pub io_unit: usize,
    /// Number of subdirectories the pool is spread over (PostMark's
    /// `-s` option; keeps directories at a realistic size).
    pub subdirs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PostmarkConfig {
    fn default() -> Self {
        PostmarkConfig {
            file_count: 1000,
            min_size: 500,
            max_size: 9_977, // PostMark's classic default ceiling
            transactions: 10_000,
            io_unit: 4096,
            subdirs: 10,
            seed: 1,
        }
    }
}

/// Operation counts reported after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostmarkReport {
    /// Files created (pool + transactions).
    pub created: u64,
    /// Files deleted.
    pub deleted: u64,
    /// Read transactions.
    pub reads: u64,
    /// Append transactions.
    pub appends: u64,
    /// Bytes read.
    pub bytes_read: Bytes,
    /// Bytes written.
    pub bytes_written: Bytes,
}

/// A PostMark run driven one transaction at a time.
///
/// Call [`setup`](Session::setup) once, then [`step`](Session::step)
/// until it returns `false`, then [`teardown`](Session::teardown).
/// [`run`] wraps this sequence for the single-client case.
pub struct Session<'a> {
    fs: &'a dyn FileSystem,
    dir: String,
    cfg: PostmarkConfig,
    rng: SplitMix64,
    report: PostmarkReport,
    next_id: u64,
    /// Live files: `(id, size)`.
    pool: Vec<(u64, usize)>,
    remaining: usize,
    /// The current transaction's file, rebuilt in place by
    /// [`set_path`](Session::set_path).
    path: String,
    /// Where reads land: `io_unit` bytes, reused.
    read_buf: Vec<u8>,
}

impl<'a> Session<'a> {
    /// Prepares a session over `fs` rooted at `dir` (created by
    /// [`setup`](Session::setup) if needed).
    ///
    /// # Panics
    ///
    /// Panics if `min_size > max_size`, `file_count == 0`, or
    /// `max_size > TEXT_POOL_LEN` (a payload is one slice of the pool).
    pub fn new(fs: &'a dyn FileSystem, dir: &str, cfg: PostmarkConfig) -> Session<'a> {
        assert!(cfg.min_size <= cfg.max_size && cfg.file_count > 0);
        assert!(
            cfg.max_size <= TEXT_POOL_LEN,
            "max_size {} exceeds the {TEXT_POOL_LEN}-byte text pool",
            cfg.max_size
        );
        Session {
            fs,
            dir: dir.to_string(),
            rng: SplitMix64::new(cfg.seed),
            report: PostmarkReport::default(),
            next_id: 0,
            pool: Vec::with_capacity(cfg.file_count),
            remaining: cfg.transactions,
            path: String::new(),
            read_buf: vec![0u8; cfg.io_unit],
            cfg,
        }
    }

    fn subdirs(&self) -> u64 {
        self.cfg.subdirs.max(1) as u64
    }

    /// Points `self.path` at file `id`.
    fn set_path(&mut self, id: u64) {
        let subdir = id % self.subdirs();
        self.path.clear();
        write!(self.path, "{}/s{subdir}/pm{id}", self.dir).expect("writing to a String");
    }

    /// "Random text": `len` bytes of [`TEXT_POOL`] from a random
    /// offset. Consumes exactly `len` draws — the offset, then
    /// `len - 1` discarded — which is what one draw per byte used to
    /// cost, so every later size and pick is what it always was and
    /// [`resume_setup`](Session::resume_setup) can skip a payload
    /// knowing only its length.
    fn payload(&mut self, len: usize) -> &'static [u8] {
        if len == 0 {
            return &[];
        }
        let off = self.rng.below((TEXT_POOL_LEN - len + 1) as u64) as usize;
        self.rng.skip(len as u64 - 1);
        &TEXT_POOL[off..off + len]
    }

    /// Creates one pool file of random size (used by both the setup
    /// phase and create transactions).
    fn create_file(&mut self) -> Result<(), ext3::FsError> {
        let id = self.next_id;
        self.next_id += 1;
        let size = self
            .rng
            .range_inclusive(self.cfg.min_size as u64, self.cfg.max_size as u64)
            as usize;
        self.set_path(id);
        self.fs.creat(&self.path)?;
        let fd = self.fs.open(&self.path)?;
        let data = self.payload(size);
        self.fs.write(fd, 0, data)?;
        self.fs.close(fd)?;
        self.report.created += 1;
        self.report.bytes_written += Bytes::new(size as u64);
        self.pool.push((id, size));
        Ok(())
    }

    /// Phase 1: creates the directory tree and the initial file pool.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors (e.g. out of space).
    pub fn setup(&mut self) -> Result<(), ext3::FsError> {
        match self.fs.mkdir(&self.dir) {
            Ok(()) | Err(ext3::FsError::Exists) => {}
            Err(e) => return Err(e),
        }
        for s in 0..self.subdirs() {
            match self.fs.mkdir(&format!("{}/s{s}", self.dir)) {
                Ok(()) | Err(ext3::FsError::Exists) => {}
                Err(e) => return Err(e),
            }
        }
        for _ in 0..self.cfg.file_count {
            self.create_file()?;
        }
        Ok(())
    }

    /// Replays the bookkeeping of [`setup`](Session::setup) — RNG
    /// draws, id counter, pool contents, report totals — without
    /// touching the file system. For sessions resuming over a snapshot
    /// image that already holds the pool: the session must use the
    /// same config (seed included) the captured setup ran with, after
    /// which [`step`](Session::step) continues the exact transaction
    /// stream a never-snapshotted run would have produced. O(files):
    /// each file's payload draws are skipped in one
    /// [`SplitMix64::skip`](simkit::SplitMix64::skip), not replayed.
    pub fn resume_setup(&mut self) {
        for _ in 0..self.cfg.file_count {
            let id = self.next_id;
            self.next_id += 1;
            let size = self
                .rng
                .range_inclusive(self.cfg.min_size as u64, self.cfg.max_size as u64)
                as usize;
            // payload() consumes one draw per byte.
            self.rng.skip(size as u64);
            self.report.created += 1;
            self.report.bytes_written += Bytes::new(size as u64);
            self.pool.push((id, size));
        }
    }

    /// Transactions not yet run.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Phase 2, one step: runs a single transaction. Returns `false`
    /// once all transactions have run (and runs nothing further).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn step(&mut self) -> Result<bool, ext3::FsError> {
        if self.remaining == 0 {
            return Ok(false);
        }
        self.remaining -= 1;
        let create_delete = self.rng.below(2) == 0;
        if create_delete {
            if self.rng.below(2) == 0 || self.pool.is_empty() {
                self.create_file()?;
            } else {
                // Delete a random file.
                let idx = self.rng.below(self.pool.len() as u64) as usize;
                let (id, _) = self.pool.swap_remove(idx);
                self.set_path(id);
                self.fs.unlink(&self.path)?;
                self.report.deleted += 1;
            }
        } else if !self.pool.is_empty() {
            let idx = self.rng.below(self.pool.len() as u64) as usize;
            let read = self.rng.below(2) == 0;
            let (id, size) = self.pool[idx];
            self.set_path(id);
            if read {
                // Read the whole file in io_unit chunks.
                let fd = self.fs.open(&self.path)?;
                let mut off = 0usize;
                while off < size {
                    let n = self.fs.read_into(fd, off as u64, &mut self.read_buf)?;
                    if n == 0 {
                        break;
                    }
                    off += n;
                }
                self.fs.close(fd)?;
                self.report.reads += 1;
                self.report.bytes_read += Bytes::new(size as u64);
            } else {
                // Append a random amount.
                let extra = self
                    .rng
                    .range_inclusive(self.cfg.min_size as u64, self.cfg.max_size as u64)
                    as usize;
                let fd = self.fs.open(&self.path)?;
                let data = self.payload(extra);
                self.fs.write(fd, size as u64, data)?;
                self.fs.close(fd)?;
                self.pool[idx].1 = size + extra;
                self.report.appends += 1;
                self.report.bytes_written += Bytes::new(extra as u64);
            }
        }
        Ok(true)
    }

    /// Phase 3: deletes the remaining pool.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn teardown(&mut self) -> Result<(), ext3::FsError> {
        for (id, _) in std::mem::take(&mut self.pool) {
            self.set_path(id);
            self.fs.unlink(&self.path)?;
            self.report.deleted += 1;
        }
        Ok(())
    }

    /// Operation counts so far.
    pub fn report(&self) -> PostmarkReport {
        self.report
    }
}

/// Runs PostMark in `dir` (created if needed) on any file system.
///
/// # Errors
///
/// Propagates file-system errors (e.g. out of space).
///
/// # Panics
///
/// Panics where [`Session::new`] does.
pub fn run(
    fs: &dyn FileSystem,
    dir: &str,
    cfg: PostmarkConfig,
) -> Result<PostmarkReport, ext3::FsError> {
    let mut session = Session::new(fs, dir, cfg);
    session.setup()?;
    while session.step()? {}
    session.teardown()?;
    Ok(session.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ext3::FsResult;
    use vfs::Fd;

    #[test]
    fn config_defaults_are_sane() {
        let c = PostmarkConfig::default();
        assert!(c.min_size < c.max_size);
        assert!(c.transactions > 0);
    }

    /// A file system that does nothing but log the calls PostMark
    /// makes, arguments and written bytes included.
    #[derive(Default)]
    struct CallLog(std::cell::RefCell<Vec<String>>);

    impl CallLog {
        fn log(&self, call: String) {
            self.0.borrow_mut().push(call);
        }
    }

    impl FileSystem for CallLog {
        fn mkdir(&self, path: &str) -> FsResult<()> {
            self.log(format!("mkdir {path}"));
            Ok(())
        }
        fn creat(&self, path: &str) -> FsResult<()> {
            self.log(format!("creat {path}"));
            Ok(())
        }
        fn open(&self, path: &str) -> FsResult<Fd> {
            self.log(format!("open {path}"));
            Ok(Fd(self.0.borrow().len() as u64))
        }
        fn close(&self, fd: Fd) -> FsResult<()> {
            self.log(format!("close {}", fd.0));
            Ok(())
        }
        fn unlink(&self, path: &str) -> FsResult<()> {
            self.log(format!("unlink {path}"));
            Ok(())
        }
        fn read(&self, fd: Fd, off: u64, len: usize) -> FsResult<Vec<u8>> {
            self.log(format!("read {} {off} {len}", fd.0));
            Ok(vec![0; len])
        }
        fn write(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
            self.log(format!(
                "write {} {off} {}",
                fd.0,
                String::from_utf8_lossy(data)
            ));
            Ok(data.len())
        }
        fn chdir(&self, _: &str) -> FsResult<()> {
            unimplemented!()
        }
        fn readdir(&self, _: &str) -> FsResult<Vec<String>> {
            unimplemented!()
        }
        fn rmdir(&self, _: &str) -> FsResult<()> {
            unimplemented!()
        }
        fn symlink(&self, _: &str, _: &str) -> FsResult<()> {
            unimplemented!()
        }
        fn readlink(&self, _: &str) -> FsResult<String> {
            unimplemented!()
        }
        fn link(&self, _: &str, _: &str) -> FsResult<()> {
            unimplemented!()
        }
        fn rename(&self, _: &str, _: &str) -> FsResult<()> {
            unimplemented!()
        }
        fn truncate(&self, _: &str, _: u64) -> FsResult<()> {
            unimplemented!()
        }
        fn chmod(&self, _: &str, _: u16) -> FsResult<()> {
            unimplemented!()
        }
        fn chown(&self, _: &str, _: u32, _: u32) -> FsResult<()> {
            unimplemented!()
        }
        fn access(&self, _: &str) -> FsResult<()> {
            unimplemented!()
        }
        fn stat(&self, _: &str) -> FsResult<ext3::Attr> {
            unimplemented!()
        }
        fn utime(&self, _: &str) -> FsResult<()> {
            unimplemented!()
        }
        fn fsync(&self, _: Fd) -> FsResult<()> {
            unimplemented!()
        }
        fn statfs(&self) -> FsResult<ext3::StatFs> {
            unimplemented!()
        }
    }

    /// 120 files x 200 transactions, the size the two stream tests use.
    fn small() -> PostmarkConfig {
        PostmarkConfig {
            file_count: 120,
            transactions: 200,
            subdirs: 7,
            seed: 0xfeed,
            ..PostmarkConfig::default()
        }
    }

    /// FNV-1a over the logged calls, one per line, with each write's
    /// payload replaced by its length.
    fn decision_hash(log: &[String]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for call in log {
            let line = match call.strip_prefix("write ") {
                Some(args) => {
                    let mut it = args.splitn(3, ' ');
                    let (fd, off) = (it.next().unwrap(), it.next().unwrap());
                    format!("write {fd} {off} {}", it.next().map_or(0, str::len))
                }
                None => call.clone(),
            };
            for b in line.bytes().chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The generator's decisions — every path, offset and length, in
    /// call order — are pinned to what 9001dc5 (one draw per payload
    /// byte) produced. Payload content is free to change; this is not.
    #[test]
    fn decision_stream_is_pinned() {
        let fs = CallLog::default();
        run(&fs, "/pm", small()).unwrap();
        let log = fs.0.borrow();
        assert_eq!(
            (log.len(), decision_hash(&log)),
            (1242, 0x44b4_6ab0_8fe7_8469)
        );
    }

    #[test]
    fn payload_consumes_len_draws() {
        let fs = CallLog::default();
        let mut s = Session::new(&fs, "/pm", small());
        for len in [0, 1, 500, 9_977, TEXT_POOL_LEN] {
            let mut skipped = s.rng.clone();
            skipped.skip(len as u64);
            let data = s.payload(len);
            assert_eq!(data.len(), len);
            assert!(data.iter().all(|b| (32..=125).contains(b)));
            assert_eq!(s.rng, skipped, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 16384-byte text pool")]
    fn sizes_past_the_pool_are_rejected() {
        let cfg = PostmarkConfig {
            max_size: TEXT_POOL_LEN + 1,
            ..small()
        };
        Session::new(&CallLog::default(), "/pm", cfg);
    }

    #[test]
    fn resume_setup_leaves_the_session_where_setup_does() {
        let cfg = small();
        let (built_fs, resumed_fs) = (CallLog::default(), CallLog::default());
        let mut built = Session::new(&built_fs, "/pm", cfg);
        built.setup().unwrap();
        let mut resumed = Session::new(&resumed_fs, "/pm", cfg);
        resumed.resume_setup();
        assert!(resumed_fs.0.borrow().is_empty(), "resuming issues no call");

        assert_eq!(resumed.rng, built.rng);
        assert_eq!(resumed.pool, built.pool);
        assert_eq!(resumed.next_id, built.next_id);
        assert_eq!(resumed.report, built.report);

        // ...so the transaction streams are the same, call for call
        // and payload byte for payload byte.
        built_fs.0.borrow_mut().clear();
        for _ in 0..200 {
            assert!(built.step().unwrap());
            assert!(resumed.step().unwrap());
        }
        assert_eq!(*resumed_fs.0.borrow(), *built_fs.0.borrow());
        assert_eq!(resumed.report, built.report);
        assert_eq!(resumed.rng, built.rng);
    }
}
