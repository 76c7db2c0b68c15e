//! Host-time spans recorded by the benchmark's own shims at the layer
//! boundaries of an assembled stack (see `stack.rs`).
//!
//! A span is (boundary, name, start, end, parent, request id); the
//! request id is the root system call that caused it. A boundary's
//! *self time* is its spans' duration minus the part of that interval
//! their child spans cover — what the code between this boundary and
//! the next one down spent. Aggregates cover every span; the spans
//! themselves are kept in memory (up to [`KEEP_SPANS`]) and written as
//! Chrome trace-event JSON when the pass ends.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// The boundaries a shim sits at, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// One protocol's half of a unit: everything the workload
    /// generator does, system calls included. Its self time is the
    /// generator's own (`workloads`).
    Workload,
    /// A system call entering the mount (`vfs::FileSystem`): the root
    /// of a request.
    Vfs,
    /// Background work between requests (`settle`): also a root.
    Settle,
    /// Client ext3 → iSCSI `RemoteDisk` (`blockdev::BlockDevice`).
    ClientBlock,
    /// Server ext3, or the iSCSI target, → the RAID volume.
    ServerBlock,
    /// RAID-5 → one member disk.
    Member,
}

pub const BOUNDARIES: [Boundary; 6] = [
    Boundary::Workload,
    Boundary::Vfs,
    Boundary::Settle,
    Boundary::ClientBlock,
    Boundary::ServerBlock,
    Boundary::Member,
];

impl Boundary {
    fn index(self) -> usize {
        self as usize
    }

    pub fn label(self) -> &'static str {
        match self {
            Boundary::Workload => "workload",
            Boundary::Vfs => "vfs",
            Boundary::Settle => "settle",
            Boundary::ClientBlock => "client_block",
            Boundary::ServerBlock => "server_block",
            Boundary::Member => "member",
        }
    }
}

/// Length of the union of intervals fed in start order: the part of a
/// parent that its children cover, overlapping children counted once.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cover {
    covered_ns: u64,
    frontier_ns: u64,
}

impl Cover {
    /// Adds child `[start, end)`; children must arrive ordered by
    /// start (sequential code closes them that way).
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        let from = start_ns.max(self.frontier_ns);
        if end_ns > from {
            self.covered_ns += end_ns - from;
            self.frontier_ns = end_ns;
        }
    }

    pub fn covered_ns(&self) -> u64 {
        self.covered_ns
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub boundary: Boundary,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// This span's number in opening order.
    pub id: u32,
    /// The parent's number (`u32::MAX` for an outermost span).
    pub parent: u32,
    /// Root call this span belongs to.
    pub request: u64,
}

/// Totals for one boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub incl_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Blocks moved (block boundaries only).
    pub blocks: u64,
}

struct Open {
    boundary: Boundary,
    name: &'static str,
    start_ns: u64,
    cover: Cover,
    id: u32,
    request: u64,
}

/// Spans kept for export; aggregates are exact past this.
pub const KEEP_SPANS: usize = 250_000;

/// Collects spans for one replay.
pub struct Recorder {
    epoch: Instant,
    open: RefCell<Vec<Open>>,
    totals: RefCell<[Totals; BOUNDARIES.len()]>,
    kept: RefCell<Vec<Span>>,
    /// Duration of every `Vfs` root, ns (saturating at ~4.29 s).
    root_ns: RefCell<Vec<u32>>,
    opened: Cell<u32>,
    requests: Cell<u64>,
    failed_roots: Cell<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            open: RefCell::new(Vec::new()),
            totals: RefCell::new([Totals::default(); BOUNDARIES.len()]),
            kept: RefCell::new(Vec::new()),
            root_ns: RefCell::new(Vec::new()),
            opened: Cell::new(0),
            requests: Cell::new(0),
            failed_roots: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span at `boundary`. `blocks` is the request
    /// size at block boundaries (0 elsewhere).
    pub fn span<T>(
        &self,
        boundary: Boundary,
        name: &'static str,
        blocks: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.opened.get();
        self.opened.set(id.wrapping_add(1));
        // A request is rooted at the outermost span below the workload.
        let inherited = self
            .open
            .borrow()
            .iter()
            .find(|o| o.boundary != Boundary::Workload)
            .map(|root| root.request);
        let request = match inherited {
            Some(request) => request,
            None if boundary == Boundary::Workload => 0,
            None => {
                self.requests.set(self.requests.get() + 1);
                self.requests.get()
            }
        };
        let start_ns = self.now_ns();
        self.open.borrow_mut().push(Open {
            boundary,
            name,
            start_ns,
            cover: Cover::default(),
            id,
            request,
        });
        let out = f();
        let end_ns = self.now_ns();
        let mut open = self.open.borrow_mut();
        let me = open.pop().expect("span stack is balanced");
        let (parent, is_root) = match open.last_mut() {
            Some(p) => {
                p.cover.add(me.start_ns, end_ns);
                (p.id, p.boundary == Boundary::Workload)
            }
            None => (u32::MAX, true),
        };
        drop(open);
        let duration = end_ns - me.start_ns;
        {
            let mut totals = self.totals.borrow_mut();
            let t = &mut totals[boundary.index()];
            t.count += 1;
            t.incl_ns += duration;
            t.self_ns += duration - me.cover.covered_ns();
            t.blocks += blocks;
        }
        if boundary == Boundary::Vfs && is_root {
            self.root_ns
                .borrow_mut()
                .push(u32::try_from(duration).unwrap_or(u32::MAX));
        }
        let mut kept = self.kept.borrow_mut();
        if kept.len() < KEEP_SPANS {
            kept.push(Span {
                boundary: me.boundary,
                name: me.name,
                start_ns: me.start_ns,
                end_ns,
                id: me.id,
                parent,
                request: me.request,
            });
        }
        out
    }

    /// Notes that the root call just closed returned `Err`.
    pub fn root_failed(&self) {
        self.failed_roots.set(self.failed_roots.get() + 1);
    }

    pub fn totals(&self, boundary: Boundary) -> Totals {
        self.totals.borrow()[boundary.index()]
    }

    pub fn failed_roots(&self) -> u64 {
        self.failed_roots.get()
    }

    pub fn spans_closed(&self) -> u64 {
        self.totals.borrow().iter().map(|t| t.count).sum()
    }

    /// Durations of the `Vfs` roots, for percentiles.
    pub fn take_root_ns(&self) -> Vec<u32> {
        std::mem::take(&mut self.root_ns.borrow_mut())
    }

    /// Appends the kept spans as Chrome trace events (`ph: "X"`), one
    /// `tid` per recorder so several replays sit on separate tracks.
    pub fn write_chrome_events(&self, tid: u32, track: &str, out: &mut String) {
        if !out.is_empty() {
            out.push_str(",\n");
        }
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{track}\"}}}}"
        )
        .expect("write to String");
        for s in self.kept.borrow().iter() {
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"request\":{},\"parent\":{}}}}}",
                s.name,
                s.boundary.label(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.request,
                if s.parent == u32::MAX { -1 } else { i64::from(s.parent) },
            )
            .expect("write to String");
        }
    }
}

/// Wraps accumulated events into a Chrome trace document.
pub fn chrome_document(events: &str) -> String {
    format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{events}\n]}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self time of a span `[start, end)` given its direct children in any
    /// order: duration minus the union of the children, clipped to the
    /// span.
    fn self_time_ns(start_ns: u64, end_ns: u64, children: &[(u64, u64)]) -> u64 {
        let mut clipped: Vec<(u64, u64)> = children
            .iter()
            .map(|&(s, e)| (s.clamp(start_ns, end_ns), e.clamp(start_ns, end_ns)))
            .collect();
        clipped.sort_unstable();
        let mut cover = Cover::default();
        for (s, e) in clipped {
            cover.add(s, e);
        }
        (end_ns - start_ns) - cover.covered_ns()
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time_ns(0, 100, &[(10, 20), (50, 70)]), 70);
        assert_eq!(self_time_ns(0, 100, &[]), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10,40) and [30,60) cover [10,60): 50, not 60.
        assert_eq!(self_time_ns(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time_ns(0, 100, &[(10, 60), (20, 30)]), 50);
        // Order of arrival does not matter.
        assert_eq!(self_time_ns(0, 100, &[(30, 60), (10, 40)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns(10, 50, &[(0, 20), (40, 90)]), 20);
        assert_eq!(self_time_ns(10, 50, &[(0, 100)]), 0);
    }

    #[test]
    fn recorder_nests_and_attributes_self_time() {
        let rec = Recorder::new();
        let spin = |ns: u64| {
            let t0 = Instant::now();
            while (t0.elapsed().as_nanos() as u64) < ns {}
        };
        rec.span(Boundary::Vfs, "creat", 0, || {
            spin(200_000);
            rec.span(Boundary::ServerBlock, "write", 8, || {
                spin(100_000);
                rec.span(Boundary::Member, "write", 8, || spin(100_000));
            });
        });
        let vfs = rec.totals(Boundary::Vfs);
        let srv = rec.totals(Boundary::ServerBlock);
        let mem = rec.totals(Boundary::Member);
        assert_eq!((vfs.count, srv.count, mem.count), (1, 1, 1));
        assert_eq!(mem.blocks, 8);
        // Inclusive times nest; self times partition the root.
        assert!(vfs.incl_ns >= srv.incl_ns && srv.incl_ns >= mem.incl_ns);
        assert_eq!(vfs.self_ns + srv.self_ns + mem.self_ns, vfs.incl_ns);
        assert!(vfs.self_ns >= 200_000 && srv.self_ns >= 100_000 && mem.self_ns >= 100_000);
        assert_eq!(rec.take_root_ns().len(), 1);
        // All three belong to request 1; the next root is request 2,
        // also under a workload span, which itself belongs to none.
        rec.span(Boundary::Workload, "unit", 0, || {
            rec.span(Boundary::Vfs, "stat", 0, || ());
        });
        let kept = rec.kept.borrow();
        assert!(kept[..3].iter().all(|s| s.request == 1));
        assert_eq!(kept[3].request, 2);
        assert_eq!(kept[4].request, 0);
        assert_eq!(
            kept[0].parent, 1,
            "member's parent is the server block span"
        );
        assert_eq!(kept[2].parent, u32::MAX);
        drop(kept);
        assert_eq!(
            rec.take_root_ns().len(),
            1,
            "a call under a workload span is a root"
        );
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let rec = Recorder::new();
        rec.span(Boundary::Vfs, "open", 0, || {
            rec.span(Boundary::ClientBlock, "read", 1, || ());
        });
        let mut events = String::new();
        rec.write_chrome_events(1, "iscsi", &mut events);
        let doc = crate::json::Json::parse(&chrome_document(&events)).unwrap();
        let n = match doc.get("traceEvents") {
            Some(crate::json::Json::Arr(items)) => items.len(),
            other => panic!("{other:?}"),
        };
        assert_eq!(n, 3);
    }
}
