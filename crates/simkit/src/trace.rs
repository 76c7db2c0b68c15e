//! A causal span tracer keyed on virtual time.
//!
//! Layers record *spans* — a layer name, an operation, a start/end
//! [`SimTime`], and free-form attributes — into a bounded ring buffer
//! owned by the [`crate::Sim`]. The tracer is disabled by default and
//! costs one branch per call site when off: callers should guard
//! attribute construction with [`Tracer::enabled`], and
//! [`Tracer::record`] itself returns before touching the buffer, so
//! the disabled path never allocates.
//!
//! ## Causality
//!
//! Every span carries a [`TraceId`] (one per request, minted at the
//! outermost span), a [`SpanId`], an optional parent [`SpanId`], and a
//! [`HostId`] naming the machine the work ran on. Layers that *enclose*
//! other layers (a VFS system call around its RPCs, an iSCSI exchange
//! around the target's device work) bracket their work with
//! [`Tracer::open_span`]/[`Tracer::close_span`]; anything recorded
//! between the two — including plain [`Tracer::record`] calls from
//! layers that know nothing about causality — becomes a child of the
//! open span. Identifiers are minted deterministically from the
//! simulation seed and per-tracer sequence counters, so equal-seed runs
//! produce identical IDs; no ambient state (wall clock, global RNG) is
//! involved.
//!
//! Background daemons fire *inside* a foreground [`crate::Sim::advance`]
//! but are causally unrelated to the advancing operation; the `Sim`
//! shelves the context stack around each daemon callback (see
//! [`Tracer::shelve_stack`]) so daemon-recorded spans start fresh
//! traces instead of mis-nesting under whichever request happened to
//! move the clock.
//!
//! Enabled traces can be rendered as an Ethereal/Wireshark-style text
//! listing with [`Tracer::dump`], analyzed into per-request critical
//! paths with [`crate::critpath`], or exported as Chrome
//! `trace_event` JSON with [`crate::chrome`].

use crate::clock::SimTime;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Default ring-buffer bound (spans retained before the oldest are
/// dropped).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Identity of one request's causal tree. `TraceId(0)` means "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identity of one span within the tracer. `SpanId(0)` means "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The machine a span's work ran on: `0` is the server, `1 + i` is
/// client host `c<i>` — the track key of the Chrome exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u16);

impl HostId {
    /// The (single) server machine.
    pub const SERVER: HostId = HostId(0);

    /// Sentinel for host-independent background activity (the gauge
    /// sampler). Sorts after every real host, so at equal-time event
    /// ties machine-owned work fires first.
    pub const BACKGROUND: HostId = HostId(u16::MAX);

    /// First id of the server range used by [`HostId::server`] for
    /// `j > 0`: high enough that thousands of clients never collide,
    /// below [`HostId::BACKGROUND`] so server-owned timers still fire
    /// before the sampler at equal-time ties.
    const SERVER_BASE: u16 = 0xFE00;

    /// Client host `c<i>`.
    ///
    /// # Panics
    ///
    /// Panics if `i` would reach the server range (≥ 65 023).
    pub fn client(i: u32) -> HostId {
        assert!(
            i < (Self::SERVER_BASE - 1) as u32,
            "client index {i} out of range"
        );
        HostId(1 + i as u16)
    }

    /// Server host `s<j>` of a sharded topology. `server(0)` is
    /// [`HostId::SERVER`], keeping single-server byte layouts (track
    /// keys, event tie-breaks) untouched; further servers live in a
    /// high range above every client id.
    ///
    /// # Panics
    ///
    /// Panics if `j` would reach [`HostId::BACKGROUND`] (≥ 511).
    pub fn server(j: u32) -> HostId {
        if j == 0 {
            return HostId::SERVER;
        }
        assert!(
            Self::SERVER_BASE as u32 + j < u16::MAX as u32,
            "server index {j} out of range"
        );
        HostId(Self::SERVER_BASE + j as u16)
    }
}

/// The display name: `server`, `s<j>`, or `c<i>`.
impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.name_parts() {
            (prefix, Some(n)) => write!(f, "{prefix}{n}"),
            (name, None) => f.write_str(name),
        }
    }
}

impl HostId {
    /// The display name as a prefix and an index: `("server", None)`,
    /// `("s", Some(j))` or `("c", Some(i))`.
    pub(crate) fn name_parts(self) -> (&'static str, Option<u16>) {
        if self.0 == 0 {
            ("server", None)
        } else if self.0 >= Self::SERVER_BASE && self.0 != u16::MAX {
            ("s", Some(self.0 - Self::SERVER_BASE))
        } else {
            ("c", Some(self.0 - 1))
        }
    }
}

/// An open span's identity, returned by [`Tracer::open_span`] and
/// passed back to [`Tracer::close_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// The request tree this span belongs to.
    pub trace: TraceId,
    /// This span's own identity.
    pub span: SpanId,
    /// Machine attribution inherited by child spans.
    pub host: HostId,
}

impl SpanCtx {
    /// The no-op context handed out while the tracer is disabled.
    pub(crate) const DISABLED: SpanCtx = SpanCtx {
        trace: TraceId(0),
        span: SpanId(0),
        host: HostId(0),
    };

    /// True for the disabled sentinel.
    pub fn is_disabled(self) -> bool {
        self.span.0 == 0
    }
}

/// One recorded span (or instantaneous event, when `start == end`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotonic sequence number (never reused, even after drops).
    pub seq: u64,
    /// Request tree this span belongs to.
    pub trace: TraceId,
    /// This span's identity.
    pub span: SpanId,
    /// Enclosing span at recording time, if any.
    pub parent: Option<SpanId>,
    /// Machine the work ran on.
    pub host: HostId,
    /// Originating layer, e.g. `"rpc"`, `"iscsi"`, `"disk"`, `"ext3"`.
    pub layer: &'static str,
    /// Operation label, e.g. `"lookup"` or `"journal_commit"`.
    pub op: String,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
    /// Free-form `key=value` attributes.
    pub attrs: Vec<(&'static str, String)>,
}

/// SplitMix64-style finalizer: deterministic ID mixing with good
/// avalanche, derived only from the seed and a sequence number.
fn mix(seed: u64, salt: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt)
        .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TRACE_SALT: u64 = 0x7472_6163_6549_4421; // "traceID!"
const SPAN_SALT: u64 = 0x7370_616e_4944_2121; // "spanID!!"

/// Bounded, deterministic span recorder. The recording contract is in
/// the `trace` module's docs.
pub struct Tracer {
    enabled: Cell<bool>,
    /// Ring bound; unit tests shrink it to force eviction.
    pub(crate) capacity: Cell<usize>,
    ring: RefCell<VecDeque<SpanRecord>>,
    dropped: Cell<u64>,
    seq: Cell<u64>,
    /// RNG seed of the owning `Sim`, folded into minted IDs.
    seed: Cell<u64>,
    next_trace: Cell<u64>,
    next_span: Cell<u64>,
    /// Open-span context stack (single-threaded, like the `Sim`).
    stack: RefCell<Vec<SpanCtx>>,
    /// Shelved stack while a daemon callback runs.
    shelf: RefCell<Vec<SpanCtx>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled.get())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer with the default capacity.
    pub(crate) fn new() -> Self {
        Tracer {
            enabled: Cell::new(false),
            capacity: Cell::new(DEFAULT_TRACE_CAPACITY),
            ring: RefCell::new(VecDeque::new()),
            dropped: Cell::new(0),
            seq: Cell::new(0),
            seed: Cell::new(0),
            next_trace: Cell::new(0),
            next_span: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            shelf: RefCell::new(Vec::new()),
        }
    }

    /// Sets the ID-derivation seed (the owning `Sim`'s RNG seed).
    pub(crate) fn set_seed(&self, seed: u64) {
        self.seed.set(seed);
    }

    /// Turns recording on or off. Disabling does not clear the buffer.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// True if spans are currently recorded. Call sites use this to
    /// skip attribute construction entirely when tracing is off.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    fn mint_trace(&self) -> TraceId {
        let n = self.next_trace.get();
        self.next_trace.set(n + 1);
        TraceId(mix(self.seed.get(), TRACE_SALT, n) | 1)
    }

    fn mint_span(&self) -> SpanId {
        let n = self.next_span.get();
        self.next_span.set(n + 1);
        SpanId(mix(self.seed.get(), SPAN_SALT, n) | 1)
    }

    /// Opens a span: everything recorded until the matching
    /// [`close_span`](Tracer::close_span) becomes its child. The trace
    /// ID is inherited from the enclosing span, or freshly minted for a
    /// root. `host` overrides the machine attribution; `None` inherits
    /// the parent's (the server's, at a root).
    ///
    /// Returns `SpanCtx::DISABLED` (a no-op token) when tracing is
    /// off, so call sites pay one branch and no allocation.
    pub fn open_span(&self, host: Option<HostId>) -> SpanCtx {
        if !self.enabled.get() {
            return SpanCtx::DISABLED;
        }
        let parent = self.stack.borrow().last().copied();
        let trace = match parent {
            Some(p) => p.trace,
            None => self.mint_trace(),
        };
        let host = host.or(parent.map(|p| p.host)).unwrap_or(HostId::SERVER);
        let ctx = SpanCtx {
            trace,
            span: self.mint_span(),
            host,
        };
        self.stack.borrow_mut().push(ctx);
        ctx
    }

    /// Closes `ctx`, recording its span. A
    /// `SpanCtx::DISABLED` token is a no-op.
    pub fn close_span(
        &self,
        ctx: SpanCtx,
        layer: &'static str,
        op: &str,
        start: SimTime,
        end: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) {
        if ctx.is_disabled() {
            return;
        }
        let parent = {
            let mut stack = self.stack.borrow_mut();
            if stack.last().map(|t| t.span) == Some(ctx.span) {
                stack.pop();
            }
            stack
                .last()
                .filter(|p| p.trace == ctx.trace)
                .map(|p| p.span)
        };
        if !self.enabled.get() {
            return;
        }
        self.push_record(
            ctx.trace, ctx.span, parent, ctx.host, layer, op, start, end, attrs,
        );
    }

    /// Records a leaf span as a child of the innermost open span (a
    /// root of a fresh trace when none is open). No-op (and
    /// allocation-free) when disabled; when the buffer is full the
    /// oldest span is evicted and counted in
    /// `dropped`.
    pub fn record(
        &self,
        layer: &'static str,
        op: &str,
        start: SimTime,
        end: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) {
        if !self.enabled.get() {
            return;
        }
        let parent = self.stack.borrow().last().copied();
        let host = parent.map(|p| p.host).unwrap_or(HostId::SERVER);
        self.record_leaf(parent, host, layer, op, start, end, attrs);
    }

    /// Like [`record`](Tracer::record), but with explicit machine
    /// attribution — for layers that always run on a known host (the
    /// disks live at the server regardless of which client's request
    /// reached them).
    pub fn record_at(
        &self,
        host: HostId,
        layer: &'static str,
        op: &str,
        start: SimTime,
        end: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) {
        if !self.enabled.get() {
            return;
        }
        let parent = self.stack.borrow().last().copied();
        self.record_leaf(parent, host, layer, op, start, end, attrs);
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per `SpanRecord` field"
    )]
    fn record_leaf(
        &self,
        parent: Option<SpanCtx>,
        host: HostId,
        layer: &'static str,
        op: &str,
        start: SimTime,
        end: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) {
        let trace = match parent {
            Some(p) => p.trace,
            None => self.mint_trace(),
        };
        let span = self.mint_span();
        self.push_record(
            trace,
            span,
            parent.map(|p| p.span),
            host,
            layer,
            op,
            start,
            end,
            attrs,
        );
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per `SpanRecord` field"
    )]
    fn push_record(
        &self,
        trace: TraceId,
        span: SpanId,
        parent: Option<SpanId>,
        host: HostId,
        layer: &'static str,
        op: &str,
        start: SimTime,
        end: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let mut ring = self.ring.borrow_mut();
        if self.capacity.get() == 0 {
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        while ring.len() >= self.capacity.get() {
            ring.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        ring.push_back(SpanRecord {
            seq,
            trace,
            span,
            parent,
            host,
            layer,
            op: op.to_owned(),
            start,
            end,
            attrs,
        });
    }

    /// Shelves the open-span stack (daemon callbacks are causally
    /// unrelated to the request that advanced the clock); restore with
    /// [`unshelve_stack`](Tracer::unshelve_stack). The `Sim` brackets
    /// every daemon `fire` with this pair.
    pub(crate) fn shelve_stack(&self) {
        std::mem::swap(&mut *self.stack.borrow_mut(), &mut *self.shelf.borrow_mut());
    }

    /// Restores the stack shelved by [`shelve_stack`](Tracer::shelve_stack).
    pub(crate) fn unshelve_stack(&self) {
        std::mem::swap(&mut *self.stack.borrow_mut(), &mut *self.shelf.borrow_mut());
    }

    /// Number of buffered spans.
    pub(crate) fn len(&self) -> usize {
        self.ring.borrow().len()
    }

    /// True if no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.borrow().is_empty()
    }

    /// Spans evicted (or rejected at capacity 0) so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Copies the buffered spans in recording order. Prefer
    /// `for_each_span` when a borrow suffices —
    /// this clones the whole ring.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.borrow().iter().cloned().collect()
    }

    /// Visits the buffered spans in recording order without copying
    /// them. The callback must not re-enter the tracer's recording
    /// methods (the ring is borrowed for the duration).
    pub(crate) fn for_each_span(&self, mut f: impl FnMut(&SpanRecord)) {
        for s in self.ring.borrow().iter() {
            f(s);
        }
    }

    /// Clears the buffer and the dropped count (sequence numbers and
    /// ID counters keep advancing).
    pub fn clear(&self) {
        self.ring.borrow_mut().clear();
        self.dropped.set(0);
    }

    /// Renders the buffer as an Ethereal-style text listing:
    ///
    /// ```text
    /// No.      Time          Layer    Duration      Op / Info
    /// 12       0.004210s     rpc      210.000us     lookup retrans=0
    /// ```
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:<13} {:<8} {:<13} Op / Info",
            "No.", "Time", "Layer", "Duration"
        );
        self.for_each_span(|s| {
            let mut info = s.op.clone();
            for (k, v) in &s.attrs {
                let _ = write!(info, " {k}={v}");
            }
            let _ = writeln!(
                out,
                "{:<8} {:<13} {:<8} {:<13} {}",
                s.seq,
                format!("{}", s.start),
                s.layer,
                format!("{}", s.end.saturating_since(s.start)),
                info
            );
        });
        if self.dropped.get() > 0 {
            let _ = writeln!(out, "({} earlier spans dropped)", self.dropped.get());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn the_last_client_id_sits_below_the_server_range() {
        assert_eq!(HostId::client(0xFDFE).to_string(), "c65022");
        for i in [0xFDFF, 0xFFFE, 0xFFFF, 65_536] {
            let caught = std::panic::catch_unwind(|| HostId::client(i));
            assert!(caught.is_err(), "client({i}) must panic");
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_never_allocates() {
        let tr = Tracer::new();
        assert!(!tr.enabled());
        for i in 0..100 {
            tr.record("rpc", "lookup", t(i), t(i + 1), vec![]);
        }
        assert!(tr.is_empty());
        assert_eq!(tr.len(), 0);
        assert_eq!(tr.dropped(), 0);
        assert_eq!(
            tr.ring.borrow().capacity(),
            0,
            "disabled path must not allocate"
        );
    }

    #[test]
    fn enabled_tracer_buffers_spans_in_order() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.record("rpc", "lookup", t(0), t(10), vec![("retrans", "0".into())]);
        tr.record("ext3", "commit", t(20), t(20), vec![]);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].layer, "rpc");
        assert_eq!(spans[0].op, "lookup");
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, 1);
        assert_eq!(spans[1].start, spans[1].end);
    }

    #[test]
    fn ring_buffer_drops_oldest_at_capacity() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.capacity.set(3);
        for i in 0..5u64 {
            tr.record("disk", "read", t(i), t(i + 1), vec![]);
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        let spans = tr.spans();
        assert_eq!(spans[0].seq, 2, "oldest spans evicted first");
        assert_eq!(spans[2].seq, 4);
    }

    #[test]
    fn dump_lists_spans_and_drop_count() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.capacity.set(1);
        tr.record("rpc", "getattr", t(5), t(7), vec![("bytes", "128".into())]);
        tr.record("iscsi", "read", t(8), t(9), vec![]);
        let d = tr.dump();
        assert!(d.contains("iscsi"), "{d}");
        assert!(d.contains("read"), "{d}");
        assert!(!d.contains("getattr"), "evicted span still dumped: {d}");
        assert!(d.contains("1 earlier spans dropped"), "{d}");
    }

    #[test]
    fn dump_columns_align_for_eight_char_layers() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.record("blockdev", "write", t(1), t(2), vec![]);
        tr.record("rpc", "lookup", t(3), t(4), vec![]);
        let d = tr.dump();
        // Column layout is {:<8} {:<13} {:<8} {:<13}: the Op/Info field
        // starts at byte 46 on every line, even for 8-char layers like
        // "blockdev" (which previously overflowed a 6-wide Layer pad).
        let lines: Vec<&str> = d.lines().collect();
        assert_eq!(&lines[0][46..], "Op / Info", "{d}");
        assert_eq!(&lines[1][46..51], "write", "{d}");
        assert_eq!(&lines[2][46..52], "lookup", "{d}");
    }

    #[test]
    fn clear_resets_buffer_but_not_seq() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.record("rpc", "a", t(0), t(1), vec![]);
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
        tr.record("rpc", "b", t(2), t(3), vec![]);
        assert_eq!(tr.spans()[0].seq, 1, "sequence numbers keep advancing");
    }

    #[test]
    fn for_each_span_visits_without_copying() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        for i in 0..5u64 {
            tr.record("disk", "read", t(i), t(i + 1), vec![]);
        }
        let mut seqs = Vec::new();
        tr.for_each_span(|s| seqs.push(s.seq));
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn open_close_nests_children_and_links_parents() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let root = tr.open_span(Some(HostId::client(0)));
        tr.record("disk", "read", t(1), t(2), vec![]);
        let inner = tr.open_span(None);
        tr.record("net", "wire", t(3), t(4), vec![]);
        tr.close_span(inner, "rpc", "lookup", t(2), t(5), vec![]);
        tr.close_span(root, "vfs", "nfs.stat", t(0), t(6), vec![]);

        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        let disk = &spans[0];
        let net = &spans[1];
        let rpc = &spans[2];
        let vfs = &spans[3];
        // One trace; parents follow the open/close bracketing.
        assert!(spans.iter().all(|s| s.trace == vfs.trace));
        assert_eq!(vfs.parent, None);
        assert_eq!(disk.parent, Some(vfs.span));
        assert_eq!(rpc.parent, Some(vfs.span));
        assert_eq!(net.parent, Some(rpc.span));
        // Hosts inherit from the root unless overridden.
        assert_eq!(vfs.host, HostId::client(0));
        assert_eq!(net.host, HostId::client(0));
    }

    #[test]
    fn record_at_overrides_host_but_keeps_parent() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let root = tr.open_span(Some(HostId::client(2)));
        tr.record_at(HostId::SERVER, "disk", "write", t(1), t(2), vec![]);
        tr.close_span(root, "vfs", "iscsi.write", t(0), t(3), vec![]);
        let spans = tr.spans();
        assert_eq!(spans[0].host, HostId::SERVER);
        assert_eq!(spans[0].parent, Some(spans[1].span));
        assert_eq!(spans[1].host, HostId::client(2));
    }

    #[test]
    fn spans_outside_any_root_get_fresh_traces() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.record("ext3", "journal_commit", t(0), t(1), vec![]);
        tr.record("ext3", "journal_commit", t(2), t(3), vec![]);
        let spans = tr.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, None);
        assert_ne!(spans[0].trace, spans[1].trace);
        assert_ne!(spans[0].span, spans[1].span);
    }

    #[test]
    fn shelving_makes_daemon_spans_roots() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let root = tr.open_span(Some(HostId::client(0)));
        tr.shelve_stack();
        tr.record("ext3", "journal_commit", t(1), t(2), vec![]);
        tr.unshelve_stack();
        tr.record("disk", "read", t(3), t(4), vec![]);
        tr.close_span(root, "vfs", "nfs.read", t(0), t(5), vec![]);
        let spans = tr.spans();
        assert_eq!(spans[0].parent, None, "daemon span is its own root");
        assert_ne!(spans[0].trace, spans[2].trace);
        assert_eq!(spans[1].parent, Some(spans[2].span));
    }

    #[test]
    fn ids_are_deterministic_for_equal_seeds() {
        let mk = || {
            let tr = Tracer::new();
            tr.set_seed(7);
            tr.set_enabled(true);
            let root = tr.open_span(Some(HostId::client(0)));
            tr.record("disk", "read", t(1), t(2), vec![]);
            tr.close_span(root, "vfs", "nfs.read", t(0), t(3), vec![]);
            tr.spans()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        let tr = Tracer::new();
        tr.set_seed(8);
        tr.set_enabled(true);
        let root = tr.open_span(Some(HostId::client(0)));
        tr.close_span(root, "vfs", "nfs.read", t(0), t(3), vec![]);
        assert_ne!(tr.spans()[0].span, a[1].span, "seed feeds the IDs");
    }

    #[test]
    fn disabled_open_span_is_a_noop_token() {
        let tr = Tracer::new();
        let ctx = tr.open_span(Some(HostId::client(0)));
        assert!(ctx.is_disabled());
        tr.close_span(ctx, "vfs", "nfs.read", t(0), t(1), vec![]);
        assert!(tr.is_empty());
    }
}
