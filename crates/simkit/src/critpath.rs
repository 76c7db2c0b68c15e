//! Post-run critical-path analysis over a [`Tracer`] buffer.
//!
//! The paper's §5–§6 argument is an *attribution* argument: NFS and
//! iSCSI differ because their requests spend time in different layers
//! (meta-data RPCs vs batched block I/O). [`analyze`] reconstructs each
//! request's span tree from the causal links recorded by the tracer and
//! decomposes the root's latency into per-layer buckets, folded into a
//! flat, deterministic `BTreeMap<String, u64>` ready for
//! `ReportBuilder`.
//!
//! ## Serial-budget decomposition
//!
//! Each root span has a time budget equal to its own duration. Walking
//! children in recording order (`(start, seq)`), every child claims
//! `min(child duration, remaining budget)` and recursively splits its
//! claim the same way; whatever no child claimed stays in the parent's
//! own bucket. This matches the simulator's additive `IoCost` model —
//! a parent's duration is (at most) the sum of its children plus its
//! own work — and handles batched sites (a journal commit issuing many
//! same-start disk writes) without the systematic undercounting that
//! interval-clipping would give overlapping siblings.
//!
//! Spans whose parent was evicted from the ring are promoted to roots,
//! so partial traces still attribute every retained nanosecond.

use crate::trace::{HostId, SpanId, SpanRecord, Tracer};
use std::collections::BTreeMap;

/// Attribution buckets, in report/table column order.
pub const BUCKETS: [&str; 8] = [
    "client",
    "rpc",
    "net",
    "server_cpu",
    "iscsi",
    "ext3",
    "disk",
    "other",
];

/// Maps a span to the bucket its *own* (residual) time lands in.
fn bucket_of(layer: &str, host: HostId) -> &'static str {
    match layer {
        "vfs" => "client",
        "rpc" => "rpc",
        "net" => "net",
        "cpu" => {
            if host == HostId::SERVER {
                "server_cpu"
            } else {
                "client"
            }
        }
        "iscsi" => "iscsi",
        "ext3" => "ext3",
        "disk" | "raid5" => "disk",
        _ => "other",
    }
}

/// The per-op-type key a root span aggregates under: VFS roots already
/// carry protocol-qualified ops (`nfs.read`, `iscsi.write`); other
/// roots (daemon work, orphans) get `layer.op`.
fn root_key(s: &SpanRecord) -> String {
    if s.layer == "vfs" {
        s.op.clone()
    } else {
        format!("{}.{}", s.layer, s.op)
    }
}

struct Node {
    dur: u64,
    bucket: &'static str,
    children: Vec<usize>,
}

/// Analyzes the tracer buffer into a flat attribution map:
///
/// * `<op>.ops` — number of root spans of this op type,
/// * `<op>.total_ns` — summed root duration,
/// * `<op>.<bucket>_ns` — nanoseconds attributed to each layer bucket
///   (zero-valued buckets are omitted; keys are stable `BTreeMap`
///   order).
///
/// Purely a function of the buffered spans: equal traces give equal
/// maps, and merging maps from disjoint runs is plain addition.
pub fn analyze(tracer: &Tracer) -> BTreeMap<String, u64> {
    // Pass 1: index spans; remember each span's parent link and the
    // key it would aggregate under if it turns out to be a root.
    let mut nodes: Vec<Node> = Vec::with_capacity(tracer.len());
    let mut index: BTreeMap<SpanId, usize> = BTreeMap::new();
    let mut keys: Vec<String> = Vec::with_capacity(tracer.len());
    let mut parents: Vec<Option<SpanId>> = Vec::with_capacity(tracer.len());
    tracer.for_each_span(|s| {
        index.insert(s.span, nodes.len());
        nodes.push(Node {
            dur: s.end.saturating_since(s.start).as_nanos(),
            bucket: bucket_of(s.layer, s.host),
            children: Vec::new(),
        });
        keys.push(root_key(s));
        parents.push(s.parent);
    });
    // Pass 2: link children (recording order, which open/close
    // bracketing makes (start, seq)-sorted per parent — and recording
    // order is itself deterministic). Spans whose parent was evicted
    // from the ring are promoted to roots.
    let mut roots: Vec<usize> = Vec::new();
    for (i, parent) in parents.iter().enumerate() {
        match parent.and_then(|p| index.get(&p)) {
            Some(&pi) if pi != i => nodes[pi].children.push(i),
            _ => roots.push(i),
        }
    }

    // Pass 3: serial-budget walk from each root.
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for i in roots {
        let key = &keys[i];
        let budget = nodes[i].dur;
        *out.entry(format!("{key}.ops")).or_insert(0) += 1;
        *out.entry(format!("{key}.total_ns")).or_insert(0) += budget;
        let mut by_bucket = [0u64; BUCKETS.len()];
        attribute(&nodes, i, budget, &mut by_bucket);
        for (b, ns) in BUCKETS.iter().zip(by_bucket) {
            if ns > 0 {
                *out.entry(format!("{key}.{b}_ns")).or_insert(0) += ns;
            }
        }
    }
    out
}

fn bucket_index(b: &'static str) -> usize {
    BUCKETS
        .iter()
        .position(|x| *x == b)
        .unwrap_or(BUCKETS.len() - 1)
}

fn attribute(nodes: &[Node], i: usize, budget: u64, out: &mut [u64; BUCKETS.len()]) {
    let mut remaining = budget;
    for &c in &nodes[i].children {
        if remaining == 0 {
            break;
        }
        let claim = nodes[c].dur.min(remaining);
        attribute(nodes, c, claim, out);
        remaining -= claim;
    }
    out[bucket_index(nodes[i].bucket)] += remaining;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimDuration, SimTime};
    use crate::trace::HostId;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn us(n: u64) -> u64 {
        n * 1_000
    }

    #[test]
    fn childless_root_attributes_to_its_own_bucket() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.record("ext3", "journal_commit", t(0), t(100), vec![]);
        let a = analyze(&tr);
        assert_eq!(a["ext3.journal_commit.ops"], 1);
        assert_eq!(a["ext3.journal_commit.total_ns"], us(100));
        assert_eq!(a["ext3.journal_commit.ext3_ns"], us(100));
    }

    #[test]
    fn children_claim_before_parent_residue() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let root = tr.open_span(Some(HostId::client(0)));
        let rpc = tr.open_span(None);
        tr.record("net", "wire", t(0), t(40), vec![]);
        tr.close_span(rpc, "rpc", "lookup", t(0), t(70), vec![]);
        tr.close_span(root, "vfs", "nfs.stat", t(0), t(100), vec![]);
        let a = analyze(&tr);
        assert_eq!(a["nfs.stat.ops"], 1);
        assert_eq!(a["nfs.stat.total_ns"], us(100));
        assert_eq!(a["nfs.stat.net_ns"], us(40));
        assert_eq!(a["nfs.stat.rpc_ns"], us(30), "rpc minus its net child");
        assert_eq!(a["nfs.stat.client_ns"], us(30), "root residue");
        let total: u64 = BUCKETS
            .iter()
            .filter_map(|b| a.get(&format!("nfs.stat.{b}_ns")))
            .sum();
        assert_eq!(total, us(100), "decomposition is exhaustive");
    }

    #[test]
    fn overlapping_siblings_share_the_budget_serially() {
        // A batched commit: three same-start disk writes of 60us each
        // under a 100us parent. Serial-budget gives 60 + 40 + 0, never
        // more than the parent had.
        let tr = Tracer::new();
        tr.set_enabled(true);
        let root = tr.open_span(Some(HostId::SERVER));
        for _ in 0..3 {
            tr.record("disk", "write", t(0), t(60), vec![]);
        }
        tr.close_span(root, "ext3", "journal_commit", t(0), t(100), vec![]);
        let a = analyze(&tr);
        assert_eq!(a["ext3.journal_commit.disk_ns"], us(100));
        assert!(!a.contains_key("ext3.journal_commit.ext3_ns"), "{a:?}");
    }

    #[test]
    fn cpu_bucket_splits_by_host() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let root = tr.open_span(Some(HostId::client(1)));
        tr.record_at(HostId::SERVER, "cpu", "nfs.server", t(0), t(20), vec![]);
        tr.record("cpu", "nfs.client", t(20), t(30), vec![]);
        tr.close_span(root, "vfs", "nfs.read", t(0), t(50), vec![]);
        let a = analyze(&tr);
        assert_eq!(a["nfs.read.server_cpu_ns"], us(20));
        // Client cpu + root residue both land in "client".
        assert_eq!(a["nfs.read.client_ns"], us(10) + us(20));
    }

    #[test]
    fn orphans_after_eviction_become_roots() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.capacity.set(1);
        let root = tr.open_span(Some(HostId::client(0)));
        tr.record("disk", "read", t(0), t(10), vec![]);
        tr.close_span(root, "vfs", "nfs.read", t(0), t(30), vec![]);
        // Only the vfs record survives in a 1-slot ring... the disk
        // span was evicted by it.
        let a = analyze(&tr);
        assert_eq!(a["nfs.read.ops"], 1);
        assert_eq!(a["nfs.read.client_ns"], us(30), "no child survived");
    }

    #[test]
    fn roots_of_same_op_type_aggregate() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        for i in 0..3u64 {
            let root = tr.open_span(Some(HostId::client(0)));
            tr.close_span(root, "vfs", "iscsi.write", t(i * 10), t(i * 10 + 5), vec![]);
        }
        let a = analyze(&tr);
        assert_eq!(a["iscsi.write.ops"], 3);
        assert_eq!(a["iscsi.write.total_ns"], us(15));
    }

    #[test]
    fn analysis_is_pure_and_merge_is_addition() {
        let run = |ops: u64| {
            let tr = Tracer::new();
            tr.set_seed(ops);
            tr.set_enabled(true);
            for _ in 0..ops {
                let root = tr.open_span(Some(HostId::client(0)));
                tr.record("disk", "read", t(0), t(4), vec![]);
                tr.close_span(root, "vfs", "nfs.read", t(0), t(10), vec![]);
            }
            analyze(&tr)
        };
        assert_eq!(run(2), run(2), "pure function of the trace");
        let mut merged = run(1);
        for (k, v) in run(2) {
            *merged.entry(k).or_insert(0) += v;
        }
        assert_eq!(merged, run(3), "fragment merge equals direct analysis");
    }
}
