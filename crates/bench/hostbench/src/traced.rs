//! The traced pass: per-layer metrics for one workload.
//!
//! Separate from the timed pass, so the shims cost the end-to-end
//! numbers nothing. Three sources:
//!
//! * **spans** — the workload replayed on a stack assembled in
//!   `stack.rs` with timing shims at every layer boundary
//!   (`meta_small_pool`, `meta_large_pool`, `data_stream`);
//! * **timed calls** into the product where it builds the stack itself
//!   (`fanout_sharded`: `core.*`; `sweep_tables`: `tables.*`);
//! * **drivers** — standalone loops over one layer (`drivers.rs`), run
//!   in every traced pass.
//!
//! A per-layer metric is reported for the workload that exercises its
//! layer through a boundary the benchmark can see, and as 0 on the
//! others (as a cache-hit count is 0 on a workload that bypasses the
//! cache): `tables.table5.wall_s` is 0 on `data_stream`, and
//! `vfs.calls` is 0 on `sweep_tables`, where the mounts live inside
//! the child process.

use crate::drivers::{self, Rows};
use crate::host::{self, Meter};
use crate::json::Json;
use crate::pinned::{
    build_fanout_topology, frontier_run_cached, ReportBuilder, SnapshotCache,
    TABLES_ATTRIBUTION_FLAG, TABLES_NAMES,
};
use crate::spans::{chrome_document, Boundary, Recorder, Totals};
use crate::stack::Stack;
use crate::stats::{self, median, percentile};
use crate::timed::{
    self, build_beds, run_on_testbeds, run_tables, tables_args, Spec, FANOUT_CELLS, FANOUT_FILES,
    FANOUT_TRANSACTIONS, HALVES,
};
use crate::workloads::{PmShape, Shape, UnitOut};
use crate::{contract_line, detail_head, metric, paper_cells_json, sim_json};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Name and unit of every per-layer metric a traced pass prints, in
/// output order. BENCHMARK.json lists the same (a unit test compares).
/// Lower is better for all but the counts and ratios marked `higher`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // ---- moved here from the end-to-end list: exact, but 0 by design
    // or undefined on most workloads, so they cannot carry a bound ----
    ("failed_op_share", "ratio"),
    ("paper_err", "ln_ratio"),
    // ---- spans -------------------------------------------------------
    ("vfs.calls", "count"),
    ("vfs.failed_calls", "count"),
    ("vfs.incl_ns_per_call", "ns"),
    ("vfs.incl_ns_p99", "ns"),
    ("data_stream.seq_write.ns_per_req", "ns"),
    ("data_stream.seq_read.ns_per_req", "ns"),
    ("data_stream.rand_read.ns_per_req", "ns"),
    ("data_stream.rand_write.ns_per_req", "ns"),
    ("nfs.stack_self_ns_per_call", "ns"),
    ("nfs.resid_ns_per_call", "ns"),
    ("ext3.client_self_ns_per_call", "ns"),
    ("ext3.local_ns_per_call", "ns"),
    ("iscsi.cmds", "count"),
    ("iscsi.self_ns_per_cmd", "ns"),
    ("blockdev.raid.ios", "count"),
    ("blockdev.raid.self_ns_per_io", "ns"),
    ("blockdev.member.ios", "count"),
    ("blockdev.member.ns_per_io", "ns"),
    ("blockdev.member.blocks_per_io", "count"),
    ("workloads.gen_self_ns_per_op", "ns"),
    ("simkit.events.fired_per_op", "count/op"),
    ("simkit.events.stale_ratio", "ratio"),
    ("simkit.events.max_heap", "count"),
    ("traced.spans", "count"),
    ("traced.coverage", "ratio"),
    ("traced.parity", "count"),
    ("trace.overhead_ratio", "ratio"),
    // ---- exact simulated outputs -------------------------------------
    ("sim.completion_s", "sim_s"),
    ("sim.msgs_per_op", "count/op"),
    ("sim.bytes_per_op", "B/op"),
    ("sim.digest48", "count"),
    // ---- drivers -----------------------------------------------------
    ("blockdev.memdisk.write_ns_per_block", "ns"),
    ("blockdev.memdisk.write.allocs_per_op", "count/op"),
    ("blockdev.memdisk.read_ns_per_block", "ns"),
    ("blockdev.memdisk.read.allocs_per_op", "count/op"),
    ("blockdev.memdisk.overlay_read_ns_per_block", "ns"),
    ("blockdev.raid5.full_stripe_write_ns", "ns"),
    ("blockdev.raid5.small_write_ns", "ns"),
    ("blockdev.raid5.small_write.allocs_per_op", "count/op"),
    ("blockdev.raid5.read_ns_per_block", "ns"),
    ("ext3.create_ns", "ns"),
    ("ext3.create.allocs_per_op", "count/op"),
    ("ext3.lookup_ns", "ns"),
    ("ext3.write_4k_ns", "ns"),
    ("ext3.write_4k.allocs_per_op", "count/op"),
    ("ext3.read_4k_ns", "ns"),
    ("ext3.commit_ns", "ns"),
    ("ext3.unlink_ns", "ns"),
    ("rpc.call_ns", "ns"),
    ("rpc.call.allocs_per_op", "count/op"),
    ("rpc.wire.codec_ns", "ns"),
    ("nfs.xdr.codec_ns", "ns"),
    ("iscsi.pdu.codec_ns", "ns"),
    ("scsi.cdb.codec_ns", "ns"),
    ("net.pipe.round_trip_ns", "ns"),
    ("net.pipe.round_trip.allocs_per_op", "count/op"),
    ("net.pipe.stream_ns_per_mb", "ns"),
    ("cpu.charge_ns", "ns"),
    ("net.tcp.burst_ns_per_mb", "ns"),
    ("net.fabric.round_trip_ns", "ns"),
    ("simkit.events.churn_ns_per_event", "ns"),
    ("simkit.events.churn.allocs_per_op", "count/op"),
    ("simkit.counters.handle_add_ns", "ns"),
    ("simkit.counters.handle_add.allocs_per_op", "count/op"),
    ("simkit.counters.named_add_ns", "ns"),
    ("simkit.sweep.dispatch_ns_per_cell", "ns"),
    ("core.testbed.build_ns.nfsv3", "ns"),
    ("core.testbed.build_ns.iscsi", "ns"),
    ("core.snapshot.fork_ns", "ns"),
    ("workloads.postmark.gen_ns_per_txn", "ns"),
    ("traces.analyze_ns_per_record", "ns"),
    // ---- timed calls: fanout_sharded ---------------------------------
    ("core.testbed.build_topology_s", "s"),
    ("core.testbed.build_topology_rss_mb", "MB"),
    ("core.report.absorb_ms", "ms"),
    ("core.report.to_json_ms", "ms"),
    ("core.frontier.cold_s.nfsv3", "s"),
    ("core.frontier.warm_s.nfsv3", "s"),
    ("core.frontier.capture_s.nfsv3", "s"),
    ("core.frontier.host_us_per_txn.nfsv3", "us"),
    ("core.frontier.cold_s.iscsi", "s"),
    ("core.frontier.warm_s.iscsi", "s"),
    ("core.frontier.capture_s.iscsi", "s"),
    ("core.frontier.host_us_per_txn.iscsi", "us"),
    // ---- child runs: sweep_tables ------------------------------------
    ("tables.spawn_s", "s"),
    ("tables.table2.wall_s", "s"),
    ("tables.table3.wall_s", "s"),
    ("tables.figure3.wall_s", "s"),
    ("tables.figure4.wall_s", "s"),
    ("tables.figure5.wall_s", "s"),
    ("tables.table4.wall_s", "s"),
    ("tables.figure6.wall_s", "s"),
    ("tables.table5.wall_s", "s"),
    ("tables.table6.wall_s", "s"),
    ("tables.table7.wall_s", "s"),
    ("tables.table8.wall_s", "s"),
    ("tables.scale.wall_s", "s"),
    ("tables.section7.wall_s", "s"),
    ("tables.tcp.wall_s", "s"),
    ("tables.frontier.wall_s", "s"),
    ("tables.ablations.wall_s", "s"),
    ("simkit.sweep.jobs_speedup", "ratio"),
    ("simkit.trace.on_off_ratio", "ratio"),
];

/// Metrics where a larger value is the better one.
pub const HIGHER_IS_BETTER: [&str; 3] = [
    "traced.coverage",
    "traced.parity",
    "simkit.sweep.jobs_speedup",
];

/// What one traced pass produced.
struct Pass {
    rows: Rows,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Extra sections of the detail document.
    extra: Vec<(&'static str, Json)>,
}

fn put(rows: &mut Rows, name: &str, value: f64, unit: &'static str) {
    rows.push((name.to_string(), value, unit));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Rows every workload shares: the exact simulated outputs and the
/// exact costs of one untraced unit.
fn sim_rows(rows: &mut Rows, out: &UnitOut, attempted: u64, failed: u64) {
    let ops = out.ops.max(1) as f64;
    put(
        rows,
        "sim.completion_s",
        out.completion_ns as f64 / 1e9,
        "sim_s",
    );
    put(
        rows,
        "sim.msgs_per_op",
        out.messages as f64 / ops,
        "count/op",
    );
    put(
        rows,
        "sim.bytes_per_op",
        out.wire_bytes as f64 / ops,
        "B/op",
    );
    // The low 48 bits: a JSON number holds them exactly.
    let digest = timed::sim_digest(&out.sim) & 0xffff_ffff_ffff;
    put(rows, "sim.digest48", digest as f64, "count");
    put(
        rows,
        "failed_op_share",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    put(
        rows,
        "paper_err",
        stats::paper_err(&out.paper).unwrap_or(0.0),
        "ln_ratio",
    );
}

/// Roots (system calls plus background settling) of one recorder.
fn roots_incl_ns(rec: &Recorder) -> u64 {
    rec.totals(Boundary::Vfs).incl_ns + rec.totals(Boundary::Settle).incl_ns
}

fn sum(a: Totals, b: Totals) -> Totals {
    Totals {
        count: a.count + b.count,
        incl_ns: a.incl_ns + b.incl_ns,
        self_ns: a.self_ns + b.self_ns,
        blocks: a.blocks + b.blocks,
    }
}

/// Paper Table 5 row 1 in full, once, for `paper_err`.
const TABLE5_ROW1: Shape = Shape::Postmark(PmShape {
    files: 1000,
    transactions: 100_000,
});

/// Replays a workload on assembled stacks.
fn replay(spec: &Spec, shape: Shape, seed: u64, chrome: &mut String) -> Pass {
    let mut rows = Rows::new();
    let mut problems = Vec::new();

    // 1. Untraced, on the product's own testbeds: grows the heap (so
    //    the traced unit's spans hold no first-touch page faults) and
    //    yields the reference outputs for parity.
    let beds = build_beds(shape, seed);
    let meter = Meter::start();
    let reference = run_on_testbeds(shape, seed, beds);
    let first = meter.stop();

    // 2. Traced, on the assembled stacks (built up front, like the
    //    testbeds of an untraced unit; each checked and released when
    //    its step is done).
    let nfs_rec = Rc::new(Recorder::new());
    let iscsi_rec = Rc::new(Recorder::new());
    let stacks: Vec<Vec<Stack>> = vec![
        (0..shape.steps())
            .map(|_| Stack::nfs_v3(seed, &nfs_rec))
            .collect(),
        (0..shape.steps())
            .map(|_| Stack::iscsi(seed, &iscsi_rec))
            .collect(),
    ];
    let mut traced = UnitOut::default();
    let mut traced_cost = host::Cost::default();
    let (mut fired, mut stale, mut max_heap) = (0u64, 0u64, 0usize);
    for (&(label, _), half) in HALVES.iter().zip(stacks) {
        for (step, stack) in half.into_iter().enumerate() {
            let meter = Meter::start();
            stack.rec.span(Boundary::Workload, label, 0, || {
                shape.run_step(step, &stack, label, seed, &mut traced);
            });
            traced_cost.add(meter.stop());
            for e in stack.fsck() {
                problems.push(format!("fsck {label} volume {step}: {e}"));
            }
            let s = stack.event_stats();
            fired += s.fired;
            stale += s.stale_skipped;
            max_heap = max_heap.max(s.max_heap);
        }
    }
    let traced_s = traced_cost.wall_s;

    let parity = traced.sim == reference.sim;
    if !parity {
        // Not a correctness violation: a later model change may land
        // in `Testbed::build` before this file follows it.
        eprintln!(
            "hostbench: warning: {}: the assembled stack and Testbed::build disagree (traced.parity = 0)",
            spec.name
        );
        for ((k, a), (_, b)) in traced.sim.iter().zip(&reference.sim) {
            if a != b {
                eprintln!("hostbench:   {k}: assembled {a}, Testbed::build {b}");
            }
        }
    }
    problems.extend(reference.problems.iter().cloned());
    problems.extend(traced.problems.iter().map(|p| format!("traced: {p}")));

    // 3. Untraced again, on the heap the released stacks leave behind:
    //    the other side of the overhead ratio, and the exact
    //    allocation counts.
    let beds = build_beds(shape, seed);
    let meter = Meter::start();
    let again = run_on_testbeds(shape, seed, beds);
    let untraced = meter.stop();
    if again.sim != reference.sim {
        problems.push("two untraced units simulated different results".to_string());
    }

    // 4. The rung: the same work on the mount and ext3 alone, straight
    //    over the RAID.
    let local_rec = Rc::new(Recorder::new());
    let local: Vec<Stack> = (0..shape.steps())
        .map(|_| Stack::local(seed, &local_rec))
        .collect();
    for (step, stack) in local.into_iter().enumerate() {
        shape.run_step(step, &stack, "local", seed, &mut UnitOut::default());
        for e in stack.fsck() {
            problems.push(format!("fsck local volume {step}: {e}"));
        }
    }

    // ---- exact rows ----------------------------------------------------
    let failed = reference.failed + traced.failed;
    let attempted = reference.attempted + traced.attempted;
    let mut with_paper = reference;
    if matches!(shape, Shape::Postmark(p) if p.files == 1000) {
        let row1 = run_on_testbeds(TABLE5_ROW1, seed, build_beds(TABLE5_ROW1, seed));
        problems.extend(row1.problems.iter().map(|p| format!("table 5 row 1: {p}")));
        with_paper.paper = row1.paper;
    }
    sim_rows(&mut rows, &with_paper, attempted, failed);

    // ---- span rows -----------------------------------------------------
    let (nr, ir) = (&nfs_rec, &iscsi_rec);
    let nfs_vfs = nr.totals(Boundary::Vfs);
    let iscsi_vfs = ir.totals(Boundary::Vfs);
    let vfs = sum(nfs_vfs, iscsi_vfs);
    let mut root_ns = nr.take_root_ns();
    root_ns.extend(ir.take_root_ns());
    put(&mut rows, "vfs.calls", vfs.count as f64, "count");
    put(
        &mut rows,
        "vfs.failed_calls",
        (nr.failed_roots() + ir.failed_roots()) as f64,
        "count",
    );
    put(
        &mut rows,
        "vfs.incl_ns_per_call",
        ratio(vfs.incl_ns as f64, vfs.count as f64),
        "ns",
    );
    put(
        &mut rows,
        "vfs.incl_ns_p99",
        f64::from(percentile(&mut root_ns, 99.0)),
        "ns",
    );
    for phase in ["seq_write", "seq_read", "rand_read", "rand_write"] {
        let per_req: Vec<f64> = traced
            .phases
            .iter()
            .filter(|(name, _)| name.ends_with(phase))
            .map(|(_, ns)| *ns)
            .collect();
        let mean = ratio(per_req.iter().sum(), per_req.len() as f64);
        put(
            &mut rows,
            &format!("data_stream.{phase}.ns_per_req"),
            mean,
            "ns",
        );
    }

    let nfs_server = nr.totals(Boundary::ServerBlock);
    let nfs_stack_self = (roots_incl_ns(nr) - nfs_server.incl_ns) as f64;
    let nfs_stack_per_call = ratio(nfs_stack_self, nfs_vfs.count as f64);
    put(
        &mut rows,
        "nfs.stack_self_ns_per_call",
        nfs_stack_per_call,
        "ns",
    );

    let iscsi_client = ir.totals(Boundary::ClientBlock);
    let iscsi_server = ir.totals(Boundary::ServerBlock);
    let ext3_client_self = (roots_incl_ns(ir) - iscsi_client.incl_ns) as f64;
    put(
        &mut rows,
        "ext3.client_self_ns_per_call",
        ratio(ext3_client_self, iscsi_vfs.count as f64),
        "ns",
    );
    let local_vfs = local_rec.totals(Boundary::Vfs);
    let local_per_call = ratio(roots_incl_ns(&local_rec) as f64, local_vfs.count as f64);
    put(&mut rows, "ext3.local_ns_per_call", local_per_call, "ns");
    // NFS messages per NFS call, for `nfs.resid_ns_per_call` (not a
    // BENCHMARK.json metric of its own: `sim.msgs_per_op` has it).
    let nfs_msgs: u64 = traced
        .sim
        .iter()
        .filter(|(k, _)| k.starts_with("nfsv3") && k.ends_with(".messages"))
        .map(|(_, v)| *v)
        .sum();
    put(
        &mut rows,
        "nfs.msgs_per_call",
        ratio(nfs_msgs as f64, nfs_vfs.count as f64),
        "count",
    );

    put(&mut rows, "iscsi.cmds", iscsi_client.count as f64, "count");
    put(
        &mut rows,
        "iscsi.self_ns_per_cmd",
        ratio(
            (iscsi_client.incl_ns - iscsi_server.incl_ns) as f64,
            iscsi_client.count as f64,
        ),
        "ns",
    );
    let raid = sum(nfs_server, iscsi_server);
    let member = sum(nr.totals(Boundary::Member), ir.totals(Boundary::Member));
    put(&mut rows, "blockdev.raid.ios", raid.count as f64, "count");
    put(
        &mut rows,
        "blockdev.raid.self_ns_per_io",
        ratio(raid.self_ns as f64, raid.count as f64),
        "ns",
    );
    put(
        &mut rows,
        "blockdev.member.ios",
        member.count as f64,
        "count",
    );
    put(
        &mut rows,
        "blockdev.member.ns_per_io",
        ratio(member.incl_ns as f64, member.count as f64),
        "ns",
    );
    put(
        &mut rows,
        "blockdev.member.blocks_per_io",
        ratio(member.blocks as f64, member.count as f64),
        "count",
    );

    let unit_ns = traced_s * 1e9;
    let generator =
        (nr.totals(Boundary::Workload).self_ns + ir.totals(Boundary::Workload).self_ns) as f64;
    let in_spans =
        (nr.totals(Boundary::Workload).incl_ns + ir.totals(Boundary::Workload).incl_ns) as f64;
    put(
        &mut rows,
        "workloads.gen_self_ns_per_op",
        ratio(generator, traced.ops as f64),
        "ns",
    );
    put(
        &mut rows,
        "simkit.events.fired_per_op",
        ratio(fired as f64, traced.ops as f64),
        "count/op",
    );
    put(
        &mut rows,
        "simkit.events.stale_ratio",
        ratio(stale as f64, (fired + stale) as f64),
        "ratio",
    );
    put(
        &mut rows,
        "simkit.events.max_heap",
        max_heap as f64,
        "count",
    );
    put(
        &mut rows,
        "traced.spans",
        (nr.spans_closed() + ir.spans_closed()) as f64,
        "count",
    );
    put(
        &mut rows,
        "traced.coverage",
        ratio(in_spans, unit_ns),
        "ratio",
    );
    put(
        &mut rows,
        "traced.parity",
        f64::from(u8::from(parity)),
        "count",
    );
    put(
        &mut rows,
        "trace.overhead_ratio",
        ratio(traced_s, untraced.wall_s),
        "ratio",
    );

    // Where the traced unit's host time went, as shares of its wall
    // clock: each row is a self time, so the rows add up to the
    // coverage.
    let nfs_member = nr.totals(Boundary::Member);
    let iscsi_member = ir.totals(Boundary::Member);
    let mut shares = Json::obj();
    for (name, ns) in [
        (
            "workloads (generator: paths, sizes, payload bytes)",
            generator,
        ),
        ("nfsv3: vfs+nfs+rpc+net+cpu+server ext3", nfs_stack_self),
        (
            "nfsv3: blockdev raid5+writecache",
            nfs_server.self_ns as f64,
        ),
        (
            "nfsv3: blockdev diskmodel+memdisk",
            nfs_member.incl_ns as f64,
        ),
        ("iscsi: vfs+client ext3+cpu", ext3_client_self),
        (
            "iscsi: iscsi+scsi+net",
            (iscsi_client.incl_ns - iscsi_server.incl_ns) as f64,
        ),
        (
            "iscsi: blockdev raid5+writecache",
            iscsi_server.self_ns as f64,
        ),
        (
            "iscsi: blockdev diskmodel+memdisk",
            iscsi_member.incl_ns as f64,
        ),
    ] {
        shares.set(name, Json::num(ratio(ns, unit_ns)));
    }
    let mut phases = Json::obj();
    for (name, ns) in &traced.phases {
        phases.set(name, metric(*ns, "ns/req"));
    }

    nr.write_chrome_events(1, "nfsv3", chrome);
    ir.write_chrome_events(2, "iscsi", chrome);
    local_rec.write_chrome_events(3, "local (rung)", chrome);

    Pass {
        rows,
        problems,
        attempted,
        failed,
        extra: vec![
            ("traced_unit_s", Json::num(traced_s)),
            ("untraced_unit_s", Json::num(untraced.wall_s)),
            (
                "steps",
                Json::Arr(
                    [
                        ("untraced, heap cold", first),
                        ("traced", traced_cost),
                        ("untraced, heap warm", untraced),
                    ]
                    .iter()
                    .map(|(name, c)| {
                        let mut step = Json::obj();
                        step.set("step", Json::str(*name))
                            .set("wall_s", Json::num(c.wall_s))
                            .set("cpu_sys_s", Json::num(c.cpu_sys_s))
                            .set("page_faults", Json::count(c.page_faults));
                        step
                    })
                    .collect(),
                ),
            ),
            ("self_time_share", shares),
            ("phases", phases),
            ("paper_cells", paper_cells_json(&with_paper)),
            ("sim", sim_json(&with_paper)),
        ],
    }
}

/// `fanout_sharded`: the product builds the topology itself, so the
/// layer view is timed calls into `core`.
fn fanout(seed: u64) -> Pass {
    let mut rows = Rows::new();
    let mut problems = Vec::new();

    let rss0 = host::rss_mb();
    let t0 = Instant::now();
    let tb = build_fanout_topology(seed);
    put(
        &mut rows,
        "core.testbed.build_topology_s",
        t0.elapsed().as_secs_f64(),
        "s",
    );
    put(
        &mut rows,
        "core.testbed.build_topology_rss_mb",
        host::rss_mb() - rss0,
        "MB",
    );
    let mut builder = ReportBuilder::new("hostbench");
    let t0 = Instant::now();
    builder.absorb(&tb);
    put(
        &mut rows,
        "core.report.absorb_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let report = builder.finish();
    let t0 = Instant::now();
    let json = report.to_json();
    put(
        &mut rows,
        "core.report.to_json_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    std::hint::black_box(json);
    drop(tb);

    let mut out = UnitOut::default();
    let mut warm_cost = host::Cost::default();
    for (protocol, clients, servers) in FANOUT_CELLS {
        let label = format!("{protocol:?}").to_lowercase();
        let cache = SnapshotCache::new();
        let call = || {
            frontier_run_cached(
                protocol,
                clients,
                servers,
                FANOUT_FILES,
                FANOUT_TRANSACTIONS,
                &cache,
            )
        };
        let t0 = Instant::now();
        let cold = call();
        let cold_s = t0.elapsed().as_secs_f64();
        let meter = Meter::start();
        let warm = call();
        let cost = meter.stop();
        if format!("{cold:?}") != format!("{warm:?}") {
            problems.push(format!("{label}: warm frontier result differs from cold"));
        }
        put(
            &mut rows,
            &format!("core.frontier.cold_s.{label}"),
            cold_s,
            "s",
        );
        put(
            &mut rows,
            &format!("core.frontier.warm_s.{label}"),
            cost.wall_s,
            "s",
        );
        put(
            &mut rows,
            &format!("core.frontier.capture_s.{label}"),
            cold_s - cost.wall_s,
            "s",
        );
        put(
            &mut rows,
            &format!("core.frontier.host_us_per_txn.{label}"),
            ratio(cost.wall_s * 1e6, warm.transactions as f64),
            "us",
        );
        warm_cost.add(cost);
        timed::record_frontier(&warm, &mut out);
    }
    sim_rows(&mut rows, &out, out.attempted, 0);
    // Nothing assembled here, so nothing to disagree with.
    put(&mut rows, "traced.parity", 1.0, "count");
    Pass {
        rows,
        problems,
        attempted: out.attempted,
        failed: 0,
        extra: vec![("sim", sim_json(&out))],
    }
}

/// `sweep_tables`: each selection alone at `--jobs 1`, the whole sweep
/// at `--jobs <cores>`, and the product tracer's own price.
fn sweep() -> Pass {
    let mut rows = Rows::new();
    let mut problems = Vec::new();
    let names = TABLES_NAMES.len() as u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |label: &str, ok: bool, problems: &mut Vec<String>| {
        attempted += 1;
        if !ok {
            failed += 1;
            problems.push(format!("tables {label} exited non-zero or could not run"));
        }
    };

    let spawns: Vec<f64> = (0..10)
        .map(|_| run_tables(&tables_args(1, &["none"])).wall_s)
        .collect();
    put(&mut rows, "tables.spawn_s", median(&spawns), "s");

    let mut serial_s = 0.0;
    let mut serial_json = Vec::new();
    for name in TABLES_NAMES {
        let run = run_tables(&tables_args(1, &[name]));
        check(name, run.ok, &mut problems);
        put(&mut rows, &format!("tables.{name}.wall_s"), run.wall_s, "s");
        serial_s += run.wall_s;
        serial_json.extend_from_slice(&run.json);
    }
    let parallel = run_tables(&tables_args(host::cores(), &TABLES_NAMES));
    check("--jobs <cores>", parallel.ok, &mut problems);
    if parallel.json != serial_json {
        problems.push(
            "the --jobs <cores> sweep printed different --json lines from the --jobs 1 selections"
                .to_string(),
        );
    }
    // Sixteen `--jobs 1` processes against one `--jobs <cores>`
    // process: the numerator carries fifteen extra start-ups (see
    // `tables.spawn_s`: negligible).
    put(
        &mut rows,
        "simkit.sweep.jobs_speedup",
        ratio(serial_s, parallel.wall_s),
        "ratio",
    );

    let plain = run_tables(&["--quick".to_string(), "table5".to_string()]);
    let attributed = run_tables(&[
        "--quick".to_string(),
        TABLES_ATTRIBUTION_FLAG.to_string(),
        "table5".to_string(),
    ]);
    check("table5", plain.ok, &mut problems);
    check("--attribution table5", attributed.ok, &mut problems);
    put(
        &mut rows,
        "simkit.trace.on_off_ratio",
        ratio(attributed.wall_s, plain.wall_s),
        "ratio",
    );

    let mut out = UnitOut::default();
    timed::record_tables(&parallel, "sweep", &mut out);
    sim_rows(&mut rows, &out, attempted, failed);
    put(&mut rows, "traced.parity", 1.0, "count");
    Pass {
        rows,
        problems,
        attempted: attempted.max(names),
        failed,
        extra: vec![
            ("jobs", Json::count(host::cores() as u64)),
            ("serial_s", Json::num(serial_s)),
            ("parallel_s", Json::num(parallel.wall_s)),
            ("sim", sim_json(&out)),
        ],
    }
}

/// Traced pass of one workload, in this process: the detail document
/// and the contract line.
pub fn documents(spec: &Spec, seed: u64, seconds: f64, trace_out: Option<&Path>) -> (Json, Json) {
    let mut chrome = String::new();
    let mut pass = match timed::shape_of(spec.name) {
        Some(shape) => replay(spec, shape, seed, &mut chrome),
        None if spec.name == "fanout_sharded" => fanout(seed),
        None => sweep(),
    };
    pass.rows.extend(drivers::run_all());
    let get = |rows: &Rows, name: &str| {
        rows.iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    // What is left of the NFS stack's self time once ext3 alone and
    // the wire round trips alone are taken out: the NFS client and
    // server code itself, estimated (it can go negative where ext3
    // alone does work that the NFS path does elsewhere, as on
    // `data_stream`).
    let resid = get(&pass.rows, "nfs.stack_self_ns_per_call")
        - get(&pass.rows, "ext3.local_ns_per_call")
        - get(&pass.rows, "nfs.msgs_per_call") * get(&pass.rows, "rpc.call_ns");
    put(&mut pass.rows, "nfs.resid_ns_per_call", resid, "ns");

    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, chrome_document(&chrome)) {
            pass.problems
                .push(format!("could not write {}: {e}", path.display()));
        }
    }

    let mut per_layer = Json::obj();
    let mut metrics = Json::obj();
    for (name, unit) in PER_LAYER {
        let value = get(&pass.rows, name);
        per_layer.set(name, metric(value, unit));
        metrics.set(name, metric(value, unit));
    }
    let correct = pass.problems.is_empty() && pass.failed == 0;
    let mut doc = detail_head(spec, "traced", seed, seconds);
    doc.set("per_layer", per_layer);
    for (key, value) in pass.extra {
        doc.set(key, value);
    }
    doc.set("attempted", Json::count(pass.attempted))
        .set("failed", Json::count(pass.failed))
        .set("correct", Json::Bool(correct))
        .set(
            "problems",
            Json::Arr(pass.problems.iter().map(Json::str).collect()),
        );
    (
        doc,
        contract_line(correct, pass.attempted, pass.failed, metrics),
    )
}

/// A few lines on stderr that answer the questions the spans exist
/// for.
pub fn print_summary(name: &str, doc: &Json) {
    let value = |metric: &str| {
        doc.get("per_layer")
            .and_then(|p| p.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    if let Some(shares) = doc.get("self_time_share") {
        eprintln!(
            "  {name}: traced unit {:.2} s, {:.0} spans, coverage {:.1} %, overhead x{:.3}, parity {}",
            doc.get("traced_unit_s").and_then(Json::as_f64).unwrap_or(0.0),
            value("traced.spans"),
            value("traced.coverage") * 100.0,
            value("trace.overhead_ratio"),
            value("traced.parity"),
        );
        let mut rows: Vec<(&str, f64)> = shares
            .fields()
            .iter()
            .filter_map(|(k, v)| Some((k.as_str(), v.as_f64()?)))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (layer, share) in rows {
            eprintln!("    {:>5.1} %  {layer}", share * 100.0);
        }
    } else if name == "fanout_sharded" {
        for p in ["nfsv3", "iscsi"] {
            eprintln!(
                "  {name}: {p}: cold {:.2} s, warm {:.2} s, capture {:.2} s, {:.1} us/txn",
                value(&format!("core.frontier.cold_s.{p}")),
                value(&format!("core.frontier.warm_s.{p}")),
                value(&format!("core.frontier.capture_s.{p}")),
                value(&format!("core.frontier.host_us_per_txn.{p}")),
            );
        }
    } else {
        eprintln!(
            "  {name}: --jobs speed-up x{:.2}, tracer on/off x{:.2}, spawn {:.4} s",
            value("simkit.sweep.jobs_speedup"),
            value("simkit.trace.on_off_ratio"),
            value("tables.spawn_s"),
        );
    }
}
