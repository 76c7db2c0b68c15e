//! Discrete-event core benchmark: measures the calendar queue's raw
//! schedule/pop throughput (events/sec, heap depth) and the scaling
//! experiment's cells/sec, then writes both to `BENCH_events.json`
//! (and stdout).
//!
//! ```text
//! event_bench [--quick] [--out PATH]
//! ```
//!
//! The pass-based stepping loop the event core replaced is gone; its
//! last recording on the full grid is carried as the `FROZEN_*`
//! constants below (the scheduling itself lives on as the oracle of
//! `core::experiments::closedloop`'s unit test). `pop_order_strict` is
//! a hard assertion, not advisory: the queue drain must pop keys in
//! strictly increasing `(time, host, seq)` order. Wall-clock numbers
//! vary per host (see the `host` section).

use ipstorage_core::experiments::scale;
use ipstorage_core::RunOptions;
use simkit::{json, EventQueue, HostId, Json, SimTime, SplitMix64};
use std::time::Instant;

/// The pass-based loop's last recording (PR 7, the full 8-cell grid,
/// 200 files / 600 transactions, a 1-core host), kept as the baseline
/// of record.
const FROZEN_COMMIT: &str = "PR 7";
const FROZEN_PASS_LOOP_SECS: f64 = 1.3221;
const FROZEN_PASS_LOOP_CELLS_PER_SEC: f64 = 6.051;

/// Fill-then-drain: schedule `n` events at SplitMix64 times, pop them
/// all, and check the pop order is strictly increasing. Returns
/// (events/sec counting both the schedule and the pop, max heap
/// depth).
fn fill_drain(n: u64) -> (f64, u64) {
    let mut rng = SplitMix64::new(0x0e5e_17b3);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(n as usize);
    let t0 = Instant::now();
    for i in 0..n {
        let at = SimTime::from_nanos(rng.below(1 << 40));
        q.schedule(at, HostId((rng.next_u64() % 64) as u16), i);
    }
    let mut last = None;
    while let Some((key, _)) = q.pop() {
        if let Some(prev) = last {
            assert!(prev < key, "pop order must strictly increase");
        }
        last = Some(key);
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = q.stats();
    assert_eq!(stats.fired, n, "every scheduled event must pop");
    ((2 * n) as f64 / secs, stats.max_heap as u64)
}

/// Steady-state churn: a sliding window of `window` pending events;
/// each round pops the earliest and schedules a replacement (the
/// simulator's re-arm pattern), with a cancel/reschedule mixed in
/// every 8th round. Returns (events/sec over all operations, max heap
/// depth).
fn churn(window: u64, rounds: u64) -> (f64, u64) {
    let mut rng = SplitMix64::new(0xca1e_4da5);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(window as usize);
    let mut now = 0u64;
    let mut ids = Vec::with_capacity(window as usize);
    for i in 0..window {
        ids.push(q.schedule(SimTime::from_nanos(rng.below(1 << 20)), HostId::SERVER, i));
    }
    let t0 = Instant::now();
    let mut ops = window;
    for round in 0..rounds {
        let (key, _) = q.pop().expect("window never empties");
        now = now.max(key.time.as_nanos());
        let at = SimTime::from_nanos(now + 1 + rng.below(1 << 20));
        ids.push(q.schedule(at, HostId((round % 16) as u16), round));
        ops += 2;
        if round % 8 == 0 {
            let pick = ids[(rng.next_u64() as usize) % ids.len()];
            if q.contains(pick) {
                let at = SimTime::from_nanos(now + 1 + rng.below(1 << 20));
                ids.push(q.reschedule(pick, at, HostId::SERVER).unwrap());
                ops += 1;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (ops as f64 / secs, q.stats().max_heap as u64)
}

/// One timed scale run over the grid, in seconds.
fn timed_scale(counts: &[usize], files: usize, txns: usize) -> f64 {
    let t0 = Instant::now();
    let _ = scale::scale(RunOptions::default(), counts, files, txns, None);
    t0.elapsed().as_secs_f64()
}

fn main() {
    let quick = bench::flag("--quick");

    let micro_n: u64 = if quick { 200_000 } else { 1_000_000 };
    let (counts, files, txns): (&[usize], usize, usize) = if quick {
        (&[1, 2, 4], 100, 300)
    } else {
        (&[1, 2, 4, 8], 200, 600)
    };
    let cells = counts.len() * 2;

    eprintln!("event_bench: calendar-queue microbench, {micro_n} events");
    let _ = fill_drain(micro_n / 4); // warm-up
    let (fd_rate, fd_depth) = fill_drain(micro_n);
    let (ch_rate, ch_depth) = churn(1024, micro_n);

    eprintln!(
        "event_bench: scale grid N={counts:?} x {{NFSv3, iSCSI}}, \
         {files} files / {txns} transactions"
    );
    let _ = timed_scale(&[1], 50, 100); // warm-up
    let secs_ev = timed_scale(counts, files, txns);

    let doc = json!({
        "bench": "events",
        "host": bench::host(),
        "quick": quick,
        "queue": {
            "events": micro_n,
            "fill_drain": {
                "events_per_sec": Json::Num(format!("{fd_rate:.0}")),
                "max_heap": fd_depth,
            },
            "churn": {
                "window": 1024u64,
                "events_per_sec": Json::Num(format!("{ch_rate:.0}")),
                "max_heap": ch_depth,
            },
        },
        "scale": {
            "cells": cells,
            "files": files,
            "transactions": txns,
            "events": {
                "secs": Json::Num(format!("{secs_ev:.4}")),
                "cells_per_sec": Json::Num(format!("{:.3}", cells as f64 / secs_ev)),
            },
            "frozen_pass_loop": {
                "commit": FROZEN_COMMIT,
                "cells": 8u64,
                "files": 200u64,
                "transactions": 600u64,
                "host_cores": 1u64,
                "secs": Json::Num(format!("{FROZEN_PASS_LOOP_SECS:.4}")),
                "cells_per_sec": Json::Num(format!("{FROZEN_PASS_LOOP_CELLS_PER_SEC:.3}")),
            },
        },
        "pop_order_strict": true,
    });
    bench::publish("BENCH_events.json", &doc);
}
