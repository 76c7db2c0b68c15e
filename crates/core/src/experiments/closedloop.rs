//! The closed-loop multi-client driver under [`super::scale`] and
//! [`super::frontier`]: N PostMark sessions interleaved on the shared
//! virtual clock, plus the "one writer, k−1 pollers" shared-file
//! pattern on every server shard.
//!
//! The simulator is single-threaded, so the sessions take turns. Each
//! live session holds one wakeup in a [`simkit::EventQueue`], armed at
//! the instant its last step completed, and the driver always steps
//! the earliest. Steps run one at a time on a clock that only moves
//! forward, so wakeups are armed in non-decreasing time order: the
//! earliest one belongs to the least-recently-stepped live session,
//! which is exactly the next session of a round-robin pass over the
//! live list. Equal instants — the initial arming, or a step that took
//! no virtual time — break by host, i.e. client index, which is pass
//! order as long as a pass's first step advances the clock (every real
//! transaction does). A finished session simply never re-arms.

use crate::{Testbed, TopologyConfig};
use simkit::{CounterSnapshot, EventQueue, HostId, SimDuration, SimTime};
use workloads::{PostmarkConfig, PostmarkSession};

/// Every how many transactions a client touches its shard's shared
/// file.
const SHARED_PERIOD: usize = 50;

/// Client `l`'s PostMark configuration: seeds fan out from `master`
/// (the snapshot's setup seed) so each client draws an independent
/// stream, yet the whole topology's pool is a pure function of the
/// setup key.
pub(crate) fn client_pm(
    files: usize,
    transactions: usize,
    master: u64,
    l: usize,
) -> PostmarkConfig {
    PostmarkConfig {
        file_count: files,
        transactions,
        subdirs: (files / 500).clamp(10, 100),
        seed: master ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(l as u64 + 1)),
        ..PostmarkConfig::default()
    }
}

/// The setup phase a snapshot captures: builds `topo` under
/// `setup_seed` and has every client create its own pool plus the
/// shared file (created once on NFS — later clients see `Exists` — and
/// once per private volume on iSCSI). Each client works in its own
/// directory: on NFS the namespace is shared, so the pools must not
/// collide. The transaction count is zeroed: setup must not depend on
/// it, since it is not part of the key.
pub(crate) fn build_pools(mut topo: TopologyConfig, files: usize, setup_seed: u64) -> Testbed {
    topo.base.seed = setup_seed;
    let tb = Testbed::build_topology(topo);
    let clients = tb.client_count();
    tb.set_active_clients(clients as u32);
    for l in 0..clients {
        let fs = tb.client_fs(l);
        PostmarkSession::new(
            fs,
            &format!("/postmark{l}"),
            client_pm(files, 0, setup_seed, l),
        )
        .setup()
        .expect("postmark setup");
        match fs.mkdir("/shared") {
            Ok(()) | Err(ext3::FsError::Exists) => {}
            Err(e) => panic!("mkdir /shared: {e:?}"),
        }
        match fs.creat("/shared/config") {
            Ok(()) | Err(ext3::FsError::Exists) => {}
            Err(e) => panic!("creat /shared/config: {e:?}"),
        }
    }
    tb
}

/// What the measured phase of one cell came to, under the overlap
/// model of [`super::scale`].
pub(crate) struct ClosedLoop {
    /// Transactions completed across all clients.
    pub transactions: u64,
    /// Completion bound `max(slowest client, busiest server)`.
    pub completion: SimDuration,
    /// Slowest single client's demand `max_i T_i`.
    pub slowest_client: SimDuration,
    /// Busiest shard's server CPU time.
    pub server_busy: SimDuration,
    /// `transactions / completion`.
    pub ops_per_sec: f64,
    /// Busiest shard's CPU utilization at `completion`, percent.
    pub server_cpu_pct: f64,
    /// Protocol messages per client.
    pub msgs_per_client: u64,
    /// The counters as the phase opened, for further deltas.
    pub before: CounterSnapshot,
}

/// Runs the measured phase on a testbed forked from a
/// [`build_pools`] snapshot (possibly replicated over M shards):
/// `per_client` transactions on every client, teardown included, with
/// `on_step(i, d)` called after each of client `i`'s steps with the
/// virtual time it took.
///
/// Global client `i` is local `i / M` on shard `i % M`: it resumes the
/// pool the captured shard prepared for that local client, under that
/// local client's seed. Each shard's local client 0 (globals `0..M`)
/// is its writer.
pub(crate) fn run_clients(
    tb: &Testbed,
    files: usize,
    per_client: usize,
    mut on_step: impl FnMut(usize, SimDuration),
) -> ClosedLoop {
    let (clients, servers) = (tb.client_count(), tb.server_count());
    tb.set_active_clients(clients as u32);
    let master = tb.setup_info().expect("forked testbed").setup_seed;
    let mut sessions: Vec<PostmarkSession> = (0..clients)
        .map(|i| {
            let l = i / servers;
            let mut s = PostmarkSession::new(
                tb.client_fs(i),
                &format!("/postmark{l}"),
                client_pm(files, per_client, master, l),
            );
            s.resume_setup();
            s
        })
        .collect();
    tb.settle();

    // The books open after setup.
    let counters = tb.sim().counters();
    let before = counters.snapshot();
    let busy0: Vec<SimDuration> = (0..servers)
        .map(|j| tb.server_cpu_at(j).total_busy())
        .collect();
    let mut demand = vec![SimDuration::ZERO; clients];
    let mut shared_off = vec![0u64; servers];
    let mut shared_copy = [0u8; 4096];
    interleave(
        &mut sessions,
        || tb.now(),
        PostmarkSession::remaining,
        |i, s| {
            let t0 = tb.now();
            s.step().expect("postmark step");
            if s.remaining() % SHARED_PERIOD == 0 {
                let fs = tb.client_fs(i);
                if i < servers {
                    // The writer appends a small update.
                    let off = &mut shared_off[i];
                    let fd = fs.open("/shared/config").expect("open shared");
                    fs.write(fd, *off, &[0x55; 128]).expect("write shared");
                    fs.close(fd).expect("close shared");
                    *off += 128;
                } else {
                    // Pollers revalidate and read the current copy.
                    fs.stat("/shared/config").expect("stat shared");
                    let fd = fs.open("/shared/config").expect("open shared");
                    fs.read_into(fd, 0, &mut shared_copy).expect("read shared");
                    fs.close(fd).expect("close shared");
                }
            }
            let d = tb.now().since(t0);
            demand[i] += d;
            on_step(i, d);
        },
    );
    // Teardown is part of the measured run (for iSCSI the bulk of the
    // wire traffic is the deferred write-back it forces), attributed
    // to the client doing the deleting; the final settle drains every
    // client's dirty state.
    for (s, demand) in sessions.iter_mut().zip(&mut demand) {
        let t0 = tb.now();
        s.teardown().expect("postmark teardown");
        *demand += tb.now().since(t0);
    }
    drop(sessions);
    tb.settle();

    let server_busy = (0..servers)
        .map(|j| tb.server_cpu_at(j).total_busy() - busy0[j])
        .max()
        .unwrap_or(SimDuration::ZERO);
    let slowest_client = demand.iter().copied().max().unwrap_or(SimDuration::ZERO);
    let completion = slowest_client.max(server_busy);
    let transactions = (clients * per_client) as u64;
    let secs = completion.as_secs_f64();
    let per_sec = |x: f64| if secs > 0.0 { x / secs } else { 0.0 };
    ClosedLoop {
        transactions,
        completion,
        slowest_client,
        server_busy,
        ops_per_sec: per_sec(simkit::units::to_f64(transactions)),
        server_cpu_pct: per_sec(100.0 * server_busy.as_secs_f64()),
        msgs_per_client: counters.delta_since(&before, tb.protocol().txn_counter())
            / clients as u64,
        before,
    }
}

/// Steps `sessions` until none has work `remaining`, always the one
/// whose wakeup is earliest (see the [module docs](self)).
fn interleave<S>(
    sessions: &mut [S],
    now: impl Fn() -> SimTime,
    remaining: impl Fn(&S) -> usize,
    mut step: impl FnMut(usize, &mut S),
) {
    let mut wakeups: EventQueue<usize> = EventQueue::with_capacity(sessions.len());
    let arm = |wakeups: &mut EventQueue<usize>, i: usize, s: &S| {
        if remaining(s) > 0 {
            wakeups.schedule(now(), HostId::client(i as u32), i);
        }
    };
    for (i, s) in sessions.iter().enumerate() {
        arm(&mut wakeups, i, s);
    }
    while let Some((_, i)) = wakeups.pop() {
        step(i, &mut sessions[i]);
        arm(&mut wakeups, i, &sessions[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// The reference the event loop replaced: pass after pass over the
    /// sessions that still have work, in index order.
    fn round_robin(mut left: Vec<usize>) -> Vec<usize> {
        let mut order = Vec::new();
        let mut live: Vec<usize> = (0..left.len()).filter(|&i| left[i] > 0).collect();
        while !live.is_empty() {
            for &i in &live {
                order.push(i);
                left[i] -= 1;
            }
            live.retain(|&i| left[i] > 0);
        }
        order
    }

    #[test]
    fn earliest_wakeup_visits_sessions_in_round_robin_order() {
        // Step durations per session, last first. Unequal lengths, an
        // idle session, and zero-duration steps mid-pass: those tie
        // with the step before them on time and fall back to host
        // order. Session 0 opens every pass it is live in and always
        // advances the clock; once it is done, so is all but one other.
        let mut sessions: Vec<Vec<u64>> = vec![
            vec![7, 2, 5, 3],
            vec![4, 0, 0],
            vec![],
            vec![2, 0, 0, 0, 0, 1],
            vec![0],
            vec![9, 0],
        ];
        let expected = round_robin(sessions.iter().map(Vec::len).collect());
        let clock = Cell::new(SimTime::ZERO);
        let mut order = Vec::new();
        interleave(
            &mut sessions,
            || clock.get(),
            Vec::len,
            |i, s| {
                order.push(i);
                let d = s.pop().expect("only live sessions are stepped");
                clock.set(clock.get() + SimDuration::from_micros(d));
            },
        );
        assert_eq!(order, expected);
        assert_eq!(order.len(), 16);
        assert!(sessions.iter().all(Vec::is_empty));
    }
}
