//! The account against the event log it replaced: random sequences of
//! charges and spread charges at non-decreasing instants run on both,
//! and the busy total, the per-tag sums and every windowed utilization
//! must agree, floats compared by their bits. Sequences include zero
//! busy time, spread charges too small to divide into their chunks,
//! equal instants, and a `sample_from` at a charge instant while
//! earlier spread charges still have chunks on both sides of it.

use crate::CpuAccount;
use proptest::prelude::*;
use simkit::units;
use simkit::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// The account as it was before it kept totals: every non-zero charge
/// stays in the log for the account's whole life. Kept here verbatim
/// (minus tracing) as the reference.
#[derive(Default)]
struct EventLog {
    events: RefCell<Vec<(u64, u64)>>,
    by_tag: RefCell<BTreeMap<&'static str, u64>>,
}

impl EventLog {
    fn charge(&self, at: SimTime, busy: SimDuration) {
        if !busy.is_zero() {
            self.events
                .borrow_mut()
                .push((at.as_nanos(), busy.as_nanos()));
        }
    }

    fn charge_spread(&self, at: SimTime, busy: SimDuration, span: SimDuration) {
        if busy.is_zero() {
            return;
        }
        const CHUNK: u64 = 200_000_000;
        let n = (span.as_nanos() / CHUNK).max(1);
        let per = busy.as_nanos() / n;
        if per == 0 {
            self.charge(at, busy);
            return;
        }
        let mut events = self.events.borrow_mut();
        for i in 0..n {
            events.push((at.as_nanos() + i * CHUNK, per));
        }
    }

    fn charge_tagged(&self, at: SimTime, busy: SimDuration, tag: &'static str) {
        if busy.is_zero() {
            return;
        }
        *self.by_tag.borrow_mut().entry(tag).or_insert(0) += busy.as_nanos();
        self.charge(at, busy);
    }

    fn charge_spread_tagged(
        &self,
        at: SimTime,
        busy: SimDuration,
        span: SimDuration,
        tag: &'static str,
    ) {
        if busy.is_zero() {
            return;
        }
        *self.by_tag.borrow_mut().entry(tag).or_insert(0) += busy.as_nanos();
        self.charge_spread(at, busy, span);
    }

    fn busy_by_tag(&self) -> Vec<(&'static str, SimDuration)> {
        self.by_tag
            .borrow()
            .iter()
            .map(|(&t, &n)| (t, SimDuration::from_nanos(n)))
            .collect()
    }

    fn total_busy(&self) -> SimDuration {
        SimDuration::from_nanos(self.events.borrow().iter().map(|&(_, b)| b).sum())
    }

    fn window_utilizations(&self, from: SimTime, to: SimTime, window: SimDuration) -> Vec<f64> {
        assert!(to >= from && !window.is_zero());
        let span = to.as_nanos() - from.as_nanos();
        let nwin = span.div_ceil(window.as_nanos()).max(1) as usize;
        let mut busy = vec![0u64; nwin];
        for &(at, b) in self.events.borrow().iter() {
            if at < from.as_nanos() || at >= to.as_nanos() {
                continue;
            }
            let w = ((at - from.as_nanos()) / window.as_nanos()) as usize;
            busy[w] += b;
        }
        busy.iter()
            .map(|&b| units::ratio(b, window.as_nanos()).min(1.0))
            .collect()
    }

    fn utilization_percentile(
        &self,
        from: SimTime,
        to: SimTime,
        window: SimDuration,
        pct: f64,
    ) -> f64 {
        let mut u = self.window_utilizations(from, to, window);
        if u.is_empty() {
            return 0.0;
        }
        u.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((pct / 100.0) * (units::usize_f64(u.len()) - 1.0)).round() as usize;
        u[idx.min(u.len() - 1)]
    }
}

const TAGS: [Option<&str>; 3] = [None, Some("nfs.server"), Some("iscsi.target")];

/// One charge, `dt` ns after the previous one.
#[derive(Debug, Clone, Copy)]
enum Op {
    Charge {
        dt: u64,
        busy: u64,
        tag: usize,
    },
    Spread {
        dt: u64,
        busy: u64,
        span: u64,
        tag: usize,
    },
}

fn dt() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(0u64),
        1u64..1_000,
        100_000_000u64..3_000_000_000,
    ]
}

fn busy() -> impl Strategy<Value = u64> {
    // Zero; fewer nanoseconds than a spread has chunks; ordinary
    // per-request costs; more than a window.
    prop_oneof![
        Just(0u64),
        1u64..30,
        1_000u64..2_000_000,
        1_000_000_000u64..5_000_000_000,
    ]
}

fn span() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..400_000_000, 400_000_000u64..6_000_000_000]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (dt(), busy(), 0usize..3).prop_map(|(dt, busy, tag)| Op::Charge { dt, busy, tag }),
        (dt(), busy(), span(), 0usize..3).prop_map(|(dt, busy, span, tag)| Op::Spread {
            dt,
            busy,
            span,
            tag
        }),
    ]
}

/// Windows an armed account answers for, given its sampling start and
/// the current instant: starting at the start and later, ending before
/// the last chunk and after it.
fn windows(start: u64, now: u64) -> Vec<(SimTime, SimTime, SimDuration)> {
    let mut out = Vec::new();
    for from in [start, start + 1, start + 150_000_000, start + 1_000_000_001] {
        for to in [
            from,
            from + (now.saturating_sub(from)) / 2,
            now,
            now + 7_000_000_000,
        ] {
            if to < from {
                continue;
            }
            for w in [2_000_000_000, 300_000_000, 70_000_000] {
                out.push((
                    SimTime::from_nanos(from),
                    SimTime::from_nanos(to),
                    SimDuration::from_nanos(w),
                ));
            }
        }
    }
    out
}

fn bits(u: &[f64]) -> Vec<u64> {
    u.iter().map(|x| x.to_bits()).collect()
}

/// Every query both accounts answer, compared.
fn same_answers(a: &CpuAccount, r: &EventLog, armed: Option<u64>, now: u64) -> Result<(), String> {
    prop_assert_eq!(a.total_busy(), r.total_busy());
    prop_assert_eq!(a.busy_by_tag(), r.busy_by_tag());
    let Some(start) = armed else { return Ok(()) };
    for (from, to, w) in windows(start, now) {
        prop_assert_eq!(
            bits(&a.window_utilizations(from, to, w)),
            bits(&r.window_utilizations(from, to, w)),
            "windows of {:?} over [{:?}, {:?})",
            w,
            from,
            to
        );
        if w != SimDuration::from_secs(2) {
            continue;
        }
        for pct in [0.0, 50.0, 95.0, 100.0] {
            prop_assert_eq!(
                a.utilization_percentile(from, to, w, pct).to_bits(),
                r.utilization_percentile(from, to, w, pct).to_bits(),
                "p{} of {:?} over [{:?}, {:?})",
                pct,
                w,
                from,
                to
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn account_answers_like_the_event_log(
        ops in prop::collection::vec(op(), 1..120),
        arm_before in 0usize..140,
        arm_later in prop_oneof![Just(0u64), Just(0u64), 1u64..500_000_000],
    ) {
        let account = CpuAccount::new();
        let log = EventLog::default();
        let mut now = 0u64;
        let mut armed = None;
        for (i, &op) in ops.iter().enumerate() {
            if i == arm_before {
                // At the latest charge instant, or some time after it.
                now += arm_later;
                account.sample_from(SimTime::from_nanos(now));
                armed = Some(now);
            }
            match op {
                Op::Charge { dt, busy, tag } => {
                    now += dt;
                    let (at, busy) = (SimTime::from_nanos(now), SimDuration::from_nanos(busy));
                    match TAGS[tag] {
                        Some(t) => {
                            account.charge_tagged(at, busy, t);
                            log.charge_tagged(at, busy, t);
                        }
                        None => {
                            account.charge(at, busy);
                            log.charge(at, busy);
                        }
                    }
                }
                Op::Spread { dt, busy, span, tag } => {
                    now += dt;
                    let at = SimTime::from_nanos(now);
                    let (busy, span) = (SimDuration::from_nanos(busy), SimDuration::from_nanos(span));
                    match TAGS[tag] {
                        Some(t) => {
                            account.charge_spread_tagged(at, busy, span, t);
                            log.charge_spread_tagged(at, busy, span, t);
                        }
                        None => {
                            account.charge_spread(at, busy, span);
                            log.charge_spread(at, busy, span);
                        }
                    }
                }
            }
            if armed.is_some() && i % 16 == 15 {
                same_answers(&account, &log, armed, now).map_err(|e| format!("after op {i}: {e}"))?;
            }
        }
        same_answers(&account, &log, armed, now)?;
    }
}
