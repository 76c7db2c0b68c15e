//! Synthetic NFS workload traces and the paper's §7 analyses.
//!
//! The paper studies meta-data sharing using two private Harvard
//! traces (EECS: research/development; Campus: mail/web). We
//! synthesize traces with the published characteristics — most
//! directories are touched by a single client, read sharing exceeds
//! write sharing, and only a few percent of directories are read-write
//! shared across clients at large time scales — and run the same
//! analyses: the Figure 7 sharing curves, and the §7 evaluation of a
//! strongly-consistent read-only meta-data cache and directory
//! delegation.

use simkit::SplitMix64;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Kind of meta-data access in a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Meta-data read (lookup, getattr, readdir).
    Read,
    /// Meta-data update (create, remove, setattr, rename).
    Write,
}

/// One trace record: a client touching a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Seconds since trace start.
    pub t: u64,
    /// Client machine id.
    pub client: u32,
    /// Directory id.
    pub dir: u32,
    /// Access kind.
    pub kind: AccessKind,
}

/// Which published trace the synthesis mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Research/software-development/coursework (≈40 k objects; high
    /// read sharing, low write sharing).
    Eecs,
    /// Email and web workload (≈100 k objects; read-write sharing
    /// grows with the observation interval).
    Campus,
}

/// Trace-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Profile to mimic.
    pub profile: Profile,
    /// Trace length in seconds (the paper uses day-long traces).
    pub duration_s: u64,
    /// Number of client machines.
    pub clients: u32,
    /// Number of directories.
    pub dirs: u32,
    /// Total events to generate.
    pub events: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// A day-scale configuration for the given profile.
    pub fn day(profile: Profile) -> TraceConfig {
        match profile {
            Profile::Eecs => TraceConfig {
                profile,
                duration_s: 86_400,
                clients: 24,
                dirs: 8_000,
                events: 400_000,
                seed: 17,
            },
            Profile::Campus => TraceConfig {
                profile,
                duration_s: 86_400,
                clients: 40,
                dirs: 20_000,
                events: 600_000,
                seed: 23,
            },
        }
    }

    fn locality(&self) -> f64 {
        match self.profile {
            Profile::Eecs => 0.97,
            Profile::Campus => 0.95,
        }
    }

    fn write_fraction(&self) -> f64 {
        match self.profile {
            Profile::Eecs => 0.18,
            Profile::Campus => 0.30,
        }
    }

    /// Fraction of "hot" shared directories (project dirs, shared
    /// mail spools) that draw cross-client traffic.
    fn hot_fraction(&self) -> f64 {
        match self.profile {
            Profile::Eecs => 0.05,
            Profile::Campus => 0.04,
        }
    }
}

/// Generates a deterministic synthetic trace.
pub fn generate(cfg: TraceConfig) -> Vec<TraceEvent> {
    let mut rng = SplitMix64::new(cfg.seed);
    let hot_dirs = ((cfg.dirs as f64) * cfg.hot_fraction()).max(1.0) as u32;
    let mut events = Vec::with_capacity(cfg.events);
    // Home client per directory.
    let homes: Vec<u32> = (0..cfg.dirs)
        .map(|_| rng.below(cfg.clients as u64) as u32)
        .collect();
    for _ in 0..cfg.events {
        let t = rng.below(cfg.duration_s);
        // Half the traffic goes to the hot set (Zipf-flavoured skew).
        let dir = if rng.next_f64() < 0.5 {
            rng.below(hot_dirs as u64) as u32
        } else {
            (hot_dirs as u64 + rng.below((cfg.dirs - hot_dirs) as u64)) as u32
        };
        let home = homes[dir as usize];
        let client = if rng.next_f64() < cfg.locality() {
            home
        } else {
            rng.below(cfg.clients as u64) as u32
        };
        let kind = if rng.next_f64() < cfg.write_fraction() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        events.push(TraceEvent {
            t,
            client,
            dir,
            kind,
        });
    }
    events.sort_by_key(|e| e.t);
    events
}

/// Figure 7 point: directory sharing classes at one interval size,
/// normalized by directories accessed per interval (averaged over all
/// intervals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingPoint {
    /// Interval length T in seconds.
    pub interval_s: u64,
    /// Directories read by exactly one client.
    pub read_by_one: f64,
    /// Directories written by exactly one client.
    pub written_by_one: f64,
    /// Directories read by multiple clients.
    pub read_by_multiple: f64,
    /// Directories written by multiple clients (or read-write shared).
    pub written_by_multiple: f64,
}

/// Computes the Figure 7 sharing curves for the given interval sizes.
pub fn sharing_analysis(events: &[TraceEvent], intervals_s: &[u64]) -> Vec<SharingPoint> {
    let mut out = Vec::new();
    let t_end = events.last().map(|e| e.t + 1).unwrap_or(1);
    for &iv in intervals_s {
        let nwin = t_end.div_ceil(iv).max(1);
        let mut sums = (0.0f64, 0.0, 0.0, 0.0);
        let mut windows_counted = 0u64;
        for w in 0..nwin {
            let lo = w * iv;
            let hi = lo + iv;
            let mut readers: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            let mut writers: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            for e in events.iter().filter(|e| e.t >= lo && e.t < hi) {
                match e.kind {
                    AccessKind::Read => readers.entry(e.dir).or_default().insert(e.client),
                    AccessKind::Write => writers.entry(e.dir).or_default().insert(e.client),
                };
            }
            let mut dirs: BTreeSet<u32> = readers.keys().copied().collect();
            dirs.extend(writers.keys().copied());
            if dirs.is_empty() {
                continue;
            }
            windows_counted += 1;
            let total = dirs.len() as f64;
            let mut r1 = 0u64;
            let mut w1 = 0u64;
            let mut rm = 0u64;
            let mut wm = 0u64;
            for d in dirs {
                let nr = readers.get(&d).map_or(0, |s| s.len());
                let nw = writers.get(&d).map_or(0, |s| s.len());
                if nr == 1 {
                    r1 += 1;
                }
                if nr > 1 {
                    rm += 1;
                }
                if nw == 1 {
                    w1 += 1;
                }
                if nw > 1 {
                    wm += 1;
                }
            }
            sums.0 += r1 as f64 / total;
            sums.1 += w1 as f64 / total;
            sums.2 += rm as f64 / total;
            sums.3 += wm as f64 / total;
        }
        let n = windows_counted.max(1) as f64;
        out.push(SharingPoint {
            interval_s: iv,
            read_by_one: sums.0 / n,
            written_by_one: sums.1 / n,
            read_by_multiple: sums.2 / n,
            written_by_multiple: sums.3 / n,
        });
    }
    out
}

/// Fraction of directories that are read-write shared across clients
/// (accessed by >1 client with at least one writer) at interval `iv`.
pub fn rw_shared_fraction(events: &[TraceEvent], iv: u64) -> f64 {
    let t_end = events.last().map(|e| e.t + 1).unwrap_or(1);
    let nwin = t_end.div_ceil(iv).max(1);
    let mut acc = 0.0;
    let mut counted = 0u64;
    for w in 0..nwin {
        let lo = w * iv;
        let hi = lo + iv;
        let mut clients: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        let mut wrote: BTreeSet<u32> = BTreeSet::new();
        for e in events.iter().filter(|e| e.t >= lo && e.t < hi) {
            clients.entry(e.dir).or_default().insert(e.client);
            if e.kind == AccessKind::Write {
                wrote.insert(e.dir);
            }
        }
        if clients.is_empty() {
            continue;
        }
        counted += 1;
        let total = clients.len() as f64;
        let shared = clients
            .iter()
            .filter(|(d, cs)| cs.len() > 1 && wrote.contains(d))
            .count() as f64;
        acc += shared / total;
    }
    acc / counted.max(1) as f64
}

/// Result of the §7 strongly-consistent read-only meta-data cache
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSimReport {
    /// Meta-data messages without the enhancement (one per access).
    pub baseline_messages: u64,
    /// Meta-data messages with the cache (misses + all updates).
    pub cached_messages: u64,
    /// Server→client invalidation callbacks sent.
    pub invalidations: u64,
    /// `invalidations / cached_messages` (the paper's callback ratio).
    pub callback_ratio: f64,
    /// `1 - cached/baseline`.
    pub reduction: f64,
}

/// Simulates per-client LRU directory caches with server-driven
/// invalidation (the §7 read-only meta-data cache).
pub fn simulate_metadata_cache(events: &[TraceEvent], cache_size: usize) -> CacheSimReport {
    #[derive(Default)]
    struct ClientCache {
        lru: VecDeque<u32>,
        set: BTreeSet<u32>,
    }
    impl ClientCache {
        fn touch(&mut self, dir: u32, cap: usize) -> bool {
            let hit = self.set.contains(&dir);
            if hit {
                // Move-to-front (cheap approximation).
                if let Some(pos) = self.lru.iter().position(|&d| d == dir) {
                    self.lru.remove(pos);
                }
            } else {
                self.set.insert(dir);
            }
            self.lru.push_front(dir);
            while self.lru.len() > cap {
                if let Some(old) = self.lru.pop_back() {
                    self.set.remove(&old);
                }
            }
            hit
        }
        fn invalidate(&mut self, dir: u32) -> bool {
            if self.set.remove(&dir) {
                if let Some(pos) = self.lru.iter().position(|&d| d == dir) {
                    self.lru.remove(pos);
                }
                true
            } else {
                false
            }
        }
    }

    let mut caches: BTreeMap<u32, ClientCache> = BTreeMap::new();
    let mut holders: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new(); // dir -> clients caching it
    let mut cached_messages = 0u64;
    let mut invalidations = 0u64;
    for e in events {
        match e.kind {
            AccessKind::Read => {
                let c = caches.entry(e.client).or_default();
                let hit = c.touch(e.dir, cache_size);
                if !hit {
                    cached_messages += 1; // fetch from server
                }
                holders.entry(e.dir).or_default().insert(e.client);
            }
            AccessKind::Write => {
                cached_messages += 1; // updates are always synchronous
                                      // Server invalidates every *other* holder.
                if let Some(hs) = holders.get_mut(&e.dir) {
                    for other in hs.iter().copied().collect::<Vec<_>>() {
                        if other != e.client {
                            if caches.entry(other).or_default().invalidate(e.dir) {
                                invalidations += 1;
                            }
                            hs.remove(&other);
                        }
                    }
                }
            }
        }
    }
    let baseline = events.len() as u64;
    CacheSimReport {
        baseline_messages: baseline,
        cached_messages,
        invalidations,
        callback_ratio: invalidations as f64 / cached_messages.max(1) as f64,
        reduction: 1.0 - cached_messages as f64 / baseline.max(1) as f64,
    }
}

/// Result of the §7 directory-delegation simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelegationReport {
    /// Updates in the trace.
    pub updates: u64,
    /// Messages with plain synchronous updates (baseline).
    pub baseline_messages: u64,
    /// Messages with delegation: grants + recalls + batched flushes.
    pub delegated_messages: u64,
    /// Lease recalls forced by cross-client contention.
    pub recalls: u64,
    /// `1 - delegated/baseline`.
    pub reduction: f64,
}

/// Simulates directory delegation: a client acquires a lease on first
/// update; local updates are flushed in batches of `batch`; another
/// client touching the directory forces a recall (flush + transfer).
pub fn simulate_delegation(events: &[TraceEvent], batch: u64) -> DelegationReport {
    let mut lease: BTreeMap<u32, (u32, u64)> = BTreeMap::new(); // dir -> (client, queued)
    let mut updates = 0u64;
    let mut msgs = 0u64;
    let mut recalls = 0u64;
    for e in events {
        match e.kind {
            AccessKind::Write => {
                updates += 1;
                match lease.get_mut(&e.dir) {
                    Some((owner, queued)) if *owner == e.client => {
                        *queued += 1;
                        if *queued >= batch {
                            msgs += 1; // aggregated flush
                            *queued = 0;
                        }
                    }
                    Some((_, queued)) => {
                        // Contention: recall (flush of the old queue)
                        // plus a regrant compound carrying this update.
                        recalls += 1;
                        msgs += 1 + u64::from(*queued > 0);
                        lease.insert(e.dir, (e.client, 0));
                    }
                    None => {
                        // The delegation request rides the compound of
                        // the first update (one message total).
                        msgs += 1;
                        lease.insert(e.dir, (e.client, 0));
                    }
                }
            }
            AccessKind::Read => {
                if let Some((owner, queued)) = lease.get(&e.dir).copied() {
                    if owner != e.client && queued > 0 {
                        // A reader elsewhere needs current meta-data:
                        // the owner flushes its queue (lease survives
                        // in read-shared mode).
                        msgs += 1;
                        if let Some(l) = lease.get_mut(&e.dir) {
                            l.1 = 0;
                        }
                    }
                }
            }
        }
    }
    // Final flushes.
    for (_, (_, queued)) in lease {
        if queued > 0 {
            msgs += 1;
        }
    }
    DelegationReport {
        updates,
        baseline_messages: updates,
        delegated_messages: msgs,
        recalls,
        reduction: 1.0 - msgs as f64 / updates.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(profile: Profile) -> Vec<TraceEvent> {
        generate(TraceConfig {
            events: 50_000,
            ..TraceConfig::day(profile)
        })
    }

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let a = small(Profile::Eecs);
        let b = small(Profile::Eecs);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn single_client_access_dominates() {
        let ev = small(Profile::Eecs);
        let pts = sharing_analysis(&ev, &[200]);
        let p = pts[0];
        assert!(p.read_by_one > p.read_by_multiple, "{p:?}");
        assert!(p.written_by_one > p.written_by_multiple, "{p:?}");
    }

    #[test]
    fn rw_sharing_is_small_at_kilosecond_scale() {
        // Paper: ~4% (EECS) and ~3.5% (Campus) at T = 1000 s.
        for profile in [Profile::Eecs, Profile::Campus] {
            let ev = small(profile);
            let f = rw_shared_fraction(&ev, 1000);
            assert!(f < 0.15, "{profile:?}: {f}");
            assert!(f > 0.0, "{profile:?}: some sharing must exist");
        }
    }

    #[test]
    fn sharing_grows_with_interval() {
        let ev = small(Profile::Campus);
        let small_t = rw_shared_fraction(&ev, 100);
        let large_t = rw_shared_fraction(&ev, 10_000);
        assert!(large_t > small_t, "{small_t} !< {large_t}");
    }

    #[test]
    fn metadata_cache_reduces_messages_substantially() {
        let ev = small(Profile::Eecs);
        let r = simulate_metadata_cache(&ev, 1024);
        assert!(r.reduction > 0.5, "{r:?}");
        assert!(r.callback_ratio < 0.1, "{r:?}");
        assert_eq!(r.baseline_messages, ev.len() as u64);
    }

    #[test]
    fn bigger_caches_help_more() {
        let ev = small(Profile::Campus);
        let small_c = simulate_metadata_cache(&ev, 16);
        let large_c = simulate_metadata_cache(&ev, 4096);
        assert!(large_c.cached_messages < small_c.cached_messages);
    }

    #[test]
    fn delegation_aggregates_updates() {
        let ev = small(Profile::Eecs);
        let r = simulate_delegation(&ev, 32);
        assert!(r.reduction > 0.3, "{r:?}");
        assert!(r.delegated_messages < r.baseline_messages);
    }

    #[test]
    fn delegation_contention_is_bounded() {
        let ev = small(Profile::Eecs);
        let r = simulate_delegation(&ev, 32);
        assert!(
            (r.recalls as f64) < 0.3 * r.updates as f64,
            "low contention expected: {r:?}"
        );
    }
}
