//! The speed probe: a fixed kernel of the benchmark's own, run beside
//! every timed unit, that says how fast the host is *right now*.
//!
//! The recording host is a small VM on a shared machine whose speed
//! drifts by 30–40 % over minutes (README, "Steadiness"): the same
//! unit of the same binary took 1.2 s and, four minutes earlier,
//! 1.9 s. Longer runs do not average that away. What takes most of it
//! out is a reference that slows down with the workload, so every
//! gated time is reported in *calibrated seconds*:
//!
//! ```text
//! calibrated = raw × (NOMINAL_PROBE_S ÷ probe time beside it) ^ TRUST
//! ```
//!
//! With `TRUST` = 1 that would be seconds on a host that runs the
//! probe in exactly [`NOMINAL_PROBE_S`]. But a 0.1 s probe sample is
//! itself a noisy reading of the host's speed — about as noisy as the
//! drift it tracks — so, as any estimate from a noisy reading is, it is
//! shrunk toward "no change": [`TRUST`] = 0.5, the geometric mean of
//! the stopwatch time and the fully calibrated one. Parent and change
//! are measured with the same probe, which contains no product code,
//! so a product change moves `raw` only.
//!
//! The kernel is the kind of work the simulator does — hash-map churn
//! over small heap values and 4 KB block copies through a keyed block
//! store — on working sets (about 60 MB each) that spill the private
//! caches, because that is the part of the host whose speed changes.
//! Pointer chasing alone and pure arithmetic were tried beside it and
//! tracked the workloads worse (they vary half as much as the units).

use std::collections::HashMap;
use std::time::Instant;

/// What one probe pass takes on the recording host in ordinary
/// weather. Only a scale: it makes a calibrated second about a real
/// one there. Changing it rescales every gated time, so a `benchmark`
/// issue may, and nothing else.
pub const NOMINAL_PROBE_S: f64 = 0.105;

/// How much of a probe reading is believed (the exponent above).
/// Measured on the recording host over sets of ten runs of the three
/// gated workloads, as the distance between the quartiles of `wall_s`
/// over its median: 4–18 % at 0 (stopwatch seconds: worst when the
/// weather turns within a set), 6–15 % at 1 (worst in calm weather,
/// where the probe's own noise is all it adds), 4–10 % at 0.5
/// (README, "Steadiness").
pub const TRUST: f64 = 0.5;

const KEYS: u64 = 500_000;
const CHURN_OPS: u64 = 300_000;
const BLOCKS: u64 = 16_384;
const BLOCK_COPIES: u64 = 60_000;

pub struct Probe {
    values: HashMap<u64, Vec<u8>>,
    blocks: HashMap<u64, Box<[u8; 4096]>>,
    x: u64,
    /// Folded from what the kernel reads and shown to `black_box`, so
    /// none of it is dead code.
    sink: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn value(k: u64, fill: u8) -> Vec<u8> {
    vec![fill; 64 + (k % 192) as usize]
}

impl Probe {
    /// Builds the two working sets (about 125 MB, resident from here
    /// on: `peak_rss_mb` subtracts it).
    pub fn new() -> Probe {
        let mut x = 88_172_645_463_325_252u64;
        let mut values = HashMap::new();
        for _ in 0..KEYS / 2 {
            let k = xorshift(&mut x) % KEYS;
            values.insert(k, value(k, k as u8));
        }
        let blocks = (0..BLOCKS)
            .map(|b| (b, Box::new([b as u8; 4096])))
            .collect();
        Probe {
            values,
            blocks,
            x,
            sink: 0,
        }
    }

    /// One pass of the kernel; its host seconds.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        for i in 0..CHURN_OPS {
            let k = xorshift(&mut self.x) % KEYS;
            match self.values.remove(&k) {
                Some(v) => self.sink += u64::from(v[0]),
                None => {
                    self.values.insert(k, value(k, i as u8));
                }
            }
        }
        let mut buf = [0u8; 4096];
        for _ in 0..BLOCK_COPIES {
            let from = xorshift(&mut self.x) % BLOCKS;
            let to = xorshift(&mut self.x) % BLOCKS;
            buf.copy_from_slice(&self.blocks[&from][..]);
            buf[0] = buf[0].wrapping_add(1);
            if let Some(block) = self.blocks.get_mut(&to) {
                block.copy_from_slice(&buf);
            }
        }
        self.sink += u64::from(buf[0]);
        std::hint::black_box(self.sink);
        t0.elapsed().as_secs_f64()
    }

    /// Mean seconds per pass over `passes` passes.
    pub fn sample(&mut self, passes: usize) -> f64 {
        let passes = passes.max(1);
        (0..passes).map(|_| self.pass()).sum::<f64>() / passes as f64
    }
}

/// The factor a raw time is multiplied by, from a probe time: 1 on
/// the recording host in ordinary weather, below 1 when the host is
/// slower than that (its raw times are marked down).
pub fn speed(probe_s: f64) -> f64 {
    (NOMINAL_PROBE_S / probe_s).powf(TRUST)
}

/// Probe passes per sample so that probing costs about a twelfth of
/// the run: units of a second or two get one pass, longer units more
/// (a sample of one 0.1 s pass is itself noisy beside a 5 s unit).
pub fn passes_for(unit_s: f64, pass_s: f64) -> usize {
    ((unit_s / 12.0 / pass_s).round() as usize).clamp(1, 6)
}

/// Calibrated seconds of units timed between probe samples:
/// `probes[i]` was taken just before `raw[i]` and `probes[i + 1]` just
/// after, and a unit's probe time is the mean of the two.
pub fn calibrate(raw: &[f64], probes: &[f64]) -> Vec<f64> {
    assert_eq!(
        probes.len(),
        raw.len() + 1,
        "a probe sample on each side of every unit"
    );
    raw.iter()
        .zip(probes.windows(2))
        .map(|(r, p)| r * speed((p[0] + p[1]) / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_nominal_speed_leaves_seconds_alone() {
        let cal = calibrate(&[2.0, 3.0], &[NOMINAL_PROBE_S; 3]);
        assert_eq!(cal, vec![2.0, 3.0]);
    }

    /// A unit beside which the probe took twice its nominal time is
    /// marked down by 2^TRUST, from the mean of the samples either side.
    #[test]
    fn a_slow_spell_is_marked_down() {
        let p = NOMINAL_PROBE_S;
        let cal = calibrate(&[2.0, 4.0, 3.0], &[p, p, 3.0 * p, 2.0 * p]);
        assert!((cal[0] - 2.0).abs() < 1e-12);
        assert!(
            (cal[1] - 4.0 / 2f64.powf(TRUST)).abs() < 1e-12,
            "mean of p and 3p is 2p"
        );
        assert!((cal[2] - 3.0 / 2.5f64.powf(TRUST)).abs() < 1e-12);
    }

    #[test]
    fn probing_stays_near_a_twelfth_of_the_run() {
        assert_eq!(passes_for(1.4, 0.12), 1);
        assert_eq!(passes_for(5.0, 0.12), 3);
        assert_eq!(passes_for(60.0, 0.12), 6);
        assert_eq!(passes_for(0.01, 0.12), 1);
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let (mut a, mut b) = (Probe::new(), Probe::new());
        a.sample(1);
        b.sample(1);
        assert_eq!(a.sink, b.sink);
        assert_ne!(a.sink, 0);
    }
}
