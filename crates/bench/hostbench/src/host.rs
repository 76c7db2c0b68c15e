//! What the host tells us: CPU time and peak memory from `/proc`, the
//! host descriptor every output carries, and the meter that brackets
//! one timed unit.

use crate::alloc;
use crate::json::Json;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` (run.sh
/// exports `getconf CLK_TCK`; Linux has used 100 for decades).
fn clk_tck() -> f64 {
    std::env::var("HOSTBENCH_CLK_TCK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100.0)
}

/// What `/proc/self/stat` says this process, and the children it has
/// waited for, have used so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Minor page faults: pages touched for the first time.
    pub faults: u64,
}

/// Zeros where `/proc` is absent.
pub fn usage() -> Usage {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Usage::default();
    };
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, so field N is index N - 3 from there.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return Usage::default();
    };
    let f: Vec<f64> = rest
        .split_whitespace()
        .take(15)
        .map(|f| f.parse::<f64>().unwrap_or(0.0))
        .collect();
    if f.len() < 15 {
        return Usage::default();
    }
    // Fields 10–11: minflt, cminflt; 14–17: utime, stime, cutime, cstime.
    Usage {
        user_s: (f[11] + f[13]) / clk_tck(),
        sys_s: (f[12] + f[14]) / clk_tck(),
        faults: (f[7] + f[8]) as u64,
    }
}

fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB; `None` once
/// the process is gone.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// Resident set of this process right now, in MB.
pub fn rss_mb() -> f64 {
    status_mb("self", "VmRSS:").unwrap_or(0.0)
}

/// Cores this process may run on; also the `--jobs` value of the one
/// multi-threaded workload.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `host` object of every output.
pub fn descriptor() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut host = Json::obj();
    host.set("cores", Json::count(cores() as u64))
        .set("cpu_model", Json::str(cpu_model))
        .set("kernel", Json::str(kernel))
        .set("rustc", Json::str(env("HOSTBENCH_RUSTC")))
        .set("commit", Json::str(env("HOSTBENCH_COMMIT")))
        .set("glibc_tunables", Json::str(env("GLIBC_TUNABLES")))
        .set("jobs", Json::count(cores() as u64));
    host
}

/// One timed unit's cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The kernel's part of `cpu_s`: page faults, mostly.
    pub cpu_sys_s: f64,
    /// Pages touched for the first time during the unit.
    pub page_faults: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Cost {
    /// Folds in the cost of a further part of the same unit.
    pub fn add(&mut self, part: Cost) {
        self.wall_s += part.wall_s;
        self.cpu_s += part.cpu_s;
        self.cpu_sys_s += part.cpu_sys_s;
        self.page_faults += part.page_faults;
        self.allocs += part.allocs;
        self.alloc_bytes += part.alloc_bytes;
    }
}

/// Brackets a unit: wall clock, CPU time and allocator counters.
pub struct Meter {
    t0: Instant,
    usage0: Usage,
    alloc0: (u64, u64),
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            usage0: usage(),
            alloc0: alloc::snapshot(),
            t0: Instant::now(),
        }
    }

    pub fn stop(self) -> Cost {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let (allocs, bytes) = alloc::snapshot();
        let now = usage();
        let sys = now.sys_s - self.usage0.sys_s;
        Cost {
            wall_s,
            cpu_s: (now.user_s - self.usage0.user_s) + sys,
            cpu_sys_s: sys,
            page_faults: now.faults - self.usage0.faults,
            allocs: allocs - self.alloc0.0,
            alloc_bytes: bytes - self.alloc0.1,
        }
    }
}
