//! Client-scaling benchmark: runs the `scale` experiment's N = 1..16
//! grid for both protocols and writes the curve to `BENCH_scale.json`
//! (and stdout).
//!
//! ```text
//! scale_bench [--quick] [--out PATH]
//! ```
//!
//! Everything recorded is *virtual*-time data from the deterministic
//! simulation (aggregate transactions/sec under the overlap model,
//! server CPU utilization, messages per client, worst per-client p95),
//! so the committed file is reproducible bit-for-bit on any host —
//! unlike `BENCH_sweep.json`, no host section is needed.

use ipstorage_core::experiments::scale;
use ipstorage_core::{Protocol, RunOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scale.json".into());

    let (counts, files, txns): (&[usize], usize, usize) = if quick {
        (&[1, 2, 4], 200, 500)
    } else {
        (&[1, 2, 4, 8, 12, 16], 500, 2000)
    };
    eprintln!(
        "scale_bench: sweeping N={counts:?} x {{NFSv3, iSCSI}}, \
         {files} files / {txns} transactions per client"
    );
    let (runs, _) = scale::scale(RunOptions::default(), counts, files, txns, None);

    let mut curve = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            curve.push(',');
        }
        let proto = match r.protocol {
            Protocol::Iscsi => "iscsi",
            _ => "nfsv3",
        };
        curve.push_str(&format!(
            concat!(
                "{{\"protocol\":\"{}\",\"clients\":{},",
                "\"ops_per_sec\":{:.2},\"server_cpu_pct\":{:.2},",
                "\"completion_ns\":{},\"msgs_per_client\":{},",
                "\"p95_us\":{},\"getattrs\":{}}}"
            ),
            proto,
            r.clients,
            r.ops_per_sec,
            r.server_cpu_pct,
            r.completion.as_nanos(),
            r.msgs_per_client,
            r.p95_us,
            r.getattrs,
        ));
    }
    let json = format!(
        "{{\"bench\":\"scale\",\"files\":{files},\"transactions\":{txns},\
         \"quick\":{quick},\"cells\":[{curve}]}}"
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_scale.json");
    println!("{json}");
    eprintln!("scale_bench: wrote {out_path}");
}
