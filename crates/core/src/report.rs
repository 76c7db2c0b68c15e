//! Machine-readable run reports.
//!
//! Every experiment runner can emit a [`RunReport`] next to its
//! human-readable table: a snapshot of the testbed's counters, the
//! per-layer latency histograms collected by [`simkit::Metrics`],
//! per-tag CPU busy time, and (when a sniffer was attached) per-channel
//! wire summaries. Reports serialize to a single JSON line via
//! [`RunReport::to_json`]; the serializer is hand-rolled (no external
//! dependencies) and emits integers only, so two runs with the same
//! seed produce byte-identical lines that can be diffed directly.

use crate::Testbed;
use simkit::intern::SymbolTable;
use simkit::{GaugeStats, Histogram};
use std::collections::BTreeMap;

/// Per-channel wire summary copied out of a [`net::Sniffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages captured.
    pub messages: u64,
    /// Payload bytes captured.
    pub bytes: simkit::units::Bytes,
    /// Messages lost to the capture bound.
    pub dropped: u64,
}

/// The machine-readable result of one experiment runner.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Runner name (`table2`, `figure6`, ...).
    pub name: String,
    /// Testbeds absorbed into this report.
    pub runs: u64,
    /// Virtual time summed over the absorbed testbeds, in ns.
    pub sim_time_ns: u64,
    /// Message/byte counters summed across runs, in name order.
    pub counters: BTreeMap<String, u64>,
    /// Per-layer latency histograms merged across runs.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-channel wire summaries from attached sniffers.
    pub channels: BTreeMap<String, ChannelStats>,
    /// CPU busy ns per `<machine>.<tag>` (e.g. `server.nfs.server`).
    pub cpu_busy_ns: BTreeMap<String, u64>,
    /// Critical-path attribution folded from traced spans (attribution
    /// mode only): `<op>.ops`, `<op>.total_ns`, `<op>.<bucket>_ns`.
    /// Counts and nanoseconds, never span IDs, so the map is additive
    /// and merge-order independent.
    pub attribution: BTreeMap<String, u64>,
    /// Virtual-clock gauge summaries from the testbeds' samplers.
    pub gauges: BTreeMap<String, GaugeStats>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_u64_map(out: &mut String, key: &str, map: &BTreeMap<String, u64>) {
    out.push_str(&format!("\"{key}\":{{"));
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
    }
    out.push('}');
}

impl RunReport {
    /// Folds `parts` — a sweep's per-cell fragments, or the reports of
    /// a runner's successive sweeps — into one report named `name`.
    /// Every section merges by an associative, commutative operation
    /// (see [`ReportBuilder::merge_report`]), so neither the order nor
    /// the grouping of the parts can change a byte.
    pub(crate) fn merged(name: &str, parts: &[RunReport]) -> RunReport {
        let mut rb = ReportBuilder::new(name);
        for part in parts {
            rb.merge_report(part);
        }
        rb.finish()
    }

    /// Serializes the report as one JSON line (no trailing newline).
    ///
    /// Schema: `{"report":name,"runs":n,"sim_time_ns":t,
    /// "counters":{name:value},
    /// "histograms":{name:{"count","p50","p90","p99","max","mean"}},
    /// "channels":{name:{"messages","bytes","dropped"}},
    /// "cpu_busy_ns":{tag:ns},"attribution":{key:value},
    /// "gauges":{name:{"samples","min","max","sum"}}}` — all values
    /// are integers (nanoseconds for times), so equal-seed runs
    /// serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"report\":\"{}\",\"runs\":{},\"sim_time_ns\":{},",
            json_escape(&self.name),
            self.runs,
            self.sim_time_ns
        ));
        push_u64_map(&mut out, "counters", &self.counters);
        out.push_str(",\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean\":{}}}",
                json_escape(k),
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max(),
                h.mean()
            ));
        }
        out.push_str("},\"channels\":{");
        for (i, (k, c)) in self.channels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"messages\":{},\"bytes\":{},\"dropped\":{}}}",
                json_escape(k),
                c.messages,
                c.bytes,
                c.dropped
            ));
        }
        out.push_str("},");
        push_u64_map(&mut out, "cpu_busy_ns", &self.cpu_busy_ns);
        out.push(',');
        push_u64_map(&mut out, "attribution", &self.attribution);
        out.push_str(",\"gauges\":{");
        for (i, (k, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"samples\":{},\"min\":{},\"max\":{},\"sum\":{}}}",
                json_escape(k),
                g.samples,
                g.min,
                g.max,
                g.sum
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Accumulates testbed observability state into a [`RunReport`].
///
/// Runners that build a fresh [`Testbed`] per measurement call
/// [`absorb`](ReportBuilder::absorb) on each before dropping it;
/// histograms merge deterministically (see [`Histogram::merge`]), so
/// the final report is independent of nothing but the workload.
#[derive(Debug, Default)]
pub struct ReportBuilder {
    report: RunReport,
    /// Counter names interned once per builder; absorbing or merging
    /// folds values into dense slots (no per-row string allocation on
    /// the hot path) and [`finish`](Self::finish) materializes the
    /// sorted name map exactly as the direct fold produced it.
    counter_ids: SymbolTable,
    counter_slots: Vec<u64>,
}

impl ReportBuilder {
    /// Starts an empty report named after its runner.
    pub fn new(name: impl Into<String>) -> ReportBuilder {
        ReportBuilder {
            report: RunReport {
                name: name.into(),
                ..RunReport::default()
            },
            counter_ids: SymbolTable::new(),
            counter_slots: Vec::new(),
        }
    }

    /// Adds `v` to the builder's slot for counter `name`.
    fn fold_counter(&mut self, name: &str, v: u64) {
        let id = self.counter_ids.intern(name);
        if self.counter_slots.len() <= id.index() {
            self.counter_slots.resize(id.index() + 1, 0);
        }
        self.counter_slots[id.index()] += v;
    }

    /// Folds one testbed's counters, latency histograms, and CPU
    /// attribution into the report.
    ///
    /// A single-client testbed files CPU time under `client.<tag>` and
    /// `server.<tag>`, exactly as it always has. A multi-client
    /// topology keeps the `server.<tag>` keys (there is still one
    /// server) and splits the client side per host:
    /// `client.c<i>.<tag>`. A *sharded* topology (multiple servers)
    /// splits the server side per shard instead: `server.s<j>.<tag>`.
    pub fn absorb(&mut self, tb: &Testbed) {
        let mut fold = std::mem::take(&mut self.counter_slots);
        let ids = &self.counter_ids;
        tb.sim().counters().for_each(|name, v| {
            let id = ids.intern(name);
            if fold.len() <= id.index() {
                fold.resize(id.index() + 1, 0);
            }
            fold[id.index()] += v;
        });
        self.counter_slots = fold;
        let r = &mut self.report;
        r.runs += 1;
        r.sim_time_ns += tb.now().as_nanos();
        for (name, h) in tb.sim().metrics().snapshot() {
            r.histograms.entry(name).or_default().merge(&h);
        }
        // Attribution-mode spans fold into flat counts/nanoseconds; the
        // buffer is left intact so callers can still dump or export it.
        for (key, v) in simkit::critpath::analyze(tb.sim().tracer()) {
            *r.attribution.entry(key).or_insert(0) += v;
        }
        for (name, g) in tb.gauges().stats() {
            r.gauges.entry(name).or_default().merge(&g);
        }
        if tb.client_count() > 1 {
            for i in 0..tb.client_count() {
                let host = tb.host_name(i);
                for (tag, busy) in tb.client_cpu_at(i).busy_by_tag() {
                    *r.cpu_busy_ns
                        .entry(format!("client.{host}.{tag}"))
                        .or_insert(0) += busy.as_nanos();
                }
            }
            if tb.server_count() > 1 {
                for j in 0..tb.server_count() {
                    for (tag, busy) in tb.server_cpu_at(j).busy_by_tag() {
                        *r.cpu_busy_ns
                            .entry(format!("server.s{j}.{tag}"))
                            .or_insert(0) += busy.as_nanos();
                    }
                }
            } else {
                for (tag, busy) in tb.server_cpu().busy_by_tag() {
                    *r.cpu_busy_ns.entry(format!("server.{tag}")).or_insert(0) += busy.as_nanos();
                }
            }
        } else {
            for (machine, cpu) in [("client", tb.client_cpu()), ("server", tb.server_cpu())] {
                for (tag, busy) in cpu.busy_by_tag() {
                    *r.cpu_busy_ns.entry(format!("{machine}.{tag}")).or_insert(0) +=
                        busy.as_nanos();
                }
            }
        }
    }

    /// Folds another report (typically a per-cell fragment produced by
    /// a parallel sweep worker) into this one.
    ///
    /// Counters and CPU tags add, histograms merge bucket-wise, and
    /// channel summaries add — all operations for which merge order
    /// cannot change any reported value, which is what lets the sweep
    /// driver fold fragments in cell-index order and produce output
    /// byte-identical to a sequential run.
    ///
    /// Counters fold by interned id: each distinct name is interned
    /// (and its `String` allocated) once per builder, and every later
    /// fragment adds into a dense slot — merging J fragments of C
    /// counters costs O(J·C) hash lookups but only O(C) allocations,
    /// where the old name-keyed fold cloned every key of every
    /// fragment.
    pub fn merge_report(&mut self, frag: &RunReport) {
        for (name, v) in &frag.counters {
            self.fold_counter(name, *v);
        }
        let r = &mut self.report;
        r.runs += frag.runs;
        r.sim_time_ns += frag.sim_time_ns;
        for (name, h) in &frag.histograms {
            r.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (chan, s) in &frag.channels {
            let e = r.channels.entry(chan.clone()).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
            e.dropped += s.dropped;
        }
        for (tag, busy) in &frag.cpu_busy_ns {
            *r.cpu_busy_ns.entry(tag.clone()).or_insert(0) += busy;
        }
        for (key, v) in &frag.attribution {
            *r.attribution.entry(key.clone()).or_insert(0) += v;
        }
        for (name, g) in &frag.gauges {
            r.gauges.entry(name.clone()).or_default().merge(g);
        }
    }

    /// Folds a sniffer's per-channel capture summary into the report.
    pub fn absorb_sniffer(&mut self, sniffer: &net::Sniffer) {
        for (chan, s) in sniffer.summary() {
            let e = self.report.channels.entry(chan).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
            e.dropped += s.dropped;
        }
    }

    /// The finished report, with the id-folded counters materialized
    /// into the sorted name map.
    pub fn finish(self) -> RunReport {
        let mut report = self.report;
        let slots = &self.counter_slots;
        self.counter_ids.for_each(|id, name| {
            *report.counters.entry(name.to_string()).or_insert(0) += slots[id.index()];
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

    fn small_workload(name: &str) -> RunReport {
        let tb = Testbed::with_protocol(Protocol::NfsV3);
        let sniffer = tb.attach_sniffer();
        tb.fs().mkdir("/a").unwrap();
        tb.fs().creat("/a/f").unwrap();
        tb.settle();
        let mut rb = ReportBuilder::new(name);
        rb.absorb(&tb);
        rb.absorb_sniffer(&sniffer);
        rb.finish()
    }

    #[test]
    fn report_captures_all_sections() {
        let r = small_workload("smoke");
        assert_eq!(r.runs, 1);
        assert!(r.sim_time_ns > 0);
        assert!(r.counters.values().any(|&v| v > 0));
        assert!(
            r.histograms.keys().any(|k| k.starts_with("rpc.")),
            "per-RPC latency histograms present: {:?}",
            r.histograms.keys().collect::<Vec<_>>()
        );
        assert!(r.channels.contains_key("nfs"));
        assert!(r.cpu_busy_ns.keys().any(|k| k.starts_with("server.")));
    }

    #[test]
    fn same_seed_reports_are_byte_identical() {
        let a = small_workload("det").to_json();
        let b = small_workload("det").to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn merging_fragments_equals_direct_absorption() {
        // Two testbeds absorbed into one builder...
        let mut direct = ReportBuilder::new("m");
        for _ in 0..2 {
            let tb = Testbed::with_protocol(Protocol::NfsV3);
            tb.fs().mkdir("/a").unwrap();
            tb.settle();
            direct.absorb(&tb);
        }
        // ...must equal two per-cell fragments merged afterwards.
        let fragments: Vec<RunReport> = (0..2)
            .map(|_| {
                let tb = Testbed::with_protocol(Protocol::NfsV3);
                tb.fs().mkdir("/a").unwrap();
                tb.settle();
                let mut frag = ReportBuilder::new("");
                frag.absorb(&tb);
                frag.finish()
            })
            .collect();
        let merged = RunReport::merged("m", &fragments);
        assert_eq!(direct.finish().to_json(), merged.to_json());
        // ...however the fragments are grouped on the way.
        let halves = [
            RunReport::merged("", &fragments[..1]),
            RunReport::merged("", &fragments[1..]),
        ];
        assert_eq!(RunReport::merged("m", &halves).to_json(), merged.to_json());
    }

    #[test]
    fn json_line_is_wellformed() {
        let r = small_workload("json");
        let j = r.to_json();
        assert!(j.starts_with("{\"report\":\"json\""));
        assert!(j.ends_with('}'));
        assert!(!j.contains('\n'));
        // Crude structural check: braces balance.
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
        assert!(j.contains("\"histograms\":{"));
        assert!(j.contains("\"p99\":"));
        assert!(j.contains("\"attribution\":{"));
        assert!(j.contains("\"gauges\":{"));
    }

    #[test]
    fn escaping_handles_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
