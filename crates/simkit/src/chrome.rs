//! Chrome `trace_event` (Perfetto-loadable) JSON export of a
//! [`Tracer`] buffer.
//!
//! Layout: one *process* per simulated host (`server`, `c0`, `c1`, …)
//! and one *thread* per layer within that host, so Perfetto renders a
//! track per host/layer pair. Every span becomes a `ph:"X"` complete
//! event with microsecond `ts`/`dur`; trace/span/parent IDs and the
//! recorded attributes ride along in `args`, so the causal links are
//! inspectable even though the visual nesting comes from track
//! ordering. `ph:"M"` metadata events name the tracks.
//!
//! The document is a [`Json`] value written by its one writer, and a
//! pure function of the buffered spans: equal traces serialize
//! identically.

use crate::trace::{SpanRecord, Tracer};
use crate::{json, Json};
use std::collections::{BTreeMap, BTreeSet};

/// Microseconds with nanosecond remainder as fraction, e.g. `12.345`.
fn micros(ns: u64) -> Json {
    Json::Num(format!("{}.{:03}", ns / 1_000, ns % 1_000))
}

/// A `ph:"M"` metadata event naming process `pid` (`tid` 0) or one of
/// its threads.
fn name_event(kind: &str, pid: u64, tid: u64, name: &str) -> Json {
    json!({ "ph": "M", "name": kind, "pid": pid, "tid": tid, "args": { "name": name } })
}

/// Serializes the buffered spans as a Chrome `trace_event` JSON
/// document (`{"traceEvents":[...]}`).
pub fn export(tracer: &Tracer) -> String {
    // Assign pids per host and tids per (host, layer), both in
    // deterministic first-seen-in-sorted-order: collect the key sets
    // first so the numbering doesn't depend on recording interleaving.
    let mut hosts: BTreeMap<u16, BTreeSet<&'static str>> = BTreeMap::new();
    tracer.for_each_span(|s| {
        hosts.entry(s.host.0).or_default().insert(s.layer);
    });
    let mut pid_of: BTreeMap<u16, u64> = BTreeMap::new();
    let mut tid_of: BTreeMap<(u16, &'static str), u64> = BTreeMap::new();
    let mut events = Vec::new();
    for (pid_n, (host, layers)) in hosts.iter().enumerate() {
        let pid = pid_n as u64 + 1;
        pid_of.insert(*host, pid);
        let hname = crate::trace::HostId(*host).to_string();
        events.push(name_event("process_name", pid, 0, &hname));
        for (tid_n, layer) in layers.iter().enumerate() {
            let tid = tid_n as u64 + 1;
            tid_of.insert((*host, layer), tid);
            events.push(name_event("thread_name", pid, tid, layer));
        }
    }
    tracer.for_each_span(|s| events.push(span_event(s, &pid_of, &tid_of)));
    json!({ "traceEvents": Json::Arr(events) }).to_string()
}

fn span_event(
    s: &SpanRecord,
    pid_of: &BTreeMap<u16, u64>,
    tid_of: &BTreeMap<(u16, &'static str), u64>,
) -> Json {
    let hex = |key: &str, n: u64| (key.to_string(), Json::Str(format!("{n:x}")));
    let mut args = vec![hex("trace", s.trace.0), hex("span", s.span.0)];
    args.extend(s.parent.map(|p| hex("parent", p.0)));
    args.extend(
        s.attrs
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.clone()))),
    );
    json!({
        "ph": "X",
        "name": s.op.as_str(),
        "cat": s.layer,
        "pid": pid_of[&s.host.0],
        "tid": tid_of[&(s.host.0, s.layer)],
        "ts": micros(s.start.as_nanos()),
        "dur": micros(s.end.saturating_since(s.start).as_nanos()),
        "args": Json::Obj(args),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimDuration, SimTime};
    use crate::trace::HostId;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn balanced(s: &str) -> bool {
        // Rough JSON shape check: brackets/braces balance outside
        // string literals.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                match (esc, c) {
                    (true, _) => esc = false,
                    (false, '\\') => esc = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                if depth < 0 {
                    return false;
                }
            }
        }
        depth == 0 && !in_str
    }

    #[test]
    fn export_emits_tracks_and_nested_events() {
        let tr = Tracer::new();
        tr.set_seed(3);
        tr.set_enabled(true);
        let root = tr.open_span(Some(HostId::client(0)));
        tr.record_at(HostId::SERVER, "disk", "read", t(1), t(2), vec![]);
        tr.close_span(
            root,
            "vfs",
            "nfs.read",
            t(0),
            t(3),
            vec![("bytes", "4096".into())],
        );
        let j = export(&tr);
        assert!(balanced(&j), "{j}");
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
        // Two hosts -> two process_name metadata events.
        assert!(j.contains("\"name\":\"server\""), "{j}");
        assert!(j.contains("\"name\":\"c0\""), "{j}");
        // Layer tracks.
        assert!(j.contains("\"name\":\"disk\""), "{j}");
        assert!(j.contains("\"name\":\"vfs\""), "{j}");
        // Complete events with microsecond timestamps and parent link.
        assert!(j.contains("\"ph\":\"X\",\"name\":\"nfs.read\""), "{j}");
        assert!(j.contains("\"ts\":1.000,\"dur\":1.000"), "{j}");
        assert!(j.contains("\"parent\":"), "{j}");
        assert!(j.contains("\"bytes\":\"4096\""), "{j}");
    }

    #[test]
    fn export_escapes_op_names_and_attribute_values() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let odd = "a\"b\\c\nd\u{1}";
        tr.record_at(
            HostId::SERVER,
            "disk",
            odd,
            t(0),
            t(1),
            vec![("path", odd.into())],
        );
        let j = export(&tr);
        assert!(balanced(&j), "{j}");
        let escaped = r#"a\"b\\c\nd\u0001"#;
        assert!(j.contains(&format!("\"name\":\"{escaped}\"")), "{j}");
        assert!(j.contains(&format!("\"path\":\"{escaped}\"")), "{j}");
        assert!(!j.contains('\n') && !j.contains('\u{1}'), "{j}");
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            let tr = Tracer::new();
            tr.set_seed(9);
            tr.set_enabled(true);
            let root = tr.open_span(Some(HostId::client(1)));
            tr.record("net", "wire", t(0), t(1), vec![]);
            tr.close_span(root, "vfs", "iscsi.write", t(0), t(2), vec![]);
            export(&tr)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn empty_trace_exports_empty_event_list() {
        let tr = Tracer::new();
        assert_eq!(export(&tr), "{\"traceEvents\":[]}");
    }
}
