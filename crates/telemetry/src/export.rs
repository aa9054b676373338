//! Exporters: JSON metrics snapshot, Prometheus text exposition, and
//! Chrome trace-event span dumps (single-host and cluster-joined).
//!
//! All are hand-rolled (the workspace has no serde): the JSON emitted
//! is deliberately simple — objects, arrays, integers, and floats with
//! fixed formatting — and is validated against a tiny recursive
//! checker in the tests.

use std::fmt::Write as _;

use crate::{
    HistogramSnapshot, MetricsSnapshot, MigrationSpanRecord, SpanRecord, MIGRATION_STAGE_LABELS,
};

impl MetricsSnapshot {
    /// Serialize the snapshot as a single JSON object. Every number in
    /// the document comes from the same coherent read; histograms nest
    /// as `{count, sum, mean, p50, p90, p99, p999, max}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        let _ = write!(
            out,
            "  \"requests\": {{\"begun\": {}, \"finished\": {}, \"in_flight\": {}, \
             \"allowed\": {}, \"denied\": {}, \"no_instance\": {}, \"malformed\": {}}},\n",
            self.begun, self.finished, self.in_flight, self.allowed, self.denied, self.no_instance, self.malformed
        );
        let _ = write!(
            out,
            "  \"events\": {{\"dropped\": {}}},\n  \"ring\": {{\"exchanges\": {}, \"rx_bytes\": {}, \"tx_bytes\": {}}},\n",
            self.dropped_events, self.ring_exchanges, self.ring_rx_bytes, self.ring_tx_bytes
        );
        out.push_str("  \"deny_reasons\": {");
        for (i, (label, count)) in self.deny_reasons.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{label}\": {count}");
        }
        out.push_str("},\n  \"latency_ns\": {\n");
        let stages: [(&str, &HistogramSnapshot); 5] = [
            ("ingress", &self.stage_ingress),
            ("ac_hook", &self.stage_ac),
            ("execute", &self.stage_exec),
            ("mirror", &self.stage_mirror),
            ("total", &self.total),
        ];
        for (i, (name, h)) in stages.iter().enumerate() {
            let _ = write!(out, "    \"{name}\": {}", hist_json(h));
            out.push_str(if i + 1 < stages.len() { ",\n" } else { "\n" });
        }
        let _ = write!(out, "  }},\n  \"mirror_bytes_per_cmd\": {}", hist_json(&self.mirror_bytes));
        if !self.aux.is_empty() {
            out.push_str(",\n  \"aux\": {");
            for (i, (label, value)) in self.aux.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{label}\": {value}");
            }
            out.push('}');
        }
        out.push_str("\n}\n");
        out
    }
}

impl MetricsSnapshot {
    /// Serialize the snapshot in the Prometheus text exposition format
    /// (`# TYPE` headers, `name{labels} value` samples), scrape-ready
    /// next to the JSON and Chrome exporters. Histograms render as
    /// summaries (`quantile` labels plus `_sum`/`_count`); auxiliary
    /// gauges surface as `vtpm_aux{name="…"}`.
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# TYPE vtpm_requests_total counter\n");
        let _ = writeln!(out, "vtpm_requests_total{{state=\"begun\"}} {}", self.begun);
        let _ = writeln!(out, "vtpm_requests_total{{state=\"finished\"}} {}", self.finished);
        out.push_str("# TYPE vtpm_requests_in_flight gauge\n");
        let _ = writeln!(out, "vtpm_requests_in_flight {}", self.in_flight);
        out.push_str("# TYPE vtpm_request_outcomes_total counter\n");
        for (label, v) in [
            ("allowed", self.allowed),
            ("denied", self.denied),
            ("no_instance", self.no_instance),
            ("malformed", self.malformed),
        ] {
            let _ = writeln!(out, "vtpm_request_outcomes_total{{outcome=\"{label}\"}} {v}");
        }
        out.push_str("# TYPE vtpm_deny_reasons_total counter\n");
        for (label, v) in &self.deny_reasons {
            let _ = writeln!(out, "vtpm_deny_reasons_total{{reason=\"{label}\"}} {v}");
        }
        out.push_str("# TYPE vtpm_span_events_dropped_total counter\n");
        let _ = writeln!(out, "vtpm_span_events_dropped_total {}", self.dropped_events);
        out.push_str("# TYPE vtpm_ring_exchanges_total counter\n");
        let _ = writeln!(out, "vtpm_ring_exchanges_total {}", self.ring_exchanges);
        out.push_str("# TYPE vtpm_ring_bytes_total counter\n");
        let _ = writeln!(out, "vtpm_ring_bytes_total{{direction=\"rx\"}} {}", self.ring_rx_bytes);
        let _ = writeln!(out, "vtpm_ring_bytes_total{{direction=\"tx\"}} {}", self.ring_tx_bytes);
        out.push_str("# TYPE vtpm_stage_latency_ns summary\n");
        for (stage, h) in [
            ("ingress", &self.stage_ingress),
            ("ac_hook", &self.stage_ac),
            ("execute", &self.stage_exec),
            ("mirror", &self.stage_mirror),
            ("total", &self.total),
        ] {
            prom_summary(&mut out, "vtpm_stage_latency_ns", &format!("stage=\"{stage}\""), h);
        }
        out.push_str("# TYPE vtpm_mirror_bytes_per_cmd summary\n");
        prom_summary(&mut out, "vtpm_mirror_bytes_per_cmd", "", &self.mirror_bytes);
        if !self.aux.is_empty() {
            out.push_str("# TYPE vtpm_aux gauge\n");
            for (name, v) in &self.aux {
                let _ = writeln!(out, "vtpm_aux{{name=\"{name}\"}} {v}");
            }
        }
        out
    }
}

/// Append one histogram as a Prometheus summary (`quantile` samples
/// plus `_sum`/`_count`) under `metric{labels}`. This is the single
/// shared encoder behind [`MetricsSnapshot::prometheus`], the
/// observatory's fleet-wide text endpoint, and the quickstart example —
/// anything rendering a histogram to exposition text goes through here
/// so the formats cannot drift apart.
pub fn prom_summary(out: &mut String, metric: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99), ("0.999", h.p999)] {
        let _ = writeln!(out, "{metric}{{{labels}{sep}quantile=\"{q}\"}} {v}");
    }
    let braces = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
    let _ = writeln!(out, "{metric}_sum{braces} {}", h.sum);
    let _ = writeln!(out, "{metric}_count{braces} {}", h.count);
}

/// Render one histogram as the canonical JSON object
/// `{count, sum, mean, p50, p90, p99, p999, max}` — the single shared
/// encoder behind [`MetricsSnapshot::to_json`] and the observatory's
/// JSON endpoint (same drift-proofing as [`prom_summary`]).
pub fn hist_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
        h.count, h.sum, h.mean, h.p50, h.p90, h.p99, h.p999, h.max
    )
}

/// Quote `s` as a JSON string: quotes, backslashes, `\n` and `\t`
/// get their short escapes, other control characters `\u00XX` — the
/// single shared string encoder behind the chaos reports and the
/// `repro --json` artifacts.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render drained spans as a Chrome trace-event document (JSON object
/// with a `traceEvents` array of `ph: "X"` complete events), loadable
/// in `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Each request renders as up to five nested events on track
/// `pid = 1, tid = domain`: one `request` spanning end-to-end, plus one
/// per stage that ran. Timestamps are microseconds (fractional) from
/// the span's monotonic clock; `args` carry the request id, ordinal,
/// and outcome so the trace is joinable back to the audit log.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(256 + spans.len() * 512);
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
    for s in spans {
        span_events(&mut out, &mut first, 1, s);
    }
    out.push_str("\n]}\n");
    out
}

/// Emit the up-to-five trace events of one request span on `pid`.
fn span_events(out: &mut String, first: &mut bool, pid: u32, s: &SpanRecord) {
    let stages: [(&str, u64, u64); 5] = [
        ("request", s.ingress_ns, s.total_ns()),
        ("ingress", s.ingress_ns, s.ingress_stage_ns()),
        ("ac_hook", s.decode_ns, s.ac_stage_ns()),
        ("execute", s.ac_ns, s.exec_stage_ns()),
        ("mirror", s.exec_ns, s.mirror_stage_ns()),
    ];
    for (name, start_ns, dur_ns) in stages {
        if name != "request" && dur_ns == 0 {
            continue; // stage never ran
        }
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        let _ = write!(
            out,
            "  {{\"name\": \"{name}\", \"cat\": \"vtpm\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": {pid}, \"tid\": {}, \"args\": {{\"request_id\": {}, \"ordinal\": {}, \"outcome\": \"{}\"}}}}",
            start_ns as f64 / 1000.0,
            dur_ns as f64 / 1000.0,
            s.domain,
            s.request_id,
            s.ordinal,
            s.outcome.label()
        );
    }
}

/// Render a *cluster-joined* Chrome trace: every host's request spans
/// plus every migration attempt, stitched into one causal document.
///
/// Track layout: each host renders as a process (`pid = host + 1`,
/// named via process-name metadata); request spans keep their
/// per-domain `tid`, migration events share `tid = 0` (the "migration"
/// track). Each migration attempt lays its stage durations out
/// cumulatively from [`MigrationSpanRecord::start_ns`], with
/// source-driven stages (prepare, quiesce, transfer, release) on the
/// source process and destination-driven stages (verify, commit) on
/// the destination, all carrying the attempt's `trace_id` in `args` —
/// the same value both hosts' audit hash-chains recorded as
/// `request_id`, so the trace joins against the logs and against
/// per-request spans in one key space.
pub fn cluster_chrome_trace(
    host_spans: &[(u32, Vec<SpanRecord>)],
    migrations: &[MigrationSpanRecord],
) -> String {
    let mut out = String::with_capacity(1024 + migrations.len() * 1024);
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
    for (host, _) in host_spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"args\": {{\"name\": \"host-{host}\"}}}}",
            host + 1
        );
    }
    for (host, spans) in host_spans {
        for s in spans {
            span_events(&mut out, &mut first, host + 1, s);
        }
    }
    for m in migrations {
        // Which side of the handoff drives each stage.
        let owners = [m.src_host, m.src_host, m.src_host, m.dst_host, m.dst_host, m.src_host];
        let mut events: Vec<(&str, u32, u64, u64)> = Vec::with_capacity(8);
        events.push(("migration", m.src_host, m.start_ns, m.total_ns));
        if m.src_host != m.dst_host {
            events.push(("migration", m.dst_host, m.start_ns, m.total_ns));
        }
        let mut at = m.start_ns;
        for (i, &label) in MIGRATION_STAGE_LABELS.iter().enumerate() {
            if m.stage_ns[i] > 0 {
                events.push((label, owners[i], at, m.stage_ns[i]));
            }
            at += m.stage_ns[i];
        }
        for (name, host, start_ns, dur_ns) in events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"name\": \"{name}\", \"cat\": \"migration\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": {}, \"tid\": 0, \"args\": {{\"trace_id\": {}, \"request_id\": {}, \"vm\": {}, \
                 \"epoch\": {}, \"sealed\": {}, \"outcome\": \"{}\"}}}}",
                start_ns as f64 / 1000.0,
                dur_ns as f64 / 1000.0,
                host + 1,
                m.trace_id,
                m.request_id,
                m.vm,
                m.epoch,
                m.sealed,
                m.outcome.label()
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, Telemetry};

    /// Minimal JSON well-formedness checker: consumes one value,
    /// returns the rest of the input. Panics on malformed input.
    fn check_value(s: &str) -> &str {
        let s = s.trim_start();
        let mut chars = s.char_indices();
        match chars.next().map(|(_, c)| c) {
            Some('{') => {
                let mut rest = s[1..].trim_start();
                if let Some(stripped) = rest.strip_prefix('}') {
                    return stripped;
                }
                loop {
                    rest = rest.trim_start();
                    assert!(rest.starts_with('"'), "expected key at: {rest:.40}");
                    let close = rest[1..].find('"').expect("unterminated key") + 1;
                    rest = rest[close + 1..].trim_start();
                    rest = rest.strip_prefix(':').expect("expected ':'");
                    rest = check_value(rest).trim_start();
                    if let Some(stripped) = rest.strip_prefix(',') {
                        rest = stripped;
                    } else {
                        return rest.strip_prefix('}').expect("expected '}'");
                    }
                }
            }
            Some('[') => {
                let mut rest = s[1..].trim_start();
                if let Some(stripped) = rest.strip_prefix(']') {
                    return stripped;
                }
                loop {
                    rest = check_value(rest).trim_start();
                    if let Some(stripped) = rest.strip_prefix(',') {
                        rest = stripped;
                    } else {
                        return rest.strip_prefix(']').expect("expected ']'");
                    }
                }
            }
            Some('"') => {
                let close = s[1..].find('"').expect("unterminated string") + 1;
                &s[close + 1..]
            }
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let end = s
                    .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'))
                    .unwrap_or(s.len());
                &s[end..]
            }
            Some(_) => {
                for lit in ["true", "false", "null"] {
                    if let Some(stripped) = s.strip_prefix(lit) {
                        return stripped;
                    }
                }
                panic!("unexpected JSON at: {s:.40}");
            }
            None => panic!("empty JSON"),
        }
    }

    fn assert_valid_json(doc: &str) {
        let rest = check_value(doc);
        assert!(rest.trim().is_empty(), "trailing garbage: {rest:.40}");
    }

    fn populated() -> Telemetry {
        let t = Telemetry::new();
        for i in 0..20u64 {
            let mut s = t.begin(i * 1_000);
            s.set_domain(2 + (i % 3) as u32);
            s.set_ordinal(0x17);
            s.stamp_decode(i * 1_000 + 50);
            s.stamp_ac(i * 1_000 + 80);
            if i % 5 == 0 {
                s.set_outcome(Outcome::Denied(2));
            } else {
                s.stamp_exec(i * 1_000 + 300);
                s.stamp_mirror(i * 1_000 + 350);
                s.set_mirror_bytes(8192);
                s.set_outcome(Outcome::Ok);
            }
            t.finish(s, i * 1_000 + 360);
        }
        t.note_ring_exchange(64, 32);
        t
    }

    #[test]
    fn string_encoder_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_str("plain"), r#""plain""#);
        assert_eq!(json_str("a\"b"), r#""a\"b""#);
        assert_eq!(json_str("a\\b"), r#""a\\b""#);
        assert_eq!(json_str("a\nb\tc"), r#""a\nb\tc""#);
        assert_eq!(json_str("\u{1}"), r#""\u0001""#);
    }

    #[test]
    fn snapshot_json_is_wellformed_and_complete() {
        let t = populated();
        let json = t.snapshot_with_aux(&[("scrub_failures", 1)]).to_json();
        assert_valid_json(&json);
        for key in [
            "\"requests\"",
            "\"begun\": 20",
            "\"allowed\": 16",
            "\"denied\": 4",
            "\"deny_reasons\"",
            "\"replay\": 4",
            "\"latency_ns\"",
            "\"ingress\"",
            "\"ac_hook\"",
            "\"execute\"",
            "\"mirror\"",
            "\"total\"",
            "\"mirror_bytes_per_cmd\"",
            "\"rx_bytes\": 64",
            "\"scrub_failures\": 1",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_and_joinable() {
        let t = populated();
        let spans = t.drain_spans();
        let trace = chrome_trace(&spans);
        assert_valid_json(&trace);
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"name\": \"request\""));
        assert!(trace.contains("\"name\": \"execute\""));
        // Denied spans have no execute/mirror stage events.
        let denied_events = trace.matches("\"outcome\": \"denied\"").count();
        assert_eq!(denied_events, 4 * 3); // request + ingress + ac_hook
        // Every request id appears.
        for id in 1..=20 {
            assert!(trace.contains(&format!("\"request_id\": {id},")) || trace.contains(&format!("\"request_id\": {id}}}")),
                "request {id} missing from trace");
        }
    }

    #[test]
    fn empty_exports_are_valid() {
        let t = Telemetry::new();
        assert_valid_json(&t.snapshot().to_json());
        assert_valid_json(&chrome_trace(&[]));
        assert_valid_json(&cluster_chrome_trace(&[], &[]));
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let t = populated();
        let text = t.snapshot_with_aux(&[("scrub_failures", 1)]).prometheus();
        // Every line is a comment or `name{labels} value` with a
        // numeric value.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample: {line}");
            let opens = name.matches('{').count();
            assert_eq!(opens, name.matches('}').count(), "unbalanced braces: {line}");
            assert!(opens <= 1);
        }
        for needle in [
            "vtpm_requests_total{state=\"finished\"} 20",
            "vtpm_request_outcomes_total{outcome=\"allowed\"} 16",
            "vtpm_deny_reasons_total{reason=\"replay\"} 4",
            "vtpm_deny_reasons_total{reason=\"rejected-stale\"} 0",
            "vtpm_stage_latency_ns{stage=\"execute\",quantile=\"0.99\"}",
            "vtpm_stage_latency_ns_count{stage=\"total\"} 20",
            "vtpm_mirror_bytes_per_cmd{quantile=\"0.5\"}",
            "vtpm_aux{name=\"scrub_failures\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn cluster_trace_stitches_hosts_and_migrations() {
        use crate::{migration_trace_id, MigrationOutcome};
        let a = populated();
        let b = populated();
        let trace_id = migration_trace_id(7, 3);
        let mig = MigrationSpanRecord {
            trace_id,
            request_id: trace_id,
            vm: 7,
            epoch: 3,
            src_host: 0,
            dst_host: 1,
            sealed: true,
            state_bytes: 9000,
            package_bytes: 9200,
            start_ns: 5_000,
            stage_ns: [100, 50, 4000, 6000, 200, 150],
            downtime_ns: 6_250,
            total_ns: 10_500,
            outcome: MigrationOutcome::Committed,
        };
        let doc = cluster_chrome_trace(
            &[(0, a.drain_spans()), (1, b.drain_spans())],
            std::slice::from_ref(&mig),
        );
        assert_valid_json(&doc);
        // Both hosts are named processes with request spans.
        assert!(doc.contains("\"name\": \"host-0\""));
        assert!(doc.contains("\"name\": \"host-1\""));
        assert!(doc.contains("\"pid\": 1, \"tid\": 2"));
        assert!(doc.contains("\"pid\": 2, \"tid\": 2"));
        // The migration umbrella appears on both ends, every stage
        // carries the trace id, and the stages split across hosts:
        // verify/commit on the destination, the rest on the source.
        assert_eq!(doc.matches("\"name\": \"migration\"").count(), 2);
        assert_eq!(doc.matches(&format!("\"trace_id\": {trace_id}")).count(), 8);
        assert!(doc.contains("\"name\": \"verify\", \"cat\": \"migration\", \"ph\": \"X\", \"ts\": 9.150"));
        assert!(doc.contains("\"name\": \"release\""));
    }
}
