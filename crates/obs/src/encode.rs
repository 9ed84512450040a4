//! Snapshot encoders: Prometheus text exposition format and JSON.
//!
//! Both encoders are pure functions over a [`Snapshot`] — they never
//! touch live metrics, so a scrape's cost is bounded by the snapshot
//! size. The Prometheus encoder follows the text exposition format:
//! one `# TYPE` line per metric name, label values escaped
//! (`\` → `\\`, `"` → `\"`, newline → `\n`), histograms emitted as
//! cumulative `_bucket{le="…"}` series ending in `le="+Inf"` plus
//! `_sum` and `_count`.

use crate::metrics::bucket_bounds;
use crate::snapshot::{Sample, Snapshot, Value};
use std::fmt::Write as _;

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_label`]. `None` if `value` holds a dangling or
/// unknown escape, or a raw newline/quote that [`escape_label`] could
/// never have produced.
pub fn unescape_label(value: &str) -> Option<String> {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                _ => return None,
            },
            '"' | '\n' => return None,
            c => out.push(c),
        }
    }
    Some(out)
}

/// Formats a float the way Prometheus expects (`+Inf`, `-Inf`, `NaN`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders `{k="v",…}` (empty string when there are no labels), with
/// `extra` appended last when present.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

fn type_line(out: &mut String, seen: &mut Vec<String>, name: &str, kind: &str) {
    if seen.iter().any(|s| s == name) {
        return;
    }
    seen.push(name.to_string());
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Encodes a snapshot in the Prometheus text exposition format.
pub fn encode_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut seen = Vec::new();
    for s in snap.samples() {
        match &s.value {
            Value::Counter(v) => {
                type_line(&mut out, &mut seen, &s.name, "counter");
                let _ = writeln!(out, "{}{} {v}", s.name, label_block(&s.labels, None));
            }
            Value::Gauge(v) => {
                type_line(&mut out, &mut seen, &s.name, "gauge");
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    fmt_f64(*v)
                );
            }
            Value::Histogram(h) => {
                type_line(&mut out, &mut seen, &s.name, "histogram");
                // Cumulative buckets; empty leading/trailing runs are
                // skipped (legal: `le` just has to increase), +Inf is
                // always emitted.
                let mut cum = 0u64;
                for (i, &b) in h.buckets.iter().enumerate() {
                    cum += b;
                    if b == 0 {
                        continue;
                    }
                    let (_, high) = bucket_bounds(i);
                    let le = if i + 1 == h.buckets.len() {
                        "+Inf".to_string()
                    } else {
                        format!("{high}")
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cum}",
                        s.name,
                        label_block(&s.labels, Some(("le", &le)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cum}",
                    s.name,
                    label_block(&s.labels, Some(("le", "+Inf")))
                );
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    h.sum
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    h.count
                );
            }
        }
    }
    out
}

/// Escapes a string for a JSON literal (quotes, backslashes, control
/// characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    // JSON has no Inf/NaN literals; encode them as strings.
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{}\"", fmt_f64(v))
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

fn json_sample(s: &Sample) -> String {
    let head = format!(
        "{{\"name\":\"{}\",\"labels\":{},",
        json_escape(&s.name),
        json_labels(&s.labels)
    );
    match &s.value {
        Value::Counter(v) => format!("{head}\"type\":\"counter\",\"value\":{v}}}"),
        Value::Gauge(v) => format!("{head}\"type\":\"gauge\",\"value\":{}}}", json_f64(*v)),
        Value::Histogram(h) => {
            let mut buckets = String::from("[");
            let mut first = true;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                if !first {
                    buckets.push(',');
                }
                first = false;
                let (_, high) = bucket_bounds(i);
                let le = if i + 1 == h.buckets.len() {
                    "\"+Inf\"".to_string()
                } else {
                    format!("{high}")
                };
                let _ = write!(buckets, "[{le},{b}]");
            }
            buckets.push(']');
            format!(
                "{head}\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":{buckets}}}",
                h.count, h.sum
            )
        }
    }
}

/// Encodes a snapshot as a JSON document:
/// `{"samples":[{"name":…,"labels":…,"type":…,…}, …]}`. Histogram
/// buckets are `[upper_bound, raw_count]` pairs (not cumulative),
/// empty buckets omitted.
pub fn encode_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"samples\":[");
    for (i, s) in snap.samples().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_sample(s));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::HistogramSnapshot;

    #[test]
    fn counter_and_gauge_lines() {
        let mut snap = Snapshot::new();
        snap.counter("cws_events_total", &[("stage", "fleet")], 42);
        snap.gauge("cws_queue_depth", &[("queue", "store")], 7.0);
        let text = encode_prometheus(&snap);
        assert!(text.contains("# TYPE cws_events_total counter"));
        assert!(text.contains("cws_events_total{stage=\"fleet\"} 42"));
        assert!(text.contains("# TYPE cws_queue_depth gauge"));
        assert!(text.contains("cws_queue_depth{queue=\"store\"} 7"));
    }

    #[test]
    fn histogram_is_cumulative_and_ends_in_inf() {
        let mut buckets = vec![0u64; crate::metrics::HIST_BUCKETS];
        buckets[0] = 2; // two zeros
        buckets[3] = 1; // one value in [4,7]
        let mut snap = Snapshot::new();
        snap.histogram(
            "cws_ns",
            &[],
            HistogramSnapshot {
                buckets,
                sum: 5,
                count: 3,
            },
        );
        let text = encode_prometheus(&snap);
        assert!(text.contains("cws_ns_bucket{le=\"0\"} 2"), "{text}");
        assert!(text.contains("cws_ns_bucket{le=\"7\"} 3"), "{text}");
        assert!(text.contains("cws_ns_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("cws_ns_sum 5"));
        assert!(text.contains("cws_ns_count 3"));
    }

    #[test]
    fn label_escaping_per_spec() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("two\nlines"), "two\\nlines");
        assert_eq!(unescape_label("two\\nlines").as_deref(), Some("two\nlines"));
        assert_eq!(unescape_label("dangling\\"), None);
        assert_eq!(unescape_label("bad\\q"), None);
        assert_eq!(unescape_label("raw\nnewline"), None);
    }

    #[test]
    fn json_document_is_wellformed_enough() {
        let mut snap = Snapshot::new();
        snap.counter("c", &[("k", "v\"q")], 1);
        snap.gauge("g", &[], f64::INFINITY);
        let json = encode_json(&snap);
        assert!(json.starts_with("{\"samples\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"k\":\"v\\\"q\""));
        assert!(json.contains("\"value\":\"+Inf\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn special_floats_render_prometheus_style() {
        let mut snap = Snapshot::new();
        snap.gauge("g", &[], f64::NAN);
        snap.gauge("g", &[("x", "1")], f64::NEG_INFINITY);
        let text = encode_prometheus(&snap);
        assert!(text.contains("g NaN"));
        assert!(text.contains("g{x=\"1\"} -Inf"));
    }
}
