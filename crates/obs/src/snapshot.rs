//! Point-in-time metric snapshots and their deterministic JSON encoding.

use std::collections::BTreeMap;

/// One histogram bucket: observations `<= le` (cumulative per bucket, not
/// across buckets). `le == None` is the overflow bucket (+∞).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound; `None` = +∞.
    pub le: Option<u64>,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// A histogram's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping).
    pub sum: u64,
    /// Smallest observation, if any.
    pub min: Option<u64>,
    /// Largest observation, if any.
    pub max: Option<u64>,
    /// Per-bucket counts, in bound order, overflow last.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean observed value, if any observations were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// Every metric in a registry at one instant, in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// A counter's value (0 if absent — absent and never-incremented are
    /// indistinguishable to assertions by design).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The snapshot with every replay-variant metric removed: by
    /// convention, names ending in `_ns` measure elapsed real time and
    /// names ending in `_depth` sample live queue occupancy — both
    /// legitimately differ between replays of the same seed (wall clock
    /// and thread scheduling respectively). What remains must be
    /// bit-identical across same-seed runs — the determinism oracle
    /// `tests/obs_layer.rs` pins.
    pub fn without_wall_clock(&self) -> Snapshot {
        let keep = |name: &String| !name.ends_with("_ns") && !name.ends_with("_depth");
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, value)| (name.clone(), *value))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, value)| (name.clone(), *value))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, value)| (name.clone(), value.clone()))
                .collect(),
        }
    }

    /// Deterministic JSON: keys in name order, two-space indent, no
    /// timestamps. Two equal snapshots encode to byte-identical strings.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"dcert-obs/v1\",\n  \"counters\": {");
        push_scalar_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"gauges\": {");
        push_scalar_map(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for (name, hist) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            push_json_string(&mut out, name);
            out.push_str(": ");
            push_histogram(&mut out, hist);
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Writes [`Snapshot::to_json`] to a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    #[allow(clippy::disallowed_methods, reason = "an export file, not a segment")]
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn push_scalar_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (name, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        push_json_string(out, name);
        out.push_str(": ");
        out.push_str(&value);
    }
    if !first {
        out.push_str("\n  ");
    }
}

fn push_histogram(out: &mut String, hist: &HistogramSnapshot) {
    out.push_str(&format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
        hist.count,
        hist.sum,
        hist.min.map_or("null".to_owned(), |v| v.to_string()),
        hist.max.map_or("null".to_owned(), |v| v.to_string()),
    ));
    let mut first = true;
    for bucket in &hist.buckets {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "[{}, {}]",
            bucket.le.map_or("null".to_owned(), |v| v.to_string()),
            bucket.count
        ));
    }
    out.push_str("]}");
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Buckets, Registry};

    fn sample() -> Registry {
        let registry = Registry::new();
        registry.counter("net.published").add(3);
        registry.gauge("pipeline.queue.depth").set(-2);
        registry
            .histogram("cert.bytes", Buckets::from_bounds(vec![100, 1000]))
            .observe(150);
        registry.timer("stage.issue_ns").observe(5_000);
        registry
    }

    #[test]
    fn json_is_deterministic_and_parseable_shape() {
        let a = sample().snapshot().to_json();
        let b = sample().snapshot().to_json();
        assert_eq!(a, b, "same registry contents must encode identically");
        assert!(a.contains("\"schema\": \"dcert-obs/v1\""));
        assert!(a.contains("\"net.published\": 3"));
        assert!(a.contains("\"pipeline.queue.depth\": -2"));
        assert!(a.contains("\"cert.bytes\""));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn without_wall_clock_strips_replay_variant_metrics() {
        let registry = sample();
        registry.gauge("pipeline.submit_depth").record_max(4);
        let snapshot = registry.snapshot();
        assert!(snapshot.histograms.contains_key("stage.issue_ns"));
        let stripped = snapshot.without_wall_clock();
        assert!(!stripped.histograms.contains_key("stage.issue_ns"));
        assert!(!stripped.gauges.contains_key("pipeline.submit_depth"));
        assert!(stripped.histograms.contains_key("cert.bytes"));
        assert_eq!(stripped.counter("net.published"), 3);
        assert_eq!(
            stripped.gauge("pipeline.queue.depth"),
            -2,
            "only the `_depth` suffix is stripped, not substrings"
        );
    }

    #[test]
    fn empty_snapshot_encodes_cleanly() {
        let json = Snapshot::default().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn histogram_mean() {
        let snap = HistogramSnapshot {
            count: 4,
            sum: 10,
            min: Some(1),
            max: Some(4),
            buckets: Vec::new(),
        };
        assert_eq!(snap.mean(), Some(2.5));
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: None,
            max: None,
            buckets: Vec::new(),
        };
        assert_eq!(empty.mean(), None);
    }
}
