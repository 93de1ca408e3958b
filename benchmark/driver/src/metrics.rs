//! The benchmark's vocabulary: every metric it reports, with unit,
//! direction and — for end-to-end metrics — the regression bound.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for
//! the driver that runs the benchmark; a unit test keeps the two equal.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: something a user of the system sees. Every
/// workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// Bound of a metric that is a pure function of the inputs: any change
/// of one unit in a value below 10 000 exceeds it.
pub const EXACT: f64 = 0.0001;

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "bootstrap_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "client_storage_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: EXACT,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced run. `exact` marks counts that
/// are a pure function of the seed: `compare` requires them to match.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn exact_ratio(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better: Better::Higher,
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // The block journey, layer by layer (per-block means after warm-up).
    timing("chain.mine_us", "us"),
    timing("query.sp.stage_us", "us"),
    timing("query.sp.record_us", "us"),
    timing("core.ci.certify_us", "us"),
    timing("vm.rwset_us", "us"),
    timing("merkle.proofgen_us", "us"),
    timing("sgx.ecall_us", "us"),
    timing("core.program.trusted_us", "us"),
    timing("sgx.overhead_us", "us"),
    timing("core.ci.self_us", "us"),
    count("sgx.request_bytes", "bytes"),
    count("sgx.ecalls", "count"),
    count("sgx.paged_bytes", "bytes"),
    timing("core.archive.publish_us", "us"),
    count("store.fsyncs", "count"),
    count("store.bytes_per_block", "bytes"),
    timing("core.superlight.sync_us", "us"),
    timing("core.superlight.bootstrap_us", "us"),
    timing("journey.unattributed_us", "us"),
    timing("journey.unattributed_pct", "%"),
    timing("journey.p90_ms", "ms"),
    timing("journey.p99_ms", "ms"),
    // Hardware-independent work over the whole traced region.
    count("primitives.sha256_blocks", "count"),
    count("primitives.sig_verifies", "count"),
    count("primitives.sig_signs", "count"),
    PerLayer {
        name: "alloc.count",
        unit: "count",
        better: Better::Lower,
        exact: false,
    },
    PerLayer {
        name: "alloc.bytes",
        unit: "bytes",
        better: Better::Lower,
        exact: false,
    },
    // Calibration of the stand-in primitives and the generator (set-up).
    timing("primitives.sha256_block_ns", "ns"),
    timing("primitives.sig_verify_us", "us"),
    timing("primitives.sig_sign_us", "us"),
    timing("workloads.gen_us", "us"),
    // The three certification engines on one chain (fleet_sb).
    rate("core.ci.seq_blocks_per_s", "1/s"),
    rate("core.pipeline.blocks_per_s", "1/s"),
    rate("core.shard.blocks_per_s", "1/s"),
    timing("core.pipeline.prepare_us", "us"),
    timing("core.pipeline.issue_us", "us"),
    timing("core.pipeline.publish_us", "us"),
    timing("core.shard.range_seal_us", "us"),
    timing("core.shard.agg_fold_us", "us"),
    PerLayer {
        name: "core.fleet.identical",
        unit: "count",
        better: Better::Higher,
        exact: true,
    },
    // The read path, per query class (queries_cold).
    timing("query.history.serve_us", "us"),
    timing("query.history.verify_us", "us"),
    count("query.history.proof_bytes", "bytes"),
    timing("query.history_op.serve_us", "us"),
    timing("query.history_op.verify_us", "us"),
    count("query.history_op.proof_bytes", "bytes"),
    timing("query.aggregate.serve_us", "us"),
    timing("query.aggregate.verify_us", "us"),
    count("query.aggregate.proof_bytes", "bytes"),
    timing("query.aggregate_op.serve_us", "us"),
    timing("query.aggregate_op.verify_us", "us"),
    count("query.aggregate_op.proof_bytes", "bytes"),
    timing("query.keywords.serve_us", "us"),
    timing("query.keywords.verify_us", "us"),
    count("query.keywords.proof_bytes", "bytes"),
    count("query.proof_bytes_per_query", "bytes"),
    timing("serve.front.self_us", "us"),
    timing("serve.wire.decode_us", "us"),
    timing("query.p99_ms", "ms"),
    // Reads beside writes (serve_mixed); ratios and tallies are seed-exact.
    exact_ratio("serve.cache_hit_ratio"),
    exact_ratio("serve.window_hit_ratio"),
    exact_ratio("serve.coalesce_ratio"),
    count("serve.backend_calls", "count"),
    count("serve.shed_admission", "count"),
    count("serve.shed_pump", "count"),
    count("serve.shed_share", "ratio"),
    count("serve.cancelled", "count"),
    count("serve.invalidations", "count"),
    count("serve.wait_ticks_p50", "ticks"),
    count("serve.wait_ticks_p99", "ticks"),
    timing("serve.read_us_per_request", "us"),
    timing("serve.write_ms_per_block", "ms"),
    // How far the per-layer numbers may be trusted, and what pacing did:
    // the machine's mean speed against the reference, and the headline
    // figures as measured, before scaling to reference speed.
    timing("trace.overhead_pct", "%"),
    rate("pace.speed_pct", "%"),
    rate("pace.raw_ops_per_s", "1/s"),
    timing("pace.raw_op_ms_p50", "ms"),
];

/// One reported number with the count of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub samples: u64,
}

/// Metric name → reading. Per-layer maps hold only what the workload
/// exercises; [`complete_per_layer`] fills the rest with zeros.
pub type Readings = BTreeMap<&'static str, Reading>;

pub fn put(readings: &mut Readings, name: &'static str, value: f64, samples: u64) {
    debug_assert!(
        END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
        "unknown metric {name}"
    );
    readings.insert(name, Reading { value, samples });
}

/// Every per-layer metric, zero where the workload does not touch the
/// layer (the driver wants all of them from every traced run).
pub fn complete_per_layer(readings: &Readings) -> Readings {
    PER_LAYER
        .iter()
        .map(|m| {
            let reading = readings.get(m.name).copied().unwrap_or(Reading {
                value: 0.0,
                samples: 0,
            });
            (m.name, reading)
        })
        .collect()
}

/// Unit and direction of a metric of either table.
pub fn describe(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.better))
        })
        .unwrap_or(("", Better::Lower))
}

pub fn unit_of(name: &str) -> &'static str {
    describe(name).0
}

/// `{"name": {"value": v, "unit": u}, ...}` — the shape the driver reads.
pub fn to_json(readings: &Readings) -> Json {
    Json::object(readings.iter().map(|(name, reading)| {
        (
            *name,
            Json::object([
                ("value", Json::from(reading.value)),
                ("unit", Json::from(unit_of(name))),
            ]),
        )
    }))
}

/// What one run of one workload produced.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Busy time of the timed region, ns at reference speed.
    pub busy_ns: f64,
    pub end_to_end: Readings,
    pub per_layer: Readings,
}

/// The timed region of one run, as every workload hands it over.
pub struct Timed<'a> {
    /// Operations in the timed region (after warm-up).
    pub operations: u64,
    /// Time the system spent on them, paced and as measured.
    pub busy_ns: f64,
    pub busy_raw_ns: f64,
    /// Per-operation latencies in ms, paced and as measured.
    pub op_ms: &'a [f64],
    pub op_raw_ms: &'a [f64],
    /// Fresh-client bootstraps, paced ns.
    pub bootstrap_ns: &'a [f64],
    pub client_storage_bytes: usize,
    /// Mean machine speed, percent of the reference.
    pub speed_pct: f64,
}

impl Timed<'_> {
    /// The end-to-end readings every workload reports the same way
    /// (`setup_s` and `peak_rss_mb` are added by the caller, who owns
    /// the process).
    pub fn end_to_end(&self) -> Readings {
        let mut out = Readings::new();
        put(
            &mut out,
            "ops_per_s",
            self.operations as f64 / (self.busy_ns / 1e9),
            self.operations,
        );
        put(
            &mut out,
            "op_ms_p50",
            crate::stats::median(self.op_ms),
            self.op_ms.len() as u64,
        );
        put(
            &mut out,
            "bootstrap_us_p50",
            crate::stats::median(self.bootstrap_ns) / 1e3,
            self.bootstrap_ns.len() as u64,
        );
        put(
            &mut out,
            "client_storage_bytes",
            self.client_storage_bytes as f64,
            1,
        );
        out
    }

    /// What pacing did to the headline figures.
    pub fn pace_layers(&self, out: &mut Readings) {
        put(out, "pace.speed_pct", self.speed_pct, 1);
        put(
            out,
            "pace.raw_ops_per_s",
            self.operations as f64 / (self.busy_raw_ns / 1e9),
            self.operations,
        );
        put(
            out,
            "pace.raw_op_ms_p50",
            crate::stats::median(self.op_raw_ms),
            self.op_raw_ms.len() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_carries_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                    (
                        field("name"),
                        field("unit"),
                        field("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(listed("end_to_end"), want_e2e);
        let want_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed("per_layer"), want_layer);

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
