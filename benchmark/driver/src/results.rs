//! Result sets: what `run` writes and `compare` reads.
//!
//! A set holds, per workload and metric, one value per run (`--runs`),
//! so a comparison can tell a shifted median from run-to-run spread.

use std::collections::BTreeMap;

use crate::error::BenchError;
use crate::json::Json;
use crate::metrics::{describe, unit_of, Readings};

pub const SCHEMA: &str = "dcert-benchmark/v1";

/// One run of one workload.
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Readings,
    pub per_layer: Readings,
    /// Whether `per_layer` was measured (a traced run) or is all zeros.
    pub traced: bool,
}

/// One metric across the runs of a set.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
    /// Samples behind each run's value (of the last run merged).
    pub samples: u64,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    pub attempted: Vec<f64>,
    pub failed: Vec<f64>,
    pub end_to_end: BTreeMap<String, Series>,
    pub per_layer: BTreeMap<String, Series>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub seed: u64,
    pub seconds: u64,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

fn bad(what: &str) -> BenchError {
    BenchError::Usage(format!("not a {SCHEMA} result file: {what}"))
}

impl ResultSet {
    pub fn new(seed: u64, seconds: u64) -> Self {
        ResultSet {
            seed,
            seconds,
            workloads: BTreeMap::new(),
        }
    }

    /// Appends one run of `workload`.
    pub fn push(&mut self, workload: &str, result: &WorkloadResult) {
        let runs = self.workloads.entry(workload.to_owned()).or_default();
        runs.attempted.push(result.attempted as f64);
        runs.failed.push(result.failed as f64);
        let append = |into: &mut BTreeMap<String, Series>, readings: &Readings| {
            for (name, reading) in readings {
                let series = into.entry((*name).to_owned()).or_insert_with(|| Series {
                    unit: unit_of(name).to_owned(),
                    values: Vec::new(),
                    samples: 0,
                });
                series.values.push(reading.value);
                series.samples = reading.samples;
            }
        };
        append(&mut runs.end_to_end, &result.end_to_end);
        if result.traced {
            append(&mut runs.per_layer, &result.per_layer);
        }
    }

    /// Appends every run of `other` (same seed and duration expected).
    pub fn merge(&mut self, other: &ResultSet) {
        for (workload, theirs) in &other.workloads {
            let ours = self.workloads.entry(workload.clone()).or_default();
            ours.attempted.extend(&theirs.attempted);
            ours.failed.extend(&theirs.failed);
            for (into, from) in [
                (&mut ours.end_to_end, &theirs.end_to_end),
                (&mut ours.per_layer, &theirs.per_layer),
            ] {
                for (name, series) in from {
                    match into.get_mut(name) {
                        Some(existing) => {
                            existing.values.extend(&series.values);
                            existing.samples = series.samples;
                        }
                        None => {
                            into.insert(name.clone(), series.clone());
                        }
                    }
                }
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let numbers = |values: &[f64]| Json::Array(values.iter().map(|v| Json::from(*v)).collect());
        let series = |map: &BTreeMap<String, Series>| {
            Json::object(map.iter().map(|(name, s)| {
                (
                    name.clone(),
                    Json::object([
                        ("unit", Json::from(s.unit.as_str())),
                        ("samples", Json::from(s.samples)),
                        ("values", numbers(&s.values)),
                    ]),
                )
            }))
        };
        Json::object([
            ("schema", Json::from(SCHEMA)),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            (
                "workloads",
                Json::object(self.workloads.iter().map(|(name, runs)| {
                    (
                        name.clone(),
                        Json::object([
                            ("attempted", numbers(&runs.attempted)),
                            ("failed", numbers(&runs.failed)),
                            ("end_to_end", series(&runs.end_to_end)),
                            ("per_layer", series(&runs.per_layer)),
                        ]),
                    )
                })),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<ResultSet, BenchError> {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(bad("schema"));
        }
        let whole = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| bad(key))
        };
        let numbers = |value: Option<&Json>, what: &str| -> Result<Vec<f64>, BenchError> {
            value
                .and_then(Json::as_array)
                .ok_or_else(|| bad(what))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| bad(what)))
                .collect()
        };
        let series = |value: Option<&Json>| -> Result<BTreeMap<String, Series>, BenchError> {
            value
                .and_then(Json::as_object)
                .ok_or_else(|| bad("metric table"))?
                .iter()
                .map(|(name, s)| {
                    Ok((
                        name.clone(),
                        Series {
                            unit: s
                                .get("unit")
                                .and_then(Json::as_str)
                                .ok_or_else(|| bad("unit"))?
                                .to_owned(),
                            samples: s
                                .get("samples")
                                .and_then(Json::as_f64)
                                .ok_or_else(|| bad("samples"))?
                                as u64,
                            values: numbers(s.get("values"), "values")?,
                        },
                    ))
                })
                .collect()
        };
        let mut set = ResultSet::new(whole("seed")?, whole("seconds")?);
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("workloads"))?;
        for (name, runs) in workloads {
            set.workloads.insert(
                name.clone(),
                WorkloadRuns {
                    attempted: numbers(runs.get("attempted"), "attempted")?,
                    failed: numbers(runs.get("failed"), "failed")?,
                    end_to_end: series(runs.get("end_to_end"))?,
                    per_layer: series(runs.get("per_layer"))?,
                },
            );
        }
        Ok(set)
    }
}

/// Prints every reading by name with its unit, the direction that is
/// better, and the sample count.
pub fn print_readings(title: &str, readings: &Readings) {
    println!("-- {title} --");
    for (name, reading) in readings {
        let (unit, better) = describe(name);
        println!(
            "{name:<32} {:>16.4} {unit:<6} n={:<8} ({} is better)",
            reading.value,
            reading.samples,
            better.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::put;

    fn one_run(ops: f64) -> WorkloadResult {
        let mut end_to_end = Readings::new();
        put(&mut end_to_end, "ops_per_s", ops, 100);
        put(&mut end_to_end, "setup_s", 0.5, 3);
        let mut per_layer = Readings::new();
        put(&mut per_layer, "sgx.ecalls", 3.0, 100);
        WorkloadResult {
            attempted: 100,
            failed: 0,
            end_to_end,
            per_layer,
            traced: true,
        }
    }

    #[test]
    fn a_set_round_trips_through_json_and_merges_run_by_run() {
        let mut a = ResultSet::new(1, 8);
        a.push("blocks_kv", &one_run(37.5));
        let mut b = ResultSet::new(1, 8);
        b.push("blocks_kv", &one_run(38.25));
        b.push("fleet_sb", &one_run(90.0));

        let reread =
            ResultSet::from_json(&Json::parse(&a.to_json().render_pretty()).unwrap()).unwrap();
        assert_eq!(reread, a);

        a.merge(&b);
        let kv = &a.workloads["blocks_kv"];
        assert_eq!(kv.end_to_end["ops_per_s"].values, vec![37.5, 38.25]);
        assert_eq!(kv.end_to_end["ops_per_s"].unit, "1/s");
        assert_eq!(kv.per_layer["sgx.ecalls"].values, vec![3.0, 3.0]);
        assert_eq!(kv.attempted, vec![100.0, 100.0]);
        assert_eq!(
            a.workloads["fleet_sb"].end_to_end["setup_s"].values,
            vec![0.5]
        );
    }

    #[test]
    fn untraced_runs_leave_the_per_layer_table_empty() {
        let mut run = one_run(1.0);
        run.traced = false;
        let mut set = ResultSet::new(2, 8);
        set.push("blocks_io", &run);
        assert!(set.workloads["blocks_io"].per_layer.is_empty());
    }

    #[test]
    fn foreign_documents_are_refused() {
        assert!(ResultSet::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(ResultSet::from_json(&Json::parse("{\"schema\":\"other\"}").unwrap()).is_err());
    }
}
