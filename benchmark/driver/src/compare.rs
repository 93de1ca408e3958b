//! `dcert-benchmark compare BASELINE.json CANDIDATE.json`: applies the
//! benchmark's own bounds to two result sets.
//!
//! For every workload and end-to-end metric the candidate's median may be
//! worse than the baseline's by at most the metric's bound. Metrics that
//! are a pure function of the inputs (the `EXACT` bound, and per-layer
//! counts marked exact) must read the same on every run of both sets.
//! Where either set's own run-to-run spread (interquartile range over
//! median) is wider than the bound, the pair is *unresolved* rather than
//! unchanged — unless every candidate run beats every baseline run.

use std::path::Path;

use crate::error::BenchError;
use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, EXACT, PER_LAYER};
use crate::results::{ResultSet, Series};
use crate::stats::median as median_of;
use crate::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// An exact metric read differently.
    Differs,
    Unresolved,
    /// One side does not report the metric.
    Missing,
}

impl Verdict {
    fn passes(self) -> bool {
        self == Verdict::Ok
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Differs => "DIFFERS",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Missing => "MISSING",
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); `None` for fewer than two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let at = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median_of(values)) {
        (Some((q1, q3)), median) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

/// Share of the baseline median by which the candidate median is worse
/// (negative when it is better).
fn worsening(better: Better, baseline: f64, candidate: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - baseline) / baseline,
        Better::Higher => (baseline - candidate) / baseline,
    }
}

pub fn judge(metric: &EndToEnd, baseline: &[f64], candidate: &[f64]) -> Verdict {
    if baseline.is_empty() || candidate.is_empty() {
        return Verdict::Missing;
    }
    let (base, cand) = (median_of(baseline), median_of(candidate));
    if metric.bound <= EXACT {
        let same = baseline.iter().chain(candidate).all(|v| *v == base);
        return if same { Verdict::Ok } else { Verdict::Differs };
    }
    if spread(baseline).max(spread(candidate)) > metric.bound {
        let beats = |c: f64, b: f64| match metric.better {
            Better::Lower => c < b,
            Better::Higher => c > b,
        };
        let clean_win = candidate
            .iter()
            .all(|c| baseline.iter().all(|b| beats(*c, *b)));
        return if clean_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(metric.better, base, cand) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(series: Option<&Series>) -> &[f64] {
    series.map_or(&[], |s| &s.values)
}

/// Compares two sets; returns the report lines and whether all pass.
pub fn compare(baseline: &ResultSet, candidate: &ResultSet) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut all_pass = true;
    if (baseline.seed, baseline.seconds) != (candidate.seed, candidate.seconds) {
        lines.push(format!(
            "note: seed/seconds differ ({}/{} vs {}/{}): exact metrics are only comparable at equal inputs",
            baseline.seed, baseline.seconds, candidate.seed, candidate.seconds
        ));
    }
    for workload in WORKLOADS {
        let (Some(base), Some(cand)) = (
            baseline.workloads.get(workload),
            candidate.workloads.get(workload),
        ) else {
            lines.push(format!("{workload}: MISSING from one of the sets"));
            all_pass = false;
            continue;
        };
        if cand.failed.iter().sum::<f64>() > base.failed.iter().sum::<f64>() {
            lines.push(format!(
                "{workload}: more operations failed in the candidate"
            ));
            all_pass = false;
        }
        for metric in END_TO_END {
            let b = values(base.end_to_end.get(metric.name));
            let c = values(cand.end_to_end.get(metric.name));
            let verdict = judge(metric, b, c);
            all_pass &= verdict.passes();
            let (mb, mc) = (median_of(b), median_of(c));
            lines.push(format!(
                "{workload:<13} {:<22} {:>14.4} -> {:>14.4} {:<6} worse by {:>+7.2}% (bound {:.2}%, spread {:.2}%/{:.2}%)  {}",
                metric.name,
                mb,
                mc,
                metric.unit,
                100.0 * worsening(metric.better, mb, mc),
                100.0 * metric.bound,
                100.0 * spread(b),
                100.0 * spread(c),
                verdict.label()
            ));
        }
        // Exact per-layer counts, where both sets were traced.
        if base.per_layer.is_empty() || cand.per_layer.is_empty() {
            continue;
        }
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let b = values(base.per_layer.get(metric.name));
            let c = values(cand.per_layer.get(metric.name));
            let Some(first) = b.first() else { continue };
            if b.iter().chain(c).any(|v| v != first) || c.is_empty() {
                all_pass = false;
                lines.push(format!(
                    "{workload:<13} {:<32} exact count {} -> {}  {}",
                    metric.name,
                    median_of(b),
                    median_of(c),
                    Verdict::Differs.label()
                ));
            }
        }
    }
    (lines, all_pass)
}

pub fn run(baseline: &Path, candidate: &Path) -> Result<bool, BenchError> {
    let read = |path: &Path| -> Result<ResultSet, BenchError> {
        ResultSet::from_json(&Json::parse(&std::fs::read_to_string(path)?)?)
    };
    let (lines, all_pass) = compare(&read(baseline)?, &read(candidate)?);
    for line in lines {
        println!("{line}");
    }
    println!(
        "compare: {}",
        if all_pass {
            "every metric within its bound"
        } else {
            "NOT within bounds"
        }
    );
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::put;
    use crate::metrics::Readings;
    use crate::results::WorkloadResult;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn quartiles_match_pythons_statistics_module() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    /// Five runs around `centre` with a spread well inside any bound.
    fn runs_around(centre: f64) -> [f64; 5] {
        [1.0, 1.01, 0.99, 1.005, 0.995].map(|f| f * centre)
    }

    #[test]
    fn toleranced_metrics_pass_inside_the_bound_and_regress_outside() {
        let ops = metric("ops_per_s"); // higher is better
        let base = runs_around(100.0);
        let inside = 100.0 * (1.0 - ops.bound / 2.0);
        let outside = 100.0 * (1.0 - ops.bound * 1.5);
        assert_eq!(judge(ops, &base, &runs_around(inside)), Verdict::Ok);
        assert_eq!(judge(ops, &base, &runs_around(outside)), Verdict::Regressed);
        assert_eq!(judge(ops, &base, &runs_around(150.0)), Verdict::Ok);

        let latency = metric("op_ms_p50"); // lower is better
        let inside = 100.0 * (1.0 + latency.bound / 2.0);
        let outside = 100.0 * (1.0 + latency.bound * 1.5);
        assert_eq!(judge(latency, &base, &runs_around(inside)), Verdict::Ok);
        assert_eq!(
            judge(latency, &base, &runs_around(outside)),
            Verdict::Regressed
        );
        assert_eq!(judge(latency, &base, &runs_around(60.0)), Verdict::Ok);
        assert_eq!(judge(latency, &base, &[]), Verdict::Missing);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let ops = metric("ops_per_s");
        let noisy = [100.0, 160.0, 40.0, 130.0, 70.0];
        assert!(spread(&noisy) > ops.bound);
        assert_eq!(judge(ops, &noisy, &runs_around(100.0)), Verdict::Unresolved);
        assert_eq!(judge(ops, &runs_around(100.0), &noisy), Verdict::Unresolved);
        // Every candidate run above every baseline run: a clean win.
        assert_eq!(judge(ops, &noisy, &[170.0, 180.0, 175.0]), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_must_read_the_same_on_every_run_of_both_sets() {
        let storage = metric("client_storage_bytes");
        assert_eq!(judge(storage, &[1061.0, 1061.0], &[1061.0]), Verdict::Ok);
        assert_eq!(
            judge(storage, &[1061.0, 1061.0], &[1062.0]),
            Verdict::Differs
        );
        assert_eq!(
            judge(storage, &[1061.0, 1060.0], &[1061.0]),
            Verdict::Differs
        );
        assert_eq!(
            judge(storage, &[1061.0], &[1000.0]),
            Verdict::Differs,
            "smaller is still a change"
        );
    }

    fn set_with(ops: f64, ecalls: f64) -> ResultSet {
        let mut set = ResultSet::new(1, 8);
        for workload in WORKLOADS {
            let mut end_to_end = Readings::new();
            for m in END_TO_END {
                put(
                    &mut end_to_end,
                    m.name,
                    if m.name == "ops_per_s" { ops } else { 10.0 },
                    1,
                );
            }
            let mut per_layer = Readings::new();
            put(&mut per_layer, "sgx.ecalls", ecalls, 1);
            put(&mut per_layer, "chain.mine_us", ops, 1); // a timing: never gated
            let result = WorkloadResult {
                attempted: 10,
                failed: 0,
                end_to_end,
                per_layer,
                traced: true,
            };
            set.push(workload, &result);
            set.push(workload, &result);
        }
        set
    }

    #[test]
    fn whole_sets_compare_metric_by_workload() {
        let base = set_with(100.0, 3.0);
        let (lines, pass) = compare(&base, &set_with(97.0, 3.0));
        assert!(pass, "{lines:#?}");
        assert_eq!(lines.len(), WORKLOADS.len() * END_TO_END.len());

        let (lines, pass) = compare(&base, &set_with(60.0, 3.0));
        assert!(!pass);
        assert_eq!(
            lines.iter().filter(|l| l.contains("REGRESSED")).count(),
            WORKLOADS.len()
        );

        let (lines, pass) = compare(&base, &set_with(100.0, 4.0));
        assert!(!pass, "an exact per-layer count moved");
        assert!(lines
            .iter()
            .any(|l| l.contains("sgx.ecalls") && l.contains("DIFFERS")));

        let mut partial = set_with(100.0, 3.0);
        partial.workloads.remove("fleet_sb");
        let (lines, pass) = compare(&base, &partial);
        assert!(!pass);
        assert!(lines.iter().any(|l| l.starts_with("fleet_sb: MISSING")));
    }
}
