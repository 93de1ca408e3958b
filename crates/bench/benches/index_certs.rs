//! Criterion companion to Fig. 10: per-block certification cost of the
//! augmented vs. hierarchical schemes at 1 and 4 authenticated indexes.
//!
//! The full per-block flows (all ECalls) are measured by running each
//! scheme over a fresh chain segment per iteration batch; the figures
//! binary reports the same quantity averaged over longer runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcert_bench::{Rig, RigConfig, Scheme};
use dcert_query::sp::IndexKind;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

fn indexes(count: usize) -> Vec<(IndexKind, String)> {
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                (IndexKind::History, format!("history-{i}"))
            } else {
                (IndexKind::Inverted, format!("inverted-{i}"))
            }
        })
        .collect()
}

fn bench_index_certs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_index_certs");
    // Each measured "iteration" is a whole block certification, so keep
    // the statistical load modest.
    group.sample_size(10);

    for &count in &[1usize, 4] {
        for (scheme, label) in [
            (Scheme::Augmented, "augmented"),
            (Scheme::Hierarchical, "hierarchical"),
        ] {
            group.bench_with_input(BenchmarkId::new(label, count), &count, |b, &count| {
                b.iter_custom(|iters| {
                    let mut total = std::time::Duration::ZERO;
                    // Amortize rig construction across the requested
                    // iterations: one rig, `iters` consecutive blocks.
                    let mut rig = Rig::new(RigConfig {
                        cost: CostModel::calibrated(),
                        indexes: indexes(count),
                        ..RigConfig::default()
                    });
                    let result =
                        rig.run(Workload::KvStore { keyspace: 500 }, iters, 32, 42, scheme);
                    for breakdown in &result.breakdowns {
                        total += breakdown.total();
                    }
                    total
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_index_certs);
criterion_main!(benches);
