//! Criterion companion to Fig. 7: chain-validation time of the superlight
//! client (constant) vs. the traditional light client (linear), at two
//! chain lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcert_baselines::TraditionalLightClient;
use dcert_bench::{Rig, RigConfig};
use dcert_core::{expected_measurement, SuperlightClient};
use dcert_sgx::CostModel;

fn bench_bootstrap(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_bootstrap");
    group.sample_size(20);

    for &chain_len in &[1_000u64, 4_000] {
        // Build one certified chain of this length.
        let mut rig = Rig::new(RigConfig {
            cost: CostModel::calibrated(),
            ..RigConfig::default()
        });
        let mut headers = vec![rig.genesis.header.clone()];
        let mut tip = None;
        for _ in 0..chain_len {
            let block = rig.mine(Vec::new());
            let (cert, _) = rig.ci.certify_block(&block).expect("certifies");
            headers.push(block.header.clone());
            tip = Some((block.header.clone(), cert));
        }
        let (tip_header, tip_cert) = tip.expect("blocks mined");

        group.bench_with_input(
            BenchmarkId::new("light_client_validate", chain_len),
            &chain_len,
            |b, _| {
                let mut light = TraditionalLightClient::new(rig.genesis.header.clone()).unwrap();
                for header in &headers[1..] {
                    light.sync(header.clone(), rig.engine.as_ref()).unwrap();
                }
                b.iter(|| light.validate_all(rig.engine.as_ref()).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("superlight_validate", chain_len),
            &chain_len,
            |b, _| {
                b.iter(|| {
                    let mut client =
                        SuperlightClient::new(rig.ias.public_key(), expected_measurement());
                    client.validate_chain(&tip_header, &tip_cert).unwrap();
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bootstrap);
criterion_main!(benches);
