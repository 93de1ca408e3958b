//! Batch certification: one ECall certifies k consecutive blocks with a
//! single certificate over the last header — the recursive trust argument
//! is unchanged, the per-block cost is amortized.

use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::World;

#[test]
fn batch_certificate_validates_whole_prefix() {
    let mut world = World::pow(&[]);
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 17);

    let blocks: Vec<_> = (1..=6u64)
        .map(|h| world.miner.mine(gen.next_block(4), h).unwrap())
        .collect();
    let (cert, breakdown) = world.ci.certify_batch(&blocks).unwrap();
    assert_eq!(breakdown.ecalls, 1, "one ECall for the whole batch");
    assert_eq!(world.ci.node().height(), 6);

    world
        .client
        .validate_chain(&blocks.last().unwrap().header, &cert)
        .unwrap();
    assert_eq!(world.client.height(), Some(6));
}

#[test]
fn batches_chain_recursively() {
    let mut world = World::pow(&[]);
    let mut gen = WorkloadGen::new(Workload::SmallBank { customers: 16 }, 8, 3);

    // Batch 1 (blocks 1..3), then a single block (4), then batch 2 (5..7).
    let batch1: Vec<_> = (1..=3u64)
        .map(|h| world.miner.mine(gen.next_block(3), h).unwrap())
        .collect();
    world.ci.certify_batch(&batch1).unwrap();

    let single = world.miner.mine(gen.next_block(3), 4).unwrap();
    world.ci.certify_block(&single).unwrap();

    let batch2: Vec<_> = (5..=7u64)
        .map(|h| world.miner.mine(gen.next_block(3), h).unwrap())
        .collect();
    let (cert, _) = world.ci.certify_batch(&batch2).unwrap();

    world
        .client
        .validate_chain(&batch2.last().unwrap().header, &cert)
        .unwrap();
    assert_eq!(world.client.height(), Some(7));
}

#[test]
fn tampered_middle_block_rejects_whole_batch() {
    let mut world = World::pow(&[]);
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 5);
    let mut blocks: Vec<_> = (1..=4u64)
        .map(|h| world.miner.mine(gen.next_block(3), h).unwrap())
        .collect();
    // Tamper a middle block's transaction (breaks its tx root).
    blocks[2].txs[0].call.payload = b"evil".to_vec();
    assert!(world.ci.certify_batch(&blocks).is_err());
    // The CI must be unchanged; note the miner already advanced to 4, so
    // re-certifying the honest blocks individually still works.
    assert_eq!(world.ci.node().height(), 0);
}

#[test]
fn empty_batch_rejected() {
    let mut world = World::pow(&[]);
    assert!(world.ci.certify_batch(&[]).is_err());
}

#[test]
fn batch_amortizes_enclave_cost() {
    // Certify 8 identical-shaped blocks per-block vs in one batch and
    // compare ECall counts and request bytes (the amortization source).
    let mut world_a = World::pow(&[]);
    let mut world_b = World::pow(&[]);
    let mut gen_a = WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 9);
    let mut gen_b = WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 9);

    let mut per_block_ecalls = 0;
    for h in 1..=8u64 {
        let block = world_a.miner.mine(gen_a.next_block(3), h).unwrap();
        let (_, breakdown) = world_a.ci.certify_block(&block).unwrap();
        per_block_ecalls += breakdown.ecalls;
    }

    let blocks: Vec<_> = (1..=8u64)
        .map(|h| world_b.miner.mine(gen_b.next_block(3), h).unwrap())
        .collect();
    let (_, batch_breakdown) = world_b.ci.certify_batch(&blocks).unwrap();

    assert_eq!(per_block_ecalls, 8);
    assert_eq!(batch_breakdown.ecalls, 1);
}
