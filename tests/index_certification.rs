//! Augmented and hierarchical certificate schemes (Algorithms 4–5) across
//! real blocks, plus their forgery paths.

use std::borrow::Cow;
use std::sync::Arc;

use dcert::chain::{Block, ChainError};
use dcert::core::{
    CertError, CertJob, CertPipeline, Certificate, Gossip, IndexInput, PipelineConfig,
};
use dcert::merkle::ProofError;
use dcert::primitives::hash::hash_bytes;
use dcert::query::sp::IndexKind;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::{assert_bytes_equal, observe, World, MEMO_INDEXES};

fn kv_gen() -> WorkloadGen {
    WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 99)
}

#[test]
fn augmented_scheme_certifies_multi_block_chain() {
    let mut world = World::pow(&[
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
    ]);
    let mut gen = kv_gen();
    for height in 1..=6u64 {
        let block = world.miner.mine(gen.next_block(4), height).unwrap();
        let inputs = world.sp.stage_block(&block).unwrap();
        let (certs, breakdown) = world.ci.certify_augmented(&block, &inputs).unwrap();
        assert_eq!(certs.len(), 2);
        // One full-replay ECall per index.
        assert_eq!(breakdown.ecalls, 2);
        world.sp.advance(Some(&certs)).unwrap();
    }
    assert_eq!(world.sp.height(), 6);
}

#[test]
fn hierarchical_scheme_certifies_multi_block_chain() {
    let mut world = World::pow(&[
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
    ]);
    let mut gen = kv_gen();
    let mut last = None;
    for height in 1..=6u64 {
        let block = world.miner.mine(gen.next_block(4), height).unwrap();
        let inputs = world.sp.stage_block(&block).unwrap();
        let (block_cert, idx_certs, breakdown) =
            world.ci.certify_hierarchical(&block, &inputs).unwrap();
        assert_eq!(idx_certs.len(), 2);
        // One crossing: the block certificate and both index certificates.
        assert_eq!(breakdown.ecalls, 1);
        world.sp.advance(Some(&idx_certs)).unwrap();
        last = Some((block, block_cert, idx_certs, inputs));
    }
    // The superlight client adopts the chain and both indexes.
    let (block, block_cert, idx_certs, inputs) = last.unwrap();
    world
        .client
        .validate_chain(&block.header, &block_cert)
        .unwrap();
    for (cert, input) in idx_certs.iter().zip(&inputs) {
        world
            .client
            .validate_index(&input.index_type, input.new_digest, cert)
            .unwrap();
    }
    assert_eq!(
        world.client.index_digest("history"),
        Some(inputs[0].new_digest)
    );
}

#[test]
fn augmented_and_hierarchical_agree_on_digests() {
    // Run the same block stream through two CIs, one per scheme: the
    // certified index digests must be identical.
    let mut world_a = World::pow(&[(IndexKind::History, "history")]);
    let mut world_h = World::pow(&[(IndexKind::History, "history")]);
    let mut gen = kv_gen();
    for height in 1..=4u64 {
        let txs = gen.next_block(4);
        let block_a = world_a.miner.mine(txs.clone(), height).unwrap();
        let block_h = world_h.miner.mine(txs, height).unwrap();
        assert_eq!(block_a.hash(), block_h.hash(), "same chain on both sides");

        let in_a = world_a.sp.stage_block(&block_a).unwrap();
        let in_h = world_h.sp.stage_block(&block_h).unwrap();
        assert_eq!(in_a[0].new_digest, in_h[0].new_digest);

        let (certs_a, _) = world_a.ci.certify_augmented(&block_a, &in_a).unwrap();
        let (_, certs_h, _) = world_h.ci.certify_hierarchical(&block_h, &in_h).unwrap();
        // Same certified digest in both schemes.
        assert_eq!(certs_a[0].digest, certs_h[0].digest);
        world_a.sp.advance(Some(&certs_a)).unwrap();
        world_h.sp.advance(Some(&certs_h)).unwrap();
    }
}

#[test]
fn forged_index_digest_rejected_in_both_schemes() {
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let mut gen = kv_gen();
    let block = world.miner.mine(gen.next_block(4), 1).unwrap();
    let mut inputs = world.sp.stage_block(&block).unwrap();
    inputs[0].new_digest = hash_bytes(b"forged index digest");

    let refused = world.ci.certify_augmented(&block, &inputs);
    assert_eq!(refused.err(), Some(CertError::IndexDigestMismatch));
}

#[test]
fn tampered_aux_rejected() {
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let mut gen = kv_gen();
    let block = world.miner.mine(gen.next_block(4), 1).unwrap();
    let mut inputs = world.sp.stage_block(&block).unwrap();
    if let Some(byte) = inputs[0].aux.last_mut() {
        *byte ^= 0xff;
    }
    let refused = world.ci.certify_augmented(&block, &inputs);
    let missing = ProofError::Malformed("missing evidence".into());
    assert_eq!(refused.err(), Some(CertError::Proof(missing)));
}

#[test]
fn unknown_index_type_rejected() {
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let mut gen = kv_gen();
    let block = world.miner.mine(gen.next_block(2), 1).unwrap();
    let mut inputs = world.sp.stage_block(&block).unwrap();
    inputs[0].index_type = "not-registered".to_owned();
    let refused = world.ci.certify_augmented(&block, &inputs);
    let unknown = CertError::UnknownIndexType("not-registered".to_owned());
    assert_eq!(refused.err(), Some(unknown));
}

#[test]
fn stale_prev_index_cert_rejected() {
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let mut gen = kv_gen();
    // Block 1 certifies fine.
    let b1 = world.miner.mine(gen.next_block(2), 1).unwrap();
    let in1 = world.sp.stage_block(&b1).unwrap();
    let (certs1, _) = world.ci.certify_augmented(&b1, &in1).unwrap();
    world.sp.advance(Some(&certs1)).unwrap();
    // Block 2: present block-1's *pre* digest with block-1's cert (stale
    // lineage — the cert certifies a different digest pairing).
    let b2 = world.miner.mine(gen.next_block(2), 2).unwrap();
    let mut in2 = world.sp.stage_block(&b2).unwrap();
    in2[0].prev_digest = in1[0].prev_digest; // stale digest (genesis)
    assert!(world.ci.certify_augmented(&b2, &in2).is_err());
}

#[test]
fn five_indexes_certify_hierarchically() {
    // The Fig. 10 configuration: many indexes per block.
    let names = ["idx-1", "idx-2", "idx-3", "idx-4", "idx-5"];
    let setup: Vec<(IndexKind, &str)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            (
                if i % 2 == 0 {
                    IndexKind::History
                } else {
                    IndexKind::Inverted
                },
                *n,
            )
        })
        .collect();
    let mut world = World::pow(&setup);
    let mut gen = kv_gen();
    for height in 1..=3u64 {
        let block = world.miner.mine(gen.next_block(4), height).unwrap();
        let inputs = world.sp.stage_block(&block).unwrap();
        assert_eq!(inputs.len(), 5);
        let (block_cert, certs, breakdown) =
            world.ci.certify_hierarchical(&block, &inputs).unwrap();
        assert_eq!(certs.len(), 5);
        assert_eq!(breakdown.ecalls, 1);
        world.sp.advance(Some(&certs)).unwrap();
        let _ = block_cert;
    }
}

// --- a refused index leaves nothing signed -------------------------------------
//
// The fused request signs the block certificate only beside every index
// certificate. Before it, the block's own request had already advanced the
// sealed watermark when the second index's per-index request was refused,
// and the honest retry died with "height regression: already signed 3,
// offered 3".

fn two_index_world() -> World {
    World::pow(&[
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
    ])
}

/// A way to forge a staged index update, and what the enclave says to it.
type Forgery = (fn(&mut IndexInput), CertError);

/// The two ways the second index of a job is forged here.
const FORGERIES: [Forgery; 2] = [
    (
        |index| index.new_digest = hash_bytes(b"forged index digest"),
        CertError::IndexDigestMismatch,
    ),
    (
        |index| index.aux.truncate(index.aux.len() / 2),
        CertError::BadIndexUpdate(Cow::Borrowed("aux decode")),
    ),
];

/// Certifies `blocks` hierarchically on a CI that never sees a forgery: the
/// stream the retry must reproduce, and the staged inputs behind it.
fn clean_run(blocks: &[Block]) -> Vec<(Certificate, Vec<Certificate>, Vec<IndexInput>)> {
    let mut world = two_index_world();
    let certify = |block| {
        let inputs = world.sp.stage_block(block).unwrap();
        let (block_cert, index_certs, _) = world.ci.certify_hierarchical(block, &inputs).unwrap();
        world.sp.advance(Some(&index_certs)).unwrap();
        (block_cert, index_certs, inputs)
    };
    blocks.iter().map(certify).collect()
}

#[test]
fn refused_index_leaves_nothing_signed_and_the_same_ci_retries() {
    for (forge, refusal) in FORGERIES {
        let mut world = two_index_world();
        let blocks = world.mine_blocks(Workload::KvStore { keyspace: 32 }, 3, 4, 99);
        let clean = clean_run(&blocks);
        for (block, (_, _, inputs)) in blocks.iter().zip(&clean).take(2) {
            world.ci.certify_hierarchical(block, inputs).unwrap();
        }
        let (block_cert, index_certs, inputs) = &clean[2];
        let mut forged = inputs.clone();
        forge(&mut forged[1]);
        let refused = world.ci.certify_hierarchical(&blocks[2], &forged);
        assert_eq!(refused.err(), Some(refusal));
        let (retried_block, retried_indexes, breakdown) =
            world.ci.certify_hierarchical(&blocks[2], inputs).unwrap();
        assert_eq!(
            (&retried_block, &retried_indexes),
            (block_cert, index_certs)
        );
        assert_eq!(breakdown.ecalls, 1);
    }
}

#[test]
fn refused_index_in_the_pipeline_leaves_nothing_signed() {
    for (forge, refusal) in FORGERIES {
        let mut world = two_index_world();
        let blocks = world.mine_blocks(Workload::KvStore { keyspace: 32 }, 3, 4, 99);
        let clean = clean_run(&blocks);
        let pipeline =
            CertPipeline::spawn(world.ci, PipelineConfig::default(), Arc::new(Gossip::new()));
        for (height, (block, (_, _, inputs))) in blocks.iter().zip(&clean).enumerate() {
            let mut indexes = inputs.clone();
            if height == 2 {
                forge(&mut indexes[1]);
            }
            let block = block.clone();
            pipeline
                .submit(CertJob::Hierarchical { block, indexes })
                .unwrap();
        }
        let (mut ci, report) = pipeline.shutdown();
        assert_eq!(report.errors, [(2, refusal)]);
        // The CI comes back standing on block 2, its enclave unsigned at 3.
        let (block_cert, index_certs, inputs) = &clean[2];
        let (retried_block, retried_indexes, _) =
            ci.certify_hierarchical(&blocks[2], inputs).unwrap();
        assert_eq!(
            (&retried_block, &retried_indexes),
            (block_cert, index_certs)
        );
    }
}

#[test]
fn hierarchical_over_no_index_is_the_block_certificate() {
    let mut plain = World::pow(&[]);
    let mut fused = World::pow(&[]);
    let blocks = plain.mine_blocks(Workload::KvStore { keyspace: 32 }, 3, 4, 99);
    for block in &blocks {
        let (expected, _) = plain.ci.certify_block(block).unwrap();
        let (block_cert, index_certs, breakdown) =
            fused.ci.certify_hierarchical(block, &[]).unwrap();
        assert_eq!(block_cert, expected);
        assert!(index_certs.is_empty());
        assert_eq!(breakdown.ecalls, 1);
    }
}

// --- what the SP does between a stage and its advance ---------------------------

/// `stage_block` leaves a staged block behind until `advance`; a second
/// stage chains from the first one's digests. The CI certifies both blocks
/// from the SP's inputs, and the SP that advances once, after the second,
/// ends where a twin that advanced after each block does.
#[test]
fn a_second_stage_before_advance_chains_from_the_first() {
    let mut world = World::pow(&MEMO_INDEXES);
    let mut twin = World::pow(&MEMO_INDEXES);
    let blocks = world.mine_memos(2);
    let staged: Vec<Vec<IndexInput>> = blocks
        .iter()
        .map(|block| world.sp.stage_block(block).expect("stages"))
        .collect();
    let (mut stream, mut twin_stream) = (Vec::new(), Vec::new());
    let mut last = Vec::new();
    for (block, inputs) in blocks.iter().zip(&staged) {
        let (block_cert, index_certs, _) = world
            .ci
            .certify_hierarchical(block, inputs)
            .expect("the CI certifies from the SP's inputs");
        stream.push(block_cert);
        stream.extend(index_certs.iter().cloned());
        last = index_certs;

        let inputs = twin.sp.stage_block(block).expect("twin stages");
        let (block_cert, index_certs, _) = twin.ci.certify_hierarchical(block, &inputs).unwrap();
        twin.sp.advance(Some(&index_certs)).expect("twin advances");
        twin_stream.push(block_cert);
        twin_stream.extend(index_certs);
    }
    world
        .sp
        .advance(Some(&last))
        .expect("block 2's certificates land");
    assert_bytes_equal(&twin_stream, &stream, "two stages, one advance");
    assert_eq!(observe(&world.sp), observe(&twin.sp));
}

/// A reorg under the SP: a sibling of its tip and a block on that sibling
/// are both refused as a typed [`ChainError`] before they touch an index,
/// and the SP answers as a twin that never saw them.
#[test]
fn a_fork_block_under_the_sp_is_refused_typed() {
    let mut world = World::pow(&MEMO_INDEXES);
    let mut twin = world.genesis_sp();
    let mut blocks = world.mine_memos(1);
    let mut fork_miner = world.miner.clone();
    blocks.extend(world.mine_memos(1));
    for block in &blocks {
        let inputs = world.sp.stage_block(block).expect("stages");
        twin.stage_block(block).expect("twin stages");
        let (index_certs, _) = world.ci.certify_augmented(block, &inputs).unwrap();
        world.sp.advance(Some(&index_certs)).expect("advances");
        twin.advance(Some(&index_certs)).expect("twin advances");
    }
    let sibling = fork_miner.mine(Vec::new(), 2).expect("mines the fork");
    let child = fork_miner.mine(Vec::new(), 3).expect("extends the fork");
    for fork in [&sibling, &child] {
        let refused = world.sp.stage_block(fork);
        assert!(
            matches!(refused, Err(ChainError::BrokenLink { .. })),
            "height {}: {refused:?}",
            fork.header.height
        );
        assert_eq!(world.sp.advance(None), Ok(()), "nothing was staged");
        assert_eq!(observe(&world.sp), observe(&twin));
    }
}
