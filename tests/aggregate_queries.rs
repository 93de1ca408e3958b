//! End-to-end verifiable **aggregation** queries: the aggregate index is
//! maintained by the SP, certified per block by the enclave
//! (hierarchically), and window aggregates verify on the client with
//! O(log n) proofs.

use dcert::primitives::codec::Encode;
use dcert::primitives::keys::Keypair;
use dcert::query::aggregate::{verify_aggregate, Aggregate};
use dcert::query::sp::IndexKind;
use dcert::vm::StateKey;
use dcert::workloads::smallbank::BankCall;
use dcert::world::World;

/// Runs a chain where customer 1 receives one deposit per block, with the
/// aggregate index certified hierarchically. Returns the expected balance
/// per height.
fn run(world: &mut World, blocks: u64) -> Vec<u64> {
    let kp = Keypair::from_seed([21; 32]);
    let mut balances = Vec::new();
    let mut balance = dcert::workloads::smallbank::INITIAL_BALANCE;
    for height in 1..=blocks {
        let amount = height * 3;
        balance += amount;
        balances.push(balance);
        let tx = dcert::chain::Transaction::sign(
            &kp,
            height,
            "smallbank",
            BankCall::DepositChecking {
                customer: 1,
                amount,
            }
            .to_encoded_bytes(),
        );
        let block = world.miner.mine(vec![tx], height).unwrap();
        let inputs = world.sp.stage_block(&block).unwrap();
        let (block_cert, idx_certs, _) = world.ci.certify_hierarchical(&block, &inputs).unwrap();
        world.sp.advance(Some(&idx_certs)).unwrap();
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
    }
    balances
}

/// The SmallBank checking-balance state key of customer 1.
fn checking_key() -> StateKey {
    let mut field = b"chk-".to_vec();
    field.extend_from_slice(&1u64.to_be_bytes());
    StateKey::new("smallbank", &field)
}

#[test]
fn certified_window_aggregates_verify() {
    let mut world = World::pow(&[(IndexKind::Aggregate, "balances")]);
    let balances = run(&mut world, 20);

    let digest = world.client.index_digest("balances").unwrap();
    let (agg, proof) = world
        .sp
        .aggregate("balances")
        .unwrap()
        .query(&checking_key(), 6, 15);
    // One balance version per block in [6, 15].
    assert_eq!(agg.count, 10);
    let expected_sum: u128 = balances[5..15].iter().map(|b| *b as u128).sum();
    assert_eq!(agg.sum, expected_sum);
    assert_eq!(agg.min, balances[5]);
    assert_eq!(agg.max, balances[14]);
    verify_aggregate(&digest, &checking_key(), 6, 15, &agg, &proof).unwrap();
}

#[test]
fn sp_cannot_inflate_certified_aggregates() {
    let mut world = World::pow(&[(IndexKind::Aggregate, "balances")]);
    run(&mut world, 12);
    let digest = world.client.index_digest("balances").unwrap();
    let (mut agg, proof) = world
        .sp
        .aggregate("balances")
        .unwrap()
        .query(&checking_key(), 1, 12);
    agg.max += 1;
    assert!(verify_aggregate(&digest, &checking_key(), 1, 12, &agg, &proof).is_err());
}

#[test]
fn aggregate_proofs_do_not_grow_with_window() {
    let mut world = World::pow(&[(IndexKind::Aggregate, "balances")]);
    run(&mut world, 64);
    let idx = world.sp.aggregate("balances").unwrap();
    let (_, narrow) = idx.query(&checking_key(), 30, 33);
    let (_, wide) = idx.query(&checking_key(), 2, 62);
    assert!(
        wide.size_bytes() < narrow.size_bytes() * 4,
        "wide={} narrow={}",
        wide.size_bytes(),
        narrow.size_bytes()
    );
}

#[test]
fn untracked_customer_verifies_empty() {
    let mut world = World::pow(&[(IndexKind::Aggregate, "balances")]);
    run(&mut world, 5);
    let digest = world.client.index_digest("balances").unwrap();
    let ghost = StateKey::new("smallbank", b"chk-nobody");
    let (agg, proof) = world
        .sp
        .aggregate("balances")
        .unwrap()
        .query(&ghost, 0, 100);
    assert_eq!(agg, Aggregate::EMPTY);
    verify_aggregate(&digest, &ghost, 0, 100, &agg, &proof).unwrap();
}

#[test]
fn aggregate_index_composes_with_other_indexes() {
    // All three index families certified hierarchically on one chain.
    let mut world = World::pow(&[
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
        (IndexKind::Aggregate, "balances"),
    ]);
    run(&mut world, 6);
    assert!(world.client.index_digest("history").is_some());
    assert!(world.client.index_digest("inverted").is_some());
    assert!(world.client.index_digest("balances").is_some());
}
