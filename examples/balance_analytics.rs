//! Verifiable balance analytics with O(log n) aggregation proofs.
//!
//! An analyst asks an untrusted query provider for statistics over an
//! account's balance history — count, sum, mean, min, max across a block
//! window. With DCert's aggregate index (an annotation-carrying Merkle
//! B-tree certified by the enclave), the answer verifies against the
//! certified index digest with a proof that does **not** grow with the
//! window: the provider cannot inflate a single satoshi.
//!
//! Run with: `cargo run --release --example balance_analytics`

use dcert::chain::Transaction;
use dcert::primitives::codec::Encode;
use dcert::primitives::keys::Keypair;
use dcert::query::aggregate::verify_aggregate;
use dcert::query::sp::IndexKind;
use dcert::sgx::CostModel;
use dcert::vm::StateKey;
use dcert::workloads::smallbank::BankCall;
use dcert::world::{Setup, World};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut world = World::new(Setup {
        indexes: vec![(IndexKind::Aggregate, "balances".to_owned())],
        ..Setup::poa(CostModel::calibrated())
    });

    // 60 blocks of banking activity on customer 7's checking account.
    println!("certifying 60 blocks of SmallBank activity...");
    let sender = Keypair::from_seed([9; 32]);
    for height in 1..=60u64 {
        let call = if height % 4 == 0 {
            BankCall::WriteCheck {
                customer: 7,
                amount: height,
            }
        } else {
            BankCall::DepositChecking {
                customer: 7,
                amount: height * 2,
            }
        };
        let tx = Transaction::sign(&sender, height, "smallbank", call.to_encoded_bytes());
        let block = world.mine(vec![tx]);
        let inputs = world.sp.stage_block(&block)?;
        let (block_cert, idx_certs, _) = world.ci.certify_hierarchical(&block, &inputs)?;
        world.sp.record_certs(&idx_certs);
        world.client.validate_chain(&block.header, &block_cert)?;
        world
            .client
            .validate_index("balances", inputs[0].new_digest, &idx_certs[0])?;
    }

    // The analytics query: balance statistics over blocks [20, 50].
    let mut field = b"chk-".to_vec();
    field.extend_from_slice(&7u64.to_be_bytes());
    let account = StateKey::new("smallbank", &field);
    let (t1, t2) = (20u64, 50u64);

    let started = std::time::Instant::now();
    let (agg, proof) = world
        .sp
        .aggregate("balances")
        .unwrap()
        .query(&account, t1, t2);
    let query_time = started.elapsed();

    let digest = world.client.index_digest("balances").unwrap();
    let started = std::time::Instant::now();
    verify_aggregate(&digest, &account, t1, t2, &agg, &proof)?;
    let verify_time = started.elapsed();

    println!("\nbalance statistics of customer 7 over blocks [{t1}, {t2}]:");
    println!("  versions   {}", agg.count);
    println!("  sum        {}", agg.sum);
    println!("  mean       {:.2}", agg.mean().unwrap());
    println!("  min / max  {} / {}", agg.min, agg.max);
    println!("\nquery   {query_time:?}");
    println!("verify  {verify_time:?}  (against the enclave-certified digest)");
    println!(
        "proof   {} bytes — independent of the window size",
        proof.size_bytes()
    );

    // Fraud demo: the provider understates the minimum balance.
    let mut doctored = agg;
    doctored.min = 1;
    match verify_aggregate(&digest, &account, t1, t2, &doctored, &proof) {
        Err(e) => println!("\nunderstated-minimum attack detected as expected: {e}"),
        Ok(()) => unreachable!("tampering must be caught"),
    }
    Ok(())
}
