//! Historical account auditing with verifiable queries.
//!
//! A wallet provider wants to audit the history of an account over a time
//! window without trusting the query service: the Service Provider
//! maintains DCert's two-level index (sparse Merkle tree over accounts,
//! Merkle B-tree of versions per account), the enclave certifies every
//! index update via *hierarchical* certificates, and the client verifies
//! completeness of the returned version list.
//!
//! Run with: `cargo run --example historical_audit`

use dcert::chain::Transaction;
use dcert::primitives::codec::Encode;
use dcert::primitives::keys::Keypair;
use dcert::query::history::verify_history;
use dcert::query::sp::IndexKind;
use dcert::sgx::CostModel;
use dcert::vm::StateKey;
use dcert::workloads::kvstore::KvCall;
use dcert::world::{Setup, World};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut world = World::new(Setup {
        indexes: vec![(IndexKind::History, "history".to_owned())],
        ..Setup::poa(CostModel::calibrated())
    });

    // The audited account receives one balance update per block.
    let owner = Keypair::from_seed([9; 32]);
    println!("building 40 blocks of account activity...");
    for height in 1..=40u64 {
        let balance = 1000 + height * 17 % 997;
        let tx = Transaction::sign(
            &owner,
            height,
            "kvstore",
            KvCall::Put {
                key: b"acct:savings:alice".to_vec(),
                value: format!("balance={balance}").into_bytes(),
            }
            .to_encoded_bytes(),
        );
        let block = world.mine(vec![tx]);
        let inputs = world.sp.stage_block(&block)?;
        let (block_cert, idx_certs, _) = world.ci.certify_hierarchical(&block, &inputs)?;
        world.sp.record_certs(&idx_certs);
        world.client.validate_chain(&block.header, &block_cert)?;
        world
            .client
            .validate_index("history", inputs[0].new_digest, &idx_certs[0])?;
    }

    // The audit: all versions of the account in blocks [12, 19].
    let account = StateKey::new("kvstore", b"acct:savings:alice");
    let (t1, t2) = (12u64, 19u64);
    let started = std::time::Instant::now();
    let (versions, proof) = world.sp.history("history").unwrap().query(&account, t1, t2);
    let query_time = started.elapsed();

    let digest = world.client.index_digest("history").unwrap();
    let started = std::time::Instant::now();
    verify_history(&digest, &account, t1, t2, &versions, &proof)?;
    let verify_time = started.elapsed();

    println!("\naudit of acct:savings:alice over blocks [{t1}, {t2}]:");
    for (height, version) in &versions {
        let value = version.as_deref().map(String::from_utf8_lossy);
        println!("  block {height:>3}: {}", value.unwrap_or_default());
    }
    println!("\nquery     {query_time:?}");
    println!("verify    {verify_time:?}  (against the enclave-certified index digest)");
    println!("proof     {} bytes", proof.size_bytes());

    // Tampering demo: the SP hides one version → verification fails.
    let mut doctored = versions.clone();
    doctored.remove(3);
    match verify_history(&digest, &account, t1, t2, &doctored, &proof) {
        Err(e) => println!("\nomission attack detected as expected: {e}"),
        Ok(()) => unreachable!("omission must be caught"),
    }
    Ok(())
}
