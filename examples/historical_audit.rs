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

use std::sync::Arc;

use dcert::chain::{FullNode, GenesisBuilder, ProofOfWork, Transaction};
use dcert::core::{expected_measurement, CertificateIssuer, SuperlightClient};
use dcert::primitives::codec::Encode;
use dcert::primitives::hash::Address;
use dcert::primitives::keys::Keypair;
use dcert::query::history::verify_history;
use dcert::query::sp::IndexKind;
use dcert::query::ServiceProvider;
use dcert::sgx::{AttestationService, CostModel};
use dcert::vm::{Executor, StateKey};
use dcert::workloads::blockbench_registry;
use dcert::workloads::kvstore::KvCall;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let executor = Executor::new(Arc::new(blockbench_registry()));
    let engine = Arc::new(ProofOfWork::new(6));
    let (genesis, state) = GenesisBuilder::new().build();

    let mut miner = FullNode::new(
        &genesis,
        state.clone(),
        executor.clone(),
        engine.clone(),
        Address::from_seed(1),
    );
    let mut sp = ServiceProvider::new(&genesis, state.clone(), executor.clone(), engine.clone());
    sp.add_index(IndexKind::History, "history");

    let mut ias = AttestationService::with_seed([42; 32]);
    let mut ci = CertificateIssuer::new(
        &genesis,
        state,
        executor,
        engine,
        sp.verifiers(),
        &mut ias,
        CostModel::calibrated(),
    )?;
    let mut client = SuperlightClient::new(ias.public_key(), expected_measurement());

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
        let block = miner.mine(vec![tx], height)?;
        let inputs = sp.stage_block(&block)?;
        let (block_cert, idx_certs, _) = ci.certify_hierarchical(&block, &inputs)?;
        sp.record_certs(&idx_certs);
        client.validate_chain(&block.header, &block_cert)?;
        client.validate_index("history", inputs[0].new_digest, &idx_certs[0])?;
    }

    // The audit: all versions of the account in blocks [12, 19].
    let account = StateKey::new("kvstore", b"acct:savings:alice");
    let (t1, t2) = (12u64, 19u64);
    let started = std::time::Instant::now();
    let (versions, proof) = sp.history("history").unwrap().query(&account, t1, t2);
    let query_time = started.elapsed();

    let digest = client.index_digest("history").unwrap();
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
