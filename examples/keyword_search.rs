//! Conjunctive keyword search over blockchain transactions — the paper's
//! second case-study query type ("[Stock AND Bank]", Fig. 5).
//!
//! The Service Provider maintains an inverted keyword index whose
//! dictionary is a sparse Merkle tree certified by the enclave via
//! **augmented** certificates (Algorithm 4): one certificate vouches for
//! the chain *and* the index, and the superlight client tracks both from
//! it alone. Clients get the complete matching transaction set or catch
//! the SP cheating.
//!
//! Run with: `cargo run --example keyword_search`

use dcert::chain::Transaction;
use dcert::primitives::codec::Encode;
use dcert::primitives::keys::Keypair;
use dcert::query::inverted::verify_keywords;
use dcert::query::sp::IndexKind;
use dcert::sgx::CostModel;
use dcert::workloads::kvstore::KvCall;
use dcert::world::{Setup, World};

const MEMOS: &[&str] = &[
    "buy stock ACME quantity 100",
    "bank wire to supplier",
    "sell stock via bank broker",
    "coffee expenses",
    "stock dividend received into bank account",
    "payroll run",
    "bank fee refund",
    "stock split notice",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut world = World::new(Setup {
        indexes: vec![(IndexKind::Inverted, "inverted".to_owned())],
        ..Setup::poa(CostModel::calibrated())
    });

    // One memo-carrying transaction per block, indexed as it lands.
    let sender = Keypair::from_seed([3; 32]);
    let mut memo_of_tx = std::collections::HashMap::new();
    for (i, memo) in MEMOS.iter().enumerate() {
        let tx = Transaction::sign(
            &sender,
            i as u64,
            "kvstore",
            KvCall::Put {
                key: format!("memo-{i}").into_bytes(),
                value: memo.as_bytes().to_vec(),
            }
            .to_encoded_bytes(),
        );
        memo_of_tx.insert(tx.id(), *memo);
        let block = world.mine(vec![tx]);
        let inputs = world.sp.stage_block(&block)?;
        let (certs, _) = world.ci.certify_augmented(&block, &inputs)?;
        // One augmented certificate carries the chain AND the index.
        world.client.validate_chain_with_index(
            &block.header,
            "inverted",
            inputs[0].new_digest,
            &certs[0],
        )?;
        world.sp.advance(Some(&certs))?;
    }
    println!(
        "indexed {} blocks, {} distinct keywords, client height {}",
        MEMOS.len(),
        world.sp.inverted("inverted").unwrap().keywords(),
        world.client.height().unwrap(),
    );

    // The query: every transaction mentioning "stock" AND "bank".
    let digest = world.client.index_digest("inverted").unwrap();
    let (matches, proof) = world
        .sp
        .inverted("inverted")
        .unwrap()
        .query(&["stock", "bank"]);
    verify_keywords(&digest, &["stock", "bank"], &matches, &proof)?;
    println!("\n[stock AND bank] — {} verified matches:", matches.len());
    for id in &matches {
        println!("  {id} : {}", memo_of_tx[id]);
    }
    println!("proof size: {} bytes", proof.size_bytes());

    // Cheating demo: the SP hides one match.
    let mut hidden = matches.clone();
    hidden.pop();
    match verify_keywords(&digest, &["stock", "bank"], &hidden, &proof) {
        Err(e) => println!("\nhidden-match attack detected as expected: {e}"),
        Ok(()) => unreachable!("omission must be caught"),
    }
    Ok(())
}
