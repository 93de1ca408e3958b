//! End-to-end verifiable queries (Section 5 + the Fig. 5 case study):
//! superlight clients verify historical and keyword query results against
//! enclave-certified index digests, and every SP cheating path is caught.

use dcert::chain::Transaction;
use dcert::primitives::hash::hash_bytes;
use dcert::primitives::keys::Keypair;
use dcert::query::history::verify_history;
use dcert::query::inverted::verify_keywords;
use dcert::query::sp::IndexKind;
use dcert::vm::StateKey;
use dcert::workloads::kvstore::KvCall;
use dcert::world::World;
use dcert_primitives::codec::Encode;

/// Drives a chain whose transactions write memo-carrying values to known
/// accounts, with both indexes certified hierarchically.
fn run_scenario(world: &mut World, blocks: u64) {
    let kp = Keypair::from_seed([77; 32]);
    for height in 1..=blocks {
        // Unique per block even across repeated run_scenario calls.
        let nonce = world.miner.height() + 1;
        let memo = match height % 3 {
            0 => format!("dividend stock payout at {height}"),
            1 => format!("bank wire transfer at {height}"),
            _ => format!("stock AND bank combo at {height}"),
        };
        let tx = Transaction::sign(
            &kp,
            nonce,
            "kvstore",
            KvCall::Put {
                key: b"acct-main".to_vec(),
                value: memo.into_bytes(),
            }
            .to_encoded_bytes(),
        );
        let block = world.miner.mine(vec![tx], height).unwrap();
        let inputs = world.sp.stage_block(&block).unwrap();
        let (block_cert, idx_certs, _) = world.ci.certify_hierarchical(&block, &inputs).unwrap();
        world.sp.record_certs(&idx_certs);

        // The client follows along (in reality it would only fetch the
        // latest certificate).
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
}

fn setup(blocks: u64) -> World {
    let mut world = World::pow(&[
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
    ]);
    run_scenario(&mut world, blocks);
    world
}

fn account_key() -> StateKey {
    StateKey::new("kvstore", b"acct-main")
}

#[test]
fn historical_query_verifies_against_certified_digest() {
    let world = setup(12);
    let digest = world.client.index_digest("history").unwrap();
    let (results, proof) = world
        .sp
        .history("history")
        .unwrap()
        .query(&account_key(), 4, 9);
    assert_eq!(results.len(), 6, "one version per block in the window");
    verify_history(&digest, &account_key(), 4, 9, &results, &proof).unwrap();
    // Values carry the block-specific memos.
    let (ts, value) = &results[0];
    assert_eq!(*ts, 4);
    assert!(String::from_utf8(value.clone().unwrap())
        .unwrap()
        .contains("at 4"));
}

#[test]
fn historical_query_for_unknown_account_verifies_empty() {
    let world = setup(6);
    let digest = world.client.index_digest("history").unwrap();
    let ghost = StateKey::new("kvstore", b"no-such-account");
    let (results, proof) = world.sp.history("history").unwrap().query(&ghost, 0, 100);
    assert!(results.is_empty());
    verify_history(&digest, &ghost, 0, 100, &results, &proof).unwrap();
}

#[test]
fn sp_cannot_omit_or_tamper_history_results() {
    let world = setup(12);
    let digest = world.client.index_digest("history").unwrap();
    let (results, proof) = world
        .sp
        .history("history")
        .unwrap()
        .query(&account_key(), 2, 10);

    let mut omitted = results.clone();
    omitted.remove(3);
    assert!(verify_history(&digest, &account_key(), 2, 10, &omitted, &proof).is_err());

    let mut tampered = results;
    tampered[0].1 = Some(b"fabricated balance".to_vec());
    assert!(verify_history(&digest, &account_key(), 2, 10, &tampered, &proof).is_err());
}

#[test]
fn sp_cannot_serve_stale_history_snapshots() {
    // The SP answers from an old index snapshot; the client's certified
    // digest (which tracks the chain tip) must reject it.
    let mut world = setup(6);
    let (old_results, old_proof) =
        world
            .sp
            .history("history")
            .unwrap()
            .query(&account_key(), 0, 100);

    // The chain moves on; the client refreshes its certified digest.
    run_scenario(&mut world, 3);
    let fresh_digest = world.client.index_digest("history").unwrap();
    assert!(
        verify_history(
            &fresh_digest,
            &account_key(),
            0,
            100,
            &old_results,
            &old_proof
        )
        .is_err(),
        "stale snapshot must not verify against the fresh digest"
    );
}

#[test]
fn conjunctive_keyword_query_verifies() {
    let world = setup(12);
    let digest = world.client.index_digest("inverted").unwrap();
    let idx = world.sp.inverted("inverted").unwrap();

    // "stock AND bank" appears in every third block (heights 2, 5, 8, 11).
    let (result, proof) = idx.query(&["stock", "bank"]);
    assert_eq!(result.len(), 4);
    verify_keywords(&digest, &["stock", "bank"], &result, &proof).unwrap();

    // Single keywords.
    let (stock, stock_proof) = idx.query(&["stock"]);
    assert_eq!(stock.len(), 8, "stock appears in 2/3 of blocks");
    verify_keywords(&digest, &["stock"], &stock, &stock_proof).unwrap();

    // Absent keyword conjunct → verified empty.
    let (none, none_proof) = idx.query(&["stock", "unicorn"]);
    assert!(none.is_empty());
    verify_keywords(&digest, &["stock", "unicorn"], &none, &none_proof).unwrap();
}

#[test]
fn sp_cannot_hide_keyword_matches() {
    let world = setup(9);
    let digest = world.client.index_digest("inverted").unwrap();
    let (result, proof) = world
        .sp
        .inverted("inverted")
        .unwrap()
        .query(&["stock", "bank"]);
    assert!(!result.is_empty());
    let mut hidden = result;
    hidden.pop();
    assert!(verify_keywords(&digest, &["stock", "bank"], &hidden, &proof).is_err());
}

#[test]
fn baseline_lineage_index_agrees_on_results() {
    // The LineageChain-style baseline indexes the same chain and must
    // return the same version sets (it is the comparator, not a strawman).
    use dcert::baselines::lineage::{verify_lineage, LineageIndex};

    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let mut lineage = LineageIndex::new();
    let kp = Keypair::from_seed([77; 32]);
    for height in 1..=10u64 {
        let tx = Transaction::sign(
            &kp,
            height,
            "kvstore",
            KvCall::Put {
                key: b"acct-main".to_vec(),
                value: format!("v{height}").into_bytes(),
            }
            .to_encoded_bytes(),
        );
        let block = world.miner.mine(vec![tx], height).unwrap();
        // Maintain the baseline index from the same write sets.
        let execution = world.ci.node().execute(&block.txs);
        let writes: Vec<_> = execution
            .writes
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        lineage.apply_block(height, &writes);
        let inputs = world.sp.stage_block(&block).unwrap();
        let (certs, _) = world.ci.certify_augmented(&block, &inputs).unwrap();
        world.sp.record_certs(&certs);
    }

    let (dcert_results, _) = world
        .sp
        .history("history")
        .unwrap()
        .query(&account_key(), 3, 7);
    let (lineage_results, lineage_proof) = lineage.query(&account_key(), 3, 7);
    assert_eq!(dcert_results, lineage_results);
    verify_lineage(
        &lineage.digest(),
        &account_key(),
        3,
        7,
        &lineage_results,
        &lineage_proof,
    )
    .unwrap();
}

#[test]
fn proofs_survive_serialization() {
    use dcert::primitives::codec::Decode;
    use dcert::query::history::HistoryProof;
    use dcert::query::inverted::KeywordProof;

    let world = setup(8);
    let hdigest = world.client.index_digest("history").unwrap();
    let (hresults, hproof) = world
        .sp
        .history("history")
        .unwrap()
        .query(&account_key(), 2, 6);
    let hproof = HistoryProof::decode_all(&hproof.to_encoded_bytes()).unwrap();
    verify_history(&hdigest, &account_key(), 2, 6, &hresults, &hproof).unwrap();

    let kdigest = world.client.index_digest("inverted").unwrap();
    let (kresults, kproof) = world.sp.inverted("inverted").unwrap().query(&["bank"]);
    let kproof = KeywordProof::decode_all(&kproof.to_encoded_bytes()).unwrap();
    verify_keywords(&kdigest, &["bank"], &kresults, &kproof).unwrap();
}

#[test]
fn query_rejected_against_wrong_digest() {
    let world = setup(6);
    let (results, proof) = world
        .sp
        .history("history")
        .unwrap()
        .query(&account_key(), 0, 10);
    let wrong = hash_bytes(b"not the certified digest");
    assert!(verify_history(&wrong, &account_key(), 0, 10, &results, &proof).is_err());
}
