//! Figure 11: verifiable historical queries — latency (11a) and proof size
//! (11b) vs. the distance of the queried time window from the latest
//! block, DCert's two-level SMT+MB-tree index against the
//! LineageChain-style skip-list index.
//!
//! Paper result: DCert is faster with smaller proofs at every distance;
//! the skip-list baseline degrades as the window moves away from the tip
//! (its traversal starts at the newest version).
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig11_queries`

#![forbid(unsafe_code)]

use dcert::world::kv_key;
use dcert_baselines::lineage::{verify_lineage, LineageIndex};
use dcert_bench::params::{scaled, QUERY_ACCOUNTS, QUERY_CHAIN_LENGTH, WINDOW_DISTANCES};
use dcert_bench::report::{banner, fmt_bytes, short};
use dcert_bench::timing;
use dcert_query::history::verify_history;
use dcert_query::HistoryIndex;
use dcert_sgx::cost::timed;
use dcert_vm::StateKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    banner(
        "Figure 11: verifiable query latency & proof size vs window distance",
        "DCert (SMT + MB-tree) beats the LineageChain-style skip list on both axes",
    );
    let chain_len = scaled(QUERY_CHAIN_LENGTH);
    let accounts = QUERY_ACCOUNTS;

    // Build both indexes from the same update stream: every block updates
    // a handful of the 500 tuples, and the probe account every block (so
    // every window contains versions).
    eprintln!("building {chain_len}-block indexes over {accounts} accounts...");
    let probe = kv_key(0);
    let mut dcert_idx = HistoryIndex::new();
    let mut lineage_idx = LineageIndex::new();
    let mut rng = StdRng::seed_from_u64(42);
    for height in 1..=chain_len {
        let mut writes: Vec<(StateKey, Option<Vec<u8>>)> =
            vec![(probe, Some(format!("probe-balance-{height}").into_bytes()))];
        for _ in 0..4 {
            let acct = rng.gen_range(1..accounts);
            writes.push((
                kv_key(acct),
                Some(format!("balance-{acct}-{height}").into_bytes()),
            ));
        }
        writes.sort_by_key(|(k, _)| *k.as_hash());
        writes.dedup_by_key(|(k, _)| *k.as_hash());
        dcert_idx.apply_block(height, &writes);
        lineage_idx.apply_block(height, &writes);
    }
    let dcert_digest = dcert_idx.digest();
    let lineage_digest = lineage_idx.digest();

    println!(
        "{:>9} | {:>31} {:>31} {:>10} | {:>31} {:>31} {:>10}",
        "distance", "DCert query", "verify", "proof", "LC query", "verify", "proof"
    );
    println!("{}", "-".repeat(166));
    for &distance in WINDOW_DISTANCES {
        // The window reaches back `distance` blocks from the chain tip
        // (the paper grows the window away from the latest block).
        let distance = scaled(distance).min(chain_len);
        let t2 = chain_len;
        let t1 = chain_len - distance + 1;

        // DCert's two-level index against the LineageChain-style baseline.
        let sides = timing::rounds("results and proof bytes", 2, |side| {
            if side == 0 {
                let ((results, proof), query) = timed(|| dcert_idx.query(&probe, t1, t2));
                let verdict = || verify_history(&dcert_digest, &probe, t1, t2, &results, &proof);
                let ((), verify) = timed(|| verdict().expect("dcert query verifies"));
                ([query, verify], (results, proof.size_bytes()))
            } else {
                let ((results, proof), query) = timed(|| lineage_idx.query(&probe, t1, t2));
                let verdict = || verify_lineage(&lineage_digest, &probe, t1, t2, &results, &proof);
                let ((), verify) = timed(|| verdict().expect("baseline query verifies"));
                ([query, verify], (results, proof.size_bytes()))
            }
        });
        let ([d_query, d_verify], (d_results, d_bytes)) = &sides[0];
        let ([l_query, l_verify], (l_results, l_bytes)) = &sides[1];

        // Fig. 11b: same answer, smaller proof, at every distance.
        assert_eq!(d_results, l_results, "both indexes must agree");
        assert_eq!(d_results.len() as u64, distance, "probe writes every block");
        assert!(
            d_bytes < l_bytes,
            "distance {distance}: DCert proof ({} B) must undercut the skip list ({} B)",
            d_bytes,
            l_bytes
        );

        println!(
            "{distance:>9} | {d_query:>31} {d_verify:>31} {:>10} | {l_query:>31} {l_verify:>31} {:>10}",
            fmt_bytes(*d_bytes),
            fmt_bytes(*l_bytes),
        );
    }
    timing::note();
    println!(
        "(window = [tip-distance+1, tip]; probe account updated every block; \
         digests: dcert {}, lineage {})",
        short(&dcert_digest),
        short(&lineage_digest)
    );
}
