//! Proof-size figure for window proofs: one proof for a contiguous
//! window of `k` versions vs. `k` single-version proofs over the same
//! entries, on the two-level history index, with the aggregate index's
//! window proof beside it for scale.
//!
//! Expected result: a window proof is one program over one pruned tree,
//! so it sends once every interior node the `k` single-version proofs
//! re-send, and its byte size is strictly smaller from a modest window
//! width on (`k >= 4` is asserted below, at every scale). This binary
//! measures the size and time axes; `tests/op_proof_equivalence.rs` pins
//! what such a proof refuses.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_proof_bytes`

#![forbid(unsafe_code)]

use dcert::world::kv_key;
use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_bytes, short};
use dcert_bench::timing;
use dcert_query::aggregate::verify_aggregate;
use dcert_query::history::verify_history;
use dcert_query::{AggregateIndex, HistoryIndex};
use dcert_sgx::cost::timed;
use dcert_vm::StateKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Contiguous window widths measured; the one window proof must win
/// from `k = 4` on.
const WINDOW_WIDTHS: &[u64] = &[1, 2, 4, 8, 16, 32];

fn main() {
    banner(
        "fig_proof_bytes: one window proof vs k single-version proofs",
        "one shared-structure window proof beats k single-version proofs from k >= 4",
    );
    let chain_len = scaled(2_000).max(32); // the widest window must fit
    let accounts = 64u64;

    // Both indexes ingest the same stream: the probe account writes every
    // block (history gets a version per height, aggregate an 8-byte BE
    // amount), plus background accounts so the trees have real fan-out.
    eprintln!("building {chain_len}-block history + aggregate indexes...");
    let probe = kv_key(0);
    let mut history = HistoryIndex::new("history");
    let mut aggregate = AggregateIndex::new("agg");
    let mut rng = StdRng::seed_from_u64(42);
    for height in 1..=chain_len {
        let mut writes: Vec<(StateKey, Option<Vec<u8>>)> =
            vec![(probe, Some((height % 1_000).to_be_bytes().to_vec()))];
        for _ in 0..4 {
            let acct = rng.gen_range(1..accounts);
            writes.push((kv_key(acct), Some(height.to_be_bytes().to_vec())));
        }
        writes.sort_by_key(|(k, _)| *k.as_hash());
        writes.dedup_by_key(|(k, _)| *k.as_hash());
        history.apply_block(height, &writes);
        aggregate.apply_block(height, &writes);
    }
    let history_digest = history.digest();
    let aggregate_digest = aggregate.digest();

    println!(
        "{:>6} | {:>12} {:>12} {:>7} | {:>31} {:>31} | {:>12}",
        "k", "k proofs", "one proof", "ratio", "k verifies", "one verify", "aggregate"
    );
    println!("{}", "-".repeat(125));
    for &k in WINDOW_WIDTHS {
        let t2 = chain_len;
        let t1 = chain_len - k + 1;

        // k single-version proofs over the window, against one for all of it.
        let singles: Vec<_> = (t1..=t2)
            .map(|ts| (ts, ts, history.query(&probe, ts, ts)))
            .collect();
        let singles_bytes: usize = singles.iter().map(|(_, _, (_, p))| p.size_bytes()).sum();
        let window = [(t1, t2, history.query(&probe, t1, t2))];
        let (_, _, (results, proof)) = &window[0];
        let window_bytes = proof.size_bytes();
        assert_eq!(results.len() as u64, k, "probe writes every block");
        let sides = timing::rounds("", 2, |side| {
            let proofs = if side == 0 { &singles[..] } else { &window[..] };
            let (verified, time) = timed(|| {
                proofs.iter().all(|(t1, t2, (results, proof))| {
                    verify_history(&history_digest, &probe, *t1, *t2, results, proof).is_ok()
                })
            });
            assert!(verified, "every proof verifies");
            ([time], ())
        });
        let ([singles_verify], ()) = sides[0];
        let ([window_verify], ()) = sides[1];

        // The aggregate over the same window: its answer is one value
        // however wide the window, so there is no k-proofs side to set
        // it against — the size is reported for scale, not as a ratio.
        let (agg, agg_proof) = aggregate.query(&probe, t1, t2);
        verify_aggregate(&aggregate_digest, &probe, t1, t2, &agg, &agg_proof)
            .expect("aggregate window proof verifies");
        let agg_bytes = agg_proof.size_bytes();

        // The headline: one shared-structure proof replaces k
        // single-version proofs and is strictly smaller from a modest
        // width on.
        assert!(
            k < 4 || window_bytes < singles_bytes,
            "k={k}: one window proof ({window_bytes} B) must beat k proofs ({singles_bytes} B)"
        );
        assert!(agg_bytes > 0, "an aggregate window proof is never empty");

        println!(
            "{k:>6} | {:>12} {:>12} {:>6.2}x | {:>31} {:>31} | {:>12}",
            fmt_bytes(singles_bytes),
            fmt_bytes(window_bytes),
            singles_bytes as f64 / window_bytes.max(1) as f64,
            singles_verify,
            window_verify,
            fmt_bytes(agg_bytes),
        );
    }
    timing::note();
    println!(
        "(window = [tip-k+1, tip]; probe writes every block; digests: history {}, aggregate {})",
        short(&history_digest),
        short(&aggregate_digest)
    );
}
