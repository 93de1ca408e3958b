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

use std::time::Instant;

use dcert_bench::kv_key;
use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_bytes, fmt_duration, short};
use dcert_query::aggregate::verify_aggregate;
use dcert_query::history::verify_history;
use dcert_query::{AggregateIndex, HistoryIndex};
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
        "{:>6} | {:>12} {:>12} {:>7} | {:>12} {:>12} | {:>12}",
        "k", "k proofs", "one proof", "ratio", "k verifies", "one verify", "aggregate"
    );
    println!("{}", "-".repeat(88));
    for &k in WINDOW_WIDTHS {
        let t2 = chain_len;
        let t1 = chain_len - k + 1;

        // k single-version proofs over the window, verified one by one.
        let mut singles_bytes = 0usize;
        let started = Instant::now();
        for ts in t1..=t2 {
            let (results, proof) = history.query(&probe, ts, ts);
            verify_history(&history_digest, &probe, ts, ts, &results, &proof)
                .expect("single-version proof verifies");
            singles_bytes += proof.size_bytes();
        }
        let singles_verify = started.elapsed();

        // One proof for the whole window.
        let (results, proof) = history.query(&probe, t1, t2);
        let window_bytes = proof.size_bytes();
        let started = Instant::now();
        verify_history(&history_digest, &probe, t1, t2, &results, &proof)
            .expect("window proof verifies");
        let window_verify = started.elapsed();
        assert_eq!(results.len() as u64, k, "probe writes every block");

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
            "{k:>6} | {:>12} {:>12} {:>6.2}x | {:>12} {:>12} | {:>12}",
            fmt_bytes(singles_bytes),
            fmt_bytes(window_bytes),
            singles_bytes as f64 / window_bytes.max(1) as f64,
            fmt_duration(singles_verify),
            fmt_duration(window_verify),
            fmt_bytes(agg_bytes),
        );
    }
    println!();
    println!(
        "(window = [tip-k+1, tip]; probe writes every block; digests: history {}, aggregate {})",
        short(&history_digest),
        short(&aggregate_digest)
    );
}
