//! Proof-size figure for the op-stream encoding: one op-stream proof for
//! a contiguous window of `k` versions vs. `k` per-path singleton proofs
//! over the same entries, on the two-level history index and the
//! aggregate index.
//!
//! Expected result: the op stream shares every interior node the `k`
//! per-path proofs re-send, so its byte size is strictly smaller from a
//! modest window width on (`k >= 4` is asserted below, at every scale).
//! Both encodings verify against the same certified digest and return
//! byte-identical results — `tests/op_proof_equivalence.rs` pins that;
//! this binary measures the size and time axes.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_proof_bytes`

#![forbid(unsafe_code)]

use std::time::Instant;

use dcert_bench::kv_key;
use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_bytes, fmt_duration, short};
use dcert_query::aggregate::verify_aggregate_op;
use dcert_query::history::{verify_history, verify_history_op};
use dcert_query::{AggregateIndex, HistoryIndex};
use dcert_vm::StateKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Contiguous window widths measured; the op stream must win from
/// `k = 4` on.
const WINDOW_WIDTHS: &[u64] = &[1, 2, 4, 8, 16, 32];

fn main() {
    banner(
        "fig_proof_bytes: op-stream vs per-path proof size for contiguous windows",
        "one shared-structure op proof beats k singleton proofs from k >= 4",
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
        "k", "per-path", "op-stream", "ratio", "pp verify", "op verify", "agg op"
    );
    println!("{}", "-".repeat(88));
    for &k in WINDOW_WIDTHS {
        let t2 = chain_len;
        let t1 = chain_len - k + 1;

        // k singleton per-path proofs over the window, verified one by one.
        let mut perpath_bytes = 0usize;
        let started = Instant::now();
        for ts in t1..=t2 {
            let (results, proof) = history.query(&probe, ts, ts);
            verify_history(&history_digest, &probe, ts, ts, &results, &proof)
                .expect("per-path singleton verifies");
            perpath_bytes += proof.size_bytes();
        }
        let perpath_verify = started.elapsed();

        // One op-stream proof for the whole window.
        let (op_results, op_proof) = history.query_ops(&probe, t1, t2);
        let op_bytes = op_proof.size_bytes();
        let started = Instant::now();
        verify_history_op(&history_digest, &probe, t1, t2, &op_results, &op_proof)
            .expect("op-stream window verifies");
        let op_verify = started.elapsed();
        assert_eq!(op_results.len() as u64, k, "probe writes every block");

        // Aggregate op proof over the same window (no per-path singleton
        // analog: AggQueryProof already covers a window, so we report the
        // op size for scale, not a ratio).
        let (agg, agg_proof) = aggregate.query_ops(&probe, t1, t2);
        verify_aggregate_op(&aggregate_digest, &probe, t1, t2, &agg, &agg_proof)
            .expect("aggregate op window verifies");
        let agg_bytes = agg_proof.size_bytes();

        // The headline: one shared-structure proof replaces k per-path
        // proofs and is strictly smaller from a modest width on.
        assert!(
            k < 4 || op_bytes < perpath_bytes,
            "k={k}: op stream ({op_bytes} B) must beat per-path ({perpath_bytes} B)"
        );
        assert!(agg_bytes > 0, "aggregate op proof is never empty");

        println!(
            "{k:>6} | {:>12} {:>12} {:>6.2}x | {:>12} {:>12} | {:>12}",
            fmt_bytes(perpath_bytes),
            fmt_bytes(op_bytes),
            perpath_bytes as f64 / op_bytes.max(1) as f64,
            fmt_duration(perpath_verify),
            fmt_duration(op_verify),
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
