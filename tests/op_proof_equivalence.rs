//! Acceptance suite for the window proof — one program per window,
//! executed and checked by one walk (`dcert::merkle::ops`) — on the
//! two-level indexes: range completeness and aggregate windows in one
//! shared-structure proof, with the rejection side a property: omission,
//! tampering and boundary truncation all fail typed.
//!
//! Until `benchmark/driver` stops naming them, `HistoryOp` / `AggregateOp`
//! and every `_op` function are aliases of the plain names: both names of
//! a query are served the same bytes, and both names of a codec or
//! verifier are the same function. The serve-level test drives real
//! certified data.

use std::cell::RefCell;
use std::sync::Arc;

use dcert::primitives::codec::Encode;
use dcert::primitives::hash::Hash;
use dcert::query::aggregate::{verify_aggregate, verify_aggregate_op, AggregateIndex};
use dcert::query::history::{verify_history, verify_history_op, HistoryIndex};
use dcert::query::sp::IndexKind;
use dcert::serve::{
    decode_aggregate_op_payload, decode_aggregate_payload, decode_history_op_payload,
    decode_history_payload, encode_aggregate_op_payload, encode_history_op_payload, QuerySpec,
    ServeConfig, ServeFront, ServeRequest, ServeWire, Submitted,
};
use dcert::vm::StateKey;
use dcert::workloads::Workload;
use dcert::world::{certify_into, World};
use dcert_testkit::{check, reject};

fn key(i: u64) -> StateKey {
    StateKey::new("kvstore", format!("key-{i}").as_bytes())
}

/// Deterministic twin indexes over the same write stream: key `k` writes
/// at height `h` unless `(h + k) % 3 == 0`, so every window mixes present
/// and absent heights and some keys stay untracked entirely.
fn build_indexes(heights: u64, keys: u64) -> (HistoryIndex, AggregateIndex) {
    let mut history = HistoryIndex::new();
    let mut aggregate = AggregateIndex::new();
    for h in 1..=heights {
        let mut writes: Vec<(StateKey, Option<Vec<u8>>)> = Vec::new();
        for k in 0..keys {
            if (h + k) % 3 != 0 {
                writes.push((key(k), Some((h * 10 + k).to_be_bytes().to_vec())));
            }
        }
        writes.sort_by_key(|(k, _)| *k.as_hash());
        history.apply_block(h, &writes);
        aggregate.apply_block(h, &writes);
    }
    (history, aggregate)
}

/// One check of one `(key, window)` pair against both indexes: the answer
/// verifies against the digest, `size_bytes()` is the real encoded
/// length, and the answer survives the payload codec and verifies again —
/// here through the `_op` names, which are the same functions. Factored
/// out so the seed-matrix entry can reuse it at scale.
fn check_pair(history: &HistoryIndex, aggregate: &AggregateIndex, k: u64, t1: u64, t2: u64) {
    let (hd, ad) = (history.digest(), aggregate.digest());

    let (rows, proof) = history.query(&key(k), t1, t2);
    verify_history(&hd, &key(k), t1, t2, &rows, &proof).expect("history verifies");
    assert_eq!(proof.size_bytes(), proof.to_encoded_bytes().len());
    let payload = encode_history_op_payload(&rows, &proof);
    let decoded = decode_history_op_payload(&payload).expect("payload round-trips");
    assert_eq!(decoded, (rows, proof));
    verify_history_op(&hd, &key(k), t1, t2, &decoded.0, &decoded.1).expect("round-trip verifies");

    let (agg, proof) = aggregate.query(&key(k), t1, t2);
    verify_aggregate(&ad, &key(k), t1, t2, &agg, &proof).expect("aggregate verifies");
    assert_eq!(proof.size_bytes(), proof.to_encoded_bytes().len());
    let payload = encode_aggregate_op_payload(&agg, &proof);
    let decoded = decode_aggregate_op_payload(&payload).expect("payload round-trips");
    assert_eq!(decoded, (agg, proof));
    verify_aggregate_op(&ad, &key(k), t1, t2, &decoded.0, &decoded.1).expect("round-trip verifies");
}

/// The windowed spec of `kind` (0 `History`, 1 `HistoryOp`, 2 `Aggregate`,
/// 3 `AggregateOp`) over the indexes [`certified_front`] registers.
fn spec(kind: u64, key: StateKey, t1: u64, t2: u64) -> QuerySpec {
    let index = if kind < 2 { "history" } else { "agg" }.into();
    match kind {
        0 => QuerySpec::History { index, key, t1, t2 },
        1 => QuerySpec::HistoryOp { index, key, t1, t2 },
        2 => QuerySpec::Aggregate { index, key, t1, t2 },
        _ => QuerySpec::AggregateOp { index, key, t1, t2 },
    }
}

/// A front over three certified kvstore blocks with a history and an
/// aggregate index, and the certified history digest.
fn certified_front(config: ServeConfig) -> (ServeFront, Hash) {
    let mut world = World::pow(&[
        (IndexKind::History, "history"),
        (IndexKind::Aggregate, "agg"),
    ]);
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: 8 }, 3, 6, 99);
    let mut front = ServeFront::new(world.sp, config);
    for block in &blocks {
        certify_into(&mut world.ci, &mut front, block);
    }
    let digest = front.sp().digest("history").expect("certified");
    (front, digest)
}

/// **The alias contract.** On real certified data, for arbitrary keys
/// (tracked and not) and windows, `History` and `HistoryOp` — likewise
/// `Aggregate` and `AggregateOp` — are served byte-identical payloads
/// that decode and verify against the certified digest; on dense
/// synthetic indexes, every answer survives the codec and the verifier
/// under their `_op` names.
#[test]
fn prop_both_spec_kinds_are_served_identical_payloads_that_verify() {
    // No cache: every draw of all four kinds reaches the backend.
    let (front, hd) = certified_front(ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let ad = front.sp().digest("agg").expect("certified");
    let front = RefCell::new(front);
    check("prop_both_spec_kinds_are_served_identical", 48, |g| {
        let (probe, a, b) = (g.range(0u64..10), g.range(0u64..5), g.range(0u64..5));
        let (key, t1, t2) = (key(probe), a.min(b), a.max(b));
        let [history, history_op, aggregate, aggregate_op] = [0, 1, 2, 3]
            .map(|kind| pump_one(&mut front.borrow_mut(), spec(kind, key, t1, t2), kind));
        assert_eq!(history, history_op);
        assert_eq!(aggregate, aggregate_op);
        let (rows, proof) = decode_history_payload(&history).expect("payload decodes");
        verify_history(&hd, &key, t1, t2, &rows, &proof).expect("served history verifies");
        let (agg, proof) = decode_aggregate_payload(&aggregate).expect("payload decodes");
        verify_aggregate(&ad, &key, t1, t2, &agg, &proof).expect("served aggregate verifies");
    });

    // Degenerate, clamped and out-of-range windows included.
    let (history, aggregate) = build_indexes(23, 5);
    for (k, t1, t2) in [(0, 3, 17), (4, 9, 9), (2, 0, u64::MAX), (7, 30, 40)] {
        check_pair(&history, &aggregate, k, t1, t2);
    }
}

/// **Rejection.** Omitting a row (middle or window edge), tampering
/// with a value, or shifting a timestamp makes the proof fail — the
/// verifier cannot be talked into a truncated tail.
#[test]
fn prop_op_stream_rejects_omission_and_tampering() {
    check("prop_op_stream_rejects_omission_and_tampering", 48, |g| {
        let (heights, probe, drop_at) = (g.range(6u64..20), g.range(0u64..3), g.range(0usize..32));
        let (history, _) = build_indexes(heights, 3);
        let digest = history.digest();
        let (results, proof) = history.query(&key(probe), 1, heights);
        if results.is_empty() {
            reject();
        }

        // Omission at an arbitrary position (the window edge included);
        // the provably-empty claim, which is just total omission; value
        // tampering; timestamp shifting.
        let mut omitted = results.clone();
        omitted.remove(drop_at % results.len());
        let mut tampered = results.clone();
        tampered[0].1.get_or_insert_with(Vec::new).push(0xFF);
        let mut shifted = results.clone();
        shifted[0].0 = shifted[0].0.wrapping_add(1_000_000);
        for (what, forged) in [
            ("an omitted row", omitted),
            ("emptiness claimed over a populated window", Vec::new()),
            ("a tampered value", tampered),
            ("a shifted timestamp", shifted),
        ] {
            assert!(
                verify_history(&digest, &key(probe), 1, heights, &forged, &proof).is_err(),
                "{what} must be detected"
            );
        }
    });
}

/// Submits one spec and pumps it through the backend, returning the
/// response payload.
fn pump_one(front: &mut ServeFront, query: QuerySpec, id: u64) -> Arc<[u8]> {
    let client = id;
    match front
        .submit(id, ServeRequest { client, id, query })
        .expect("admitted")
    {
        Submitted::Enqueued { .. } => {}
        Submitted::CacheHit(r) => return r.payload,
    }
    let replies = front.pump(id, usize::MAX);
    assert_eq!(replies.len(), 1, "one waiter, one reply");
    match replies.into_iter().next().map(|(_, wire)| wire) {
        Some(ServeWire::Response(r)) => r.payload,
        other => panic!("expected a response, got {other:?}"),
    }
}

/// The CI seed-matrix entry: `CHAOS_SEED=<n> cargo test --test
/// op_proof_equivalence -- --include-ignored` sweeps the per-pair check
/// across a dense window grid under the matrix seed.
#[test]
#[ignore = "seed-matrix scale; run via CHAOS_SEED in CI"]
fn seed_matrix_entry() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    let heights = 16 + seed % 17;
    let (history, aggregate) = build_indexes(heights, 5);
    for k in 0..7u64 {
        for t1 in 1..=heights {
            for t2 in t1..=heights {
                check_pair(&history, &aggregate, k.wrapping_add(seed) % 7, t1, t2);
            }
        }
    }
}
