//! Equivalence battery for the `dcert-serve` front-end: whatever path a
//! query takes through the scheduler — fresh backend call, coalesced
//! fan-out, or proof-cache hit — the bytes a client receives must be
//! exactly the bytes a direct, uncached `serve_*` call on the wrapped
//! Service Provider produces at the same certified height. And no cached
//! proof may survive the certified height moving.

use std::sync::Arc;

use dcert::chain::ChainError;
use dcert::core::CertError;
use dcert::merkle::MbTree;
use dcert::obs::Registry;
use dcert::query::history::verify_history;
use dcert::query::sp::IndexKind;
use dcert::query::ServiceProvider;
use dcert::serve::{
    encode_aggregate_payload, encode_history_payload, encode_keyword_payload, QuerySpec, RateLimit,
    ServeConfig, ServeFront, ServeRequest, ServeWire, Submitted,
};
use dcert::vm::StateKey;
use dcert::workloads::Workload;
use dcert::world::{certify_into, kv_key, World, SERVE_INDEXES};
use dcert_testkit::{check, Gen};

/// Keyspace the kvstore workload writes; queries draw from a slightly
/// larger space so absence proofs are exercised too.
const KEYSPACE: u64 = 16;

/// Builds a certified world wrapped in a serve front: `blocks` kvstore
/// blocks mined, staged, certified (augmented), and recorded.
fn certified_front(blocks: usize, txs: usize, seed: u64) -> ServeFront {
    let mut world = World::pow(&SERVE_INDEXES);
    let mined = world.mine_blocks(Workload::KvStore { keyspace: KEYSPACE }, blocks, txs, seed);
    let mut front = ServeFront::new(world.sp, ServeConfig::default());
    for block in &mined {
        certify_into(&mut world.ci, &mut front, block);
    }
    front
}

/// What a direct, uncached backend call returns for `spec`, encoded the
/// same way the front encodes response payloads.
fn direct_payload(sp: &ServiceProvider, spec: &QuerySpec) -> Option<Vec<u8>> {
    match spec {
        QuerySpec::History { index, key, t1, t2 } | QuerySpec::HistoryOp { index, key, t1, t2 } => {
            sp.serve_history(index, key, *t1, *t2)
                .map(|(results, proof)| encode_history_payload(&results, &proof))
        }
        QuerySpec::Keywords { index, keywords } => {
            let words: Vec<&str> = keywords.iter().map(String::as_str).collect();
            sp.serve_keywords(index, &words)
                .map(|(results, proof)| encode_keyword_payload(&results, &proof))
        }
        QuerySpec::Aggregate { index, key, t1, t2 }
        | QuerySpec::AggregateOp { index, key, t1, t2 } => sp
            .serve_aggregate(index, key, *t1, *t2)
            .map(|(aggregate, proof)| encode_aggregate_payload(&aggregate, &proof)),
    }
}

/// A random time window inside `1..=height`.
fn arb_window(g: &mut Gen, height: u64) -> (u64, u64) {
    let (a, b) = (g.range(1..=height), g.range(1..=height));
    (a.min(b), a.max(b))
}

/// A random query of any of the five kinds over the three registered
/// indexes.
fn arb_spec(g: &mut Gen, height: u64) -> QuerySpec {
    let kind = g.range(0u8..5);
    if kind == 0 {
        return QuerySpec::Keywords {
            index: "inverted".into(),
            keywords: g.vec(1..3, |g| format!("word-{}", g.range(0..20u64))),
        };
    }
    let (k, (t1, t2)) = (g.range(0..KEYSPACE + 4), arb_window(g, height));
    let key = kv_key(k);
    let (history, agg) = ("history".into(), "agg".into());
    match kind {
        1 => QuerySpec::History {
            index: history,
            key,
            t1,
            t2,
        },
        2 => QuerySpec::HistoryOp {
            index: history,
            key,
            t1,
            t2,
        },
        3 => QuerySpec::Aggregate {
            index: agg,
            key,
            t1,
            t2,
        },
        _ => QuerySpec::AggregateOp {
            index: agg,
            key,
            t1,
            t2,
        },
    }
}

/// Submits `spec` twice (to force a coalesced join), pumps, and returns
/// every response payload — cache hits first, then the fan-out — plus the
/// certified height stamped on it.
fn serve_via_front(
    front: &mut ServeFront,
    spec: &QuerySpec,
    base_id: u64,
) -> Vec<(u64, Arc<[u8]>)> {
    let (mut enqueued, mut served) = (0u64, Vec::new());
    for offset in 0..2u64 {
        let submitted = front.submit(
            offset,
            ServeRequest {
                client: base_id + offset,
                id: base_id + offset,
                query: spec.clone(),
            },
        );
        match submitted.expect("default config admits") {
            // A duplicate spec from an earlier round.
            Submitted::CacheHit(r) => served.push((r.certified_height, r.payload)),
            Submitted::Enqueued { .. } => enqueued += 1,
        }
    }
    let replies = front.pump(2, usize::MAX);
    assert_eq!(replies.len() as u64, enqueued, "one reply per waiter");
    served.extend(replies.into_iter().map(|(_, wire)| match wire {
        ServeWire::Response(r) => (r.certified_height, r.payload),
        other => panic!("known index never refuses: {other:?}"),
    }));
    served
}

/// **Satellite 1a.** Coalesced and cached responses are byte-identical
/// to direct uncached `serve_*` calls at the same certified height —
/// across random chains and random query mixes — and are one buffer: every
/// waiter of a backend answer and every later hit share its payload.
#[test]
fn prop_front_responses_match_direct_serving() {
    check("prop_front_responses_match_direct_serving", 10, |g| {
        let (seed, blocks, txs) = (g.any::<u64>(), g.range(1usize..4), g.range(1usize..4));
        let specs = g.vec(1..6, |g| arb_spec(g, 3));
        let mut front = certified_front(blocks, txs, seed);
        let height = front.sp().height();
        assert_eq!(height, blocks as u64);

        for (i, spec) in specs.iter().enumerate() {
            let direct = direct_payload(front.sp(), spec).expect("indexes are registered");
            // Round 1: backend call + coalesced fan-out.
            let served = serve_via_front(&mut front, spec, 100 * i as u64);
            for (stamped, payload) in &served {
                assert_eq!(*stamped, height, "responses carry the certified height");
                assert_eq!(payload[..], direct[..], "fan-out bytes == direct bytes");
            }
            let answer = Arc::clone(&served[0].1);
            // Round 2: the same spec now comes straight from the proof cache.
            let cached = front.submit(
                3,
                ServeRequest {
                    client: 9_000 + i as u64,
                    id: 9_000 + i as u64,
                    query: spec.clone(),
                },
            );
            match cached.expect("cache hits are admitted") {
                Submitted::CacheHit(response) => {
                    assert_eq!(response.certified_height, height);
                    assert_eq!(
                        response.payload[..],
                        direct[..],
                        "cached bytes == direct bytes"
                    );
                    for payload in served.iter().map(|(_, p)| p).chain([&response.payload]) {
                        assert!(Arc::ptr_eq(payload, &answer), "one buffer per answer");
                    }
                }
                Submitted::Enqueued { .. } => panic!("second round must hit the cache"),
            }
        }
    });
}

/// **Satellite 1b.** Cache invalidation: once a staged block moves the
/// certified height, no response is served from the stale cache — the
/// replayed query is re-executed and returns the new height's bytes.
#[test]
fn prop_no_stale_proof_survives_height_advance() {
    check("prop_no_stale_proof_survives_height_advance", 10, |g| {
        let (seed, probe) = (g.any::<u64>(), g.range(0..KEYSPACE));
        let mut world = World::pow(&SERVE_INDEXES);
        let blocks = world.mine_blocks(Workload::KvStore { keyspace: KEYSPACE }, 3, 4, seed);
        let mut front = ServeFront::new(world.sp, ServeConfig::default());
        certify_into(&mut world.ci, &mut front, &blocks[0]);
        certify_into(&mut world.ci, &mut front, &blocks[1]);

        let spec = QuerySpec::History {
            index: "history".into(),
            key: kv_key(probe),
            t1: 1,
            t2: 2,
        };
        let served = serve_via_front(&mut front, &spec, 0);
        assert!(!served.is_empty());
        let generation = front.cache_generation();
        assert_eq!(front.cached_entries(), 1, "the proof is cached");

        // The certified height moves: stage + record block 3.
        certify_into(&mut world.ci, &mut front, &blocks[2]);
        assert_eq!(front.cached_entries(), 0, "invalidation clears the cache");
        assert!(front.cache_generation() > generation);

        // Replaying the same query misses the cache and re-executes at the
        // new height; its bytes match a fresh direct call, not the stale
        // cache, and its proof verifies against the *new* certified digest.
        let replayed = serve_via_front(&mut front, &spec, 50);
        let direct = direct_payload(front.sp(), &spec).expect("index registered");
        for (stamped, payload) in &replayed {
            assert_eq!(
                *stamped, 3u64,
                "post-advance responses carry the new height"
            );
            assert_eq!(payload[..], direct[..]);
        }
        let (results, proof) =
            dcert::serve::decode_history_payload(&replayed[0].1).expect("payload decodes");
        let digest = front.sp().digest("history").expect("certified");
        assert!(
            verify_history(&digest, &kv_key(probe), 1, 2, &results, &proof).is_ok(),
            "replayed proof verifies against the advanced certified digest"
        );
    });
}

/// Only a stage moves an answer: the stage clears the cache, and a hit
/// after the block settles — certified or not — is the direct bytes at
/// the new height.
#[test]
fn a_hit_after_advance_equals_direct_serving() {
    for certified in [false, true] {
        let mut world = World::pow(&[(IndexKind::History, "history")]);
        let blocks = world.mine_blocks(Workload::KvStore { keyspace: KEYSPACE }, 2, 3, 7);
        let mut front = ServeFront::new(world.sp, ServeConfig::default());
        certify_into(&mut world.ci, &mut front, &blocks[0]);

        let spec = QuerySpec::History {
            index: "history".into(),
            key: kv_key(0),
            t1: 1,
            t2: 2,
        };
        serve_via_front(&mut front, &spec, 0);
        assert_eq!(front.cached_entries(), 1);

        let inputs = front.stage_block(&blocks[1]).expect("stages");
        assert_eq!(front.cached_entries(), 0, "the stage clears the cache");
        let staged = serve_via_front(&mut front, &spec, 10);
        let certs = certified.then(|| world.ci.certify_augmented(&blocks[1], &inputs));
        let certs = certs.map(|issued| issued.expect("certifies").0);
        front.advance(certs.as_deref()).expect("settles");
        assert_eq!(front.cached_entries(), 1, "settling keeps the cache");

        let direct = direct_payload(front.sp(), &spec).expect("index registered");
        let hit = front.submit(
            3,
            ServeRequest {
                client: 99,
                id: 99,
                query: spec.clone(),
            },
        );
        let Ok(Submitted::CacheHit(hit)) = hit else {
            panic!("certified={certified}: expected a hit, got {hit:?}");
        };
        assert_eq!((hit.certified_height, &hit.payload[..]), (2, &direct[..]));
        assert!(Arc::ptr_eq(&hit.payload, &staged[0].1), "one buffer");
    }
}

/// A block the CI refuses is taken back out of the front: an answer
/// cached while it was staged is not served after `rewind`, which
/// invalidates the cache once (`serve.invalidations` + 1); the next
/// answer is the direct bytes of the SP as it was before the block, and
/// the honest block at that height then certifies as usual.
#[test]
fn a_rewound_block_leaves_no_cached_answer_behind() {
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: KEYSPACE }, 2, 3, 7);
    let forged = world.forge_signature(&blocks[1]);
    let registry = Registry::new();
    let mut front = ServeFront::new(world.sp, ServeConfig::default());
    front.attach_obs(&registry);
    certify_into(&mut world.ci, &mut front, &blocks[0]);
    let spec = QuerySpec::History {
        index: "history".into(),
        key: kv_key(0),
        t1: 1,
        t2: 2,
    };
    let before = direct_payload(front.sp(), &spec).expect("index registered");

    let inputs = front
        .stage_block(&forged)
        .expect("the SP follows a forged signature");
    let staged = serve_via_front(&mut front, &spec, 0);
    assert_eq!(staged[0].0, 2, "answered from the staged block");
    assert_eq!(front.cached_entries(), 1);
    let refused = world.ci.certify_augmented(&forged, &inputs).err();
    assert_eq!(refused, Some(CertError::Chain(ChainError::BadTxSignature)));
    let invalidations = || registry.snapshot().counter("serve.invalidations");
    let stale = invalidations();
    assert!(front.rewind(), "the staged block is taken back");
    assert_eq!(invalidations(), stale + 1);
    assert_eq!(front.cached_entries(), 0, "nothing staged survives");
    let served = serve_via_front(&mut front, &spec, 10);
    assert_eq!((served[0].0, &served[0].1[..]), (1, &before[..]));
    assert!(!front.rewind(), "nothing left to take back");
    assert_eq!(invalidations(), stale + 1, "and no second invalidation");

    certify_into(&mut world.ci, &mut front, &blocks[1]);
    let direct = direct_payload(front.sp(), &spec).expect("index registered");
    let served = serve_via_front(&mut front, &spec, 20);
    assert_eq!((served[0].0, &served[0].1[..]), (2, &direct[..]));
}

/// A `HistoryOp` window inside a cached wider one is served its own
/// proof: after the whole history of a key that spans several B-tree
/// leaves is cached, a 3-block window inside it is the direct bytes.
#[test]
fn a_window_inside_a_cached_one_equals_direct_serving() {
    let versions = MbTree::DEFAULT_ORDER as u64 + 4;
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let blocks = world.mine_memos(versions);
    let mut front = ServeFront::new(world.sp, ServeConfig::default());
    for block in &blocks {
        certify_into(&mut world.ci, &mut front, block);
    }
    let window = |t1, t2| QuerySpec::HistoryOp {
        index: "history".into(),
        key: StateKey::new("kvstore", b"acct-main"),
        t1,
        t2,
    };

    let whole = window(1, versions);
    let (rows, _) =
        dcert::serve::decode_history_payload(&serve_via_front(&mut front, &whole, 0)[0].1)
            .expect("payload decodes");
    assert_eq!(rows.len() as u64, versions, "one version per block");
    assert_eq!(front.cached_entries(), 1, "the whole history is cached");

    let inside = window(5, 7);
    let direct = direct_payload(front.sp(), &inside).expect("index registered");
    for (_, payload) in serve_via_front(&mut front, &inside, 10) {
        assert_eq!(payload[..], direct[..], "contained window == direct bytes");
    }
}

/// Unknown indexes refuse with a typed error through the full pipeline —
/// and the refusal never lands in the cache.
#[test]
fn unknown_index_refuses_typed_and_uncached() {
    let mut front = certified_front(1, 2, 11);
    let spec = QuerySpec::History {
        index: "no-such-index".into(),
        key: kv_key(0),
        t1: 1,
        t2: 1,
    };
    let submitted = front.submit(
        0,
        ServeRequest {
            client: 1,
            id: 1,
            query: spec,
        },
    );
    assert!(matches!(submitted, Ok(Submitted::Enqueued { .. })));
    let replies = front.pump(1, usize::MAX);
    assert_eq!(replies.len(), 1);
    match &replies[0].1 {
        ServeWire::Refusal(refusal) => {
            assert_eq!(refusal.id, 1);
            assert_eq!(
                refusal.reason,
                dcert::serve::RefusalReason::UnknownIndex,
                "the shed is typed, not silent"
            );
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(front.cached_entries(), 0, "refusals are not cached");
}

/// Rate-limited clients get typed refusals while other clients' bytes
/// stay equivalent (admission control never corrupts payloads).
#[test]
fn rate_limited_client_does_not_perturb_equivalence() {
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: KEYSPACE }, 1, 3, 13);
    let mut front = ServeFront::new(
        world.sp,
        ServeConfig {
            rate_limit: RateLimit {
                tokens_per_tick: 1,
                burst: 1,
            },
            ..ServeConfig::default()
        },
    );
    certify_into(&mut world.ci, &mut front, &blocks[0]);

    let spec = |k: u64| QuerySpec::History {
        index: "history".into(),
        key: kv_key(k),
        t1: 1,
        t2: 1,
    };
    // Greedy client: first admitted, second refused with retry advice.
    assert!(front
        .submit(
            0,
            ServeRequest {
                client: 7,
                id: 0,
                query: spec(0)
            }
        )
        .is_ok());
    let refused = front
        .submit(
            0,
            ServeRequest {
                client: 7,
                id: 1,
                query: spec(1),
            },
        )
        .expect_err("token bucket is empty");
    assert!(matches!(
        refused.reason,
        dcert::serve::RefusalReason::RateLimited {
            retry_after_ticks: 1
        }
    ));
    // A different client is unaffected and gets exact direct bytes.
    assert!(front
        .submit(
            0,
            ServeRequest {
                client: 8,
                id: 2,
                query: spec(1)
            }
        )
        .is_ok());
    let direct_0 = direct_payload(front.sp(), &spec(0)).expect("registered");
    let direct_1 = direct_payload(front.sp(), &spec(1)).expect("registered");
    for (_, wire) in front.pump(1, usize::MAX) {
        match wire {
            ServeWire::Response(r) if r.id == 0 => assert_eq!(r.payload[..], direct_0[..]),
            ServeWire::Response(r) if r.id == 2 => assert_eq!(r.payload[..], direct_1[..]),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}
