//! `dcert-serve` — the multi-client serving front-end.
//!
//! The paper's Service Provider answers one verifiable query at a time;
//! this crate is the tier that makes that answer *many* clients: a
//! request scheduler that *coalesces* identical in-flight queries into
//! one backend call fanned out to every waiter, *caches* hot canonical
//! `(results, proof)` payloads keyed by the query spec and invalidated
//! wholesale whenever a staged block moves the indexes, and *bounds admission*
//! with a fixed-capacity queue, a waiter-table cap, and per-client
//! token-bucket rate limits — all on the simulation's virtual clock, so
//! every scheduling decision replays bit-for-bit under a fixed seed.
//!
//! The correctness contract, pinned by `tests/serve_equivalence.rs`, is
//! **byte equivalence**: every response the front serves — coalesced,
//! cached, or fresh, for every `QuerySpec` kind — is byte-identical to a
//! direct uncached `ServiceProvider::serve_*` call at the same certified
//! height, and no cached proof survives a height advance. The load and
//! chaos contracts, pinned by `tests/serve_load.rs` and
//! `tests/chaos_network.rs`, are that queues never exceed their bound,
//! every shed request gets a typed [`ServeRefusal`] (never a silent
//! drop), and the `serve.*` metric snapshots are replay-stable on the
//! chaos seed matrix.
//!
//! Layout: [`wire`] (canonical request/response/refusal codecs, panic-free
//! on any input), [`cache`] (generation-keyed FIFO
//! proof cache), [`hasher`] (the keyed fast hash of the cache and the
//! coalescing table), [`admission`] (lazy per-client token buckets),
//! [`metrics`] (`serve.*` handles), [`front`] (the scheduler).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod admission;
pub mod cache;
pub mod front;
pub mod hasher;
pub mod metrics;
pub mod wire;

pub use admission::{RateLimit, TokenBuckets, TokenGrant};
pub use cache::ProofCache;
pub use front::{ServeConfig, ServeFront, Submitted};
pub use hasher::FoldState;
pub use metrics::ServeMetrics;
pub use wire::{
    decode_aggregate_op_payload, decode_aggregate_payload, decode_history_op_payload,
    decode_history_payload, decode_keyword_payload, encode_aggregate_op_payload,
    encode_aggregate_payload, encode_history_op_payload, encode_history_payload,
    encode_keyword_payload, QuerySpec, RefusalReason, ServeRefusal, ServeRequest, ServeResponse,
    ServeWire,
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dcert_chain::{ConsensusEngine, FullNode, GenesisBuilder, ProofOfWork};
    use dcert_obs::Registry;
    use dcert_query::sp::IndexKind;
    use dcert_query::ServiceProvider;
    use dcert_vm::{ContractRegistry, Executor, StateKey};

    use crate::admission::RateLimit;
    use crate::front::{ServeConfig, ServeFront, Submitted};
    use crate::wire::{QuerySpec, RefusalReason, ServeRequest, ServeWire};

    /// An SP over a short empty-block chain with all three index kinds.
    fn front_with(config: ServeConfig, blocks: u64) -> ServeFront {
        front_and_miner(config, blocks).0
    }

    /// [`front_with`], plus the miner to extend its chain with.
    fn front_and_miner(config: ServeConfig, blocks: u64) -> (ServeFront, FullNode) {
        let executor = Executor::new(Arc::new(ContractRegistry::new()));
        let engine: Arc<dyn ConsensusEngine> = Arc::new(ProofOfWork::new(1));
        let (genesis, state) = GenesisBuilder::new().timestamp(1_700_000_000).build();
        let mut miner = FullNode::new(
            &genesis,
            state.clone(),
            executor.clone(),
            engine.clone(),
            dcert_primitives::hash::Address::from_seed(0xF00D),
        );
        let mut sp = ServiceProvider::new(&genesis, state, executor, engine);
        sp.add_index(IndexKind::History, "history");
        sp.add_index(IndexKind::Inverted, "inverted");
        sp.add_index(IndexKind::Aggregate, "agg");
        let mut front = ServeFront::new(sp, config);
        for height in 1..=blocks {
            let block = miner.mine(Vec::new(), height).expect("mines");
            front.stage_block(&block).expect("stages");
            front.advance(None).expect("settles");
        }
        (front, miner)
    }

    /// Stages the miner's next (empty) block through `front`.
    fn stage_next(front: &mut ServeFront, miner: &mut FullNode) {
        let block = miner.mine(Vec::new(), miner.height() + 1).expect("mines");
        front.stage_block(&block).expect("stages");
    }

    fn history_request(client: u64, id: u64) -> ServeRequest {
        ServeRequest {
            client,
            id,
            query: QuerySpec::History {
                index: "history".into(),
                key: StateKey::new("kvstore", b"acct"),
                t1: 0,
                t2: 10,
            },
        }
    }

    fn history_op_request(client: u64, id: u64, t1: u64, t2: u64) -> ServeRequest {
        ServeRequest {
            client,
            id,
            query: QuerySpec::HistoryOp {
                index: "history".into(),
                key: StateKey::new("kvstore", b"acct"),
                t1,
                t2,
            },
        }
    }

    /// A cache-less front serves a `HistoryOp` exactly the direct-serving
    /// bytes, and a repeat goes back to the backend.
    #[test]
    fn capacity_zero_front_answers_history_op_without_recording_a_window() {
        let config = ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let mut front = front_with(config, 2);
        front
            .submit(0, history_op_request(1, 1, 0, 100))
            .expect("admitted");
        let deliveries = front.pump(1, 16);
        let [(1, ServeWire::Response(resp))] = deliveries.as_slice() else {
            panic!("expected one response, got {deliveries:?}");
        };
        let key = StateKey::new("kvstore", b"acct");
        let (results, proof) = front
            .sp()
            .serve_history("history", &key, 0, 100)
            .expect("index registered");
        assert_eq!(
            resp.payload[..],
            crate::wire::encode_history_payload(&results, &proof)[..]
        );

        let repeat = front
            .submit(2, history_op_request(2, 2, 0, 100))
            .expect("admitted");
        assert_eq!(repeat, Submitted::Enqueued { coalesced: false });
    }

    #[test]
    fn aggregate_op_queries_execute_through_the_pump() {
        let mut front = front_with(ServeConfig::default(), 1);
        front
            .submit(0, {
                ServeRequest {
                    client: 1,
                    id: 5,
                    query: QuerySpec::AggregateOp {
                        index: "agg".into(),
                        key: StateKey::new("kvstore", b"acct"),
                        t1: 0,
                        t2: 50,
                    },
                }
            })
            .expect("admitted");
        let deliveries = front.pump(1, 16);
        assert_eq!(deliveries.len(), 1);
        let ServeWire::Response(resp) = &deliveries[0].1 else {
            panic!("expected response");
        };
        let (agg, _proof) =
            crate::wire::decode_aggregate_payload(&resp.payload).expect("payload decodes");
        assert_eq!(agg, dcert_merkle::Aggregate::EMPTY);
    }

    #[test]
    fn identical_queries_coalesce_into_one_backend_call() {
        let mut front = front_with(ServeConfig::default(), 2);
        assert_eq!(
            front.submit(0, history_request(1, 100)),
            Ok(Submitted::Enqueued { coalesced: false })
        );
        assert_eq!(
            front.submit(0, history_request(2, 200)),
            Ok(Submitted::Enqueued { coalesced: true })
        );
        assert_eq!(front.inflight_entries(), 1);
        assert_eq!(front.parked_waiters(), 2);

        let deliveries = front.pump(3, 16);
        assert_eq!(deliveries.len(), 2, "one reply per waiter");
        let ServeWire::Response(a) = &deliveries[0].1 else {
            panic!("expected response");
        };
        let ServeWire::Response(b) = &deliveries[1].1 else {
            panic!("expected response");
        };
        assert_eq!(a.payload, b.payload, "fanned-out payloads are identical");
        assert_eq!((a.id, b.id), (100, 200), "ids are per-waiter");
        assert_eq!(front.inflight_entries(), 0);
        assert_eq!(front.parked_waiters(), 0);
    }

    #[test]
    fn second_round_is_a_cache_hit_until_invalidated() {
        let (mut front, mut miner) = front_and_miner(ServeConfig::default(), 2);
        front.submit(0, history_request(1, 1)).expect("admitted");
        let first = front.pump(1, 16);
        let ServeWire::Response(fresh) = &first[0].1 else {
            panic!("expected response");
        };
        let hit = front.submit(2, history_request(3, 9)).expect("admitted");
        match hit {
            Submitted::CacheHit(resp) => {
                assert_eq!(resp.payload, fresh.payload);
                assert_eq!(resp.certified_height, fresh.certified_height);
                assert_eq!(resp.id, 9, "cache hits are re-stamped per request");
            }
            other => panic!("expected cache hit, got {other:?}"),
        }
        let generation = front.cache_generation();
        stage_next(&mut front, &mut miner);
        assert_eq!(front.cache_generation(), generation + 1);
        assert_eq!(front.cached_entries(), 0, "invalidation clears the cache");
        assert_eq!(
            front.submit(3, history_request(4, 10)),
            Ok(Submitted::Enqueued { coalesced: false }),
            "post-invalidation lookups miss"
        );
    }

    #[test]
    fn queue_and_waiter_bounds_shed_with_typed_reasons() {
        let mut front = front_with(
            ServeConfig {
                queue_capacity: 1,
                max_waiters: 2,
                ..ServeConfig::default()
            },
            1,
        );
        front.submit(0, history_request(1, 1)).expect("admitted");
        // Distinct query, queue full.
        let refused = front
            .submit(0, {
                let mut r = history_request(2, 2);
                if let QuerySpec::History { t2, .. } = &mut r.query {
                    *t2 = 99;
                }
                r
            })
            .expect_err("queue is full");
        assert!(matches!(refused.reason, RefusalReason::QueueFull { .. }));
        // Identical query coalesces despite the full queue.
        front.submit(0, history_request(3, 3)).expect("coalesces");
        // Waiter table now full; even a coalescible request is refused.
        let refused = front
            .submit(0, history_request(4, 4))
            .expect_err("waiter table is full");
        assert!(matches!(refused.reason, RefusalReason::Backlogged { .. }));
    }

    #[test]
    fn rate_limit_sheds_with_retry_hint() {
        let mut front = front_with(
            ServeConfig {
                rate_limit: RateLimit {
                    tokens_per_tick: 1,
                    burst: 1,
                },
                ..ServeConfig::default()
            },
            1,
        );
        front.submit(5, history_request(7, 1)).expect("admitted");
        let refused = front
            .submit(5, history_request(7, 2))
            .expect_err("bucket empty");
        assert_eq!(
            refused.reason,
            RefusalReason::RateLimited {
                retry_after_ticks: 1
            }
        );
        // One tick later the bucket has a token again.
        front.submit(6, history_request(7, 3)).expect("refilled");
    }

    /// Regression (slow-loris fix): a pending entry whose every waiter
    /// abandoned it releases its coalescing slot — no leaked in-flight
    /// entries, and no backend call is spent on it.
    #[test]
    fn abandoned_waiters_release_their_coalescing_slot() {
        let mut front = front_with(ServeConfig::default(), 1);
        front.submit(0, history_request(1, 10)).expect("admitted");
        front.submit(0, history_request(2, 20)).expect("coalesces");
        assert_eq!(front.inflight_entries(), 1);
        assert_eq!(front.parked_waiters(), 2);

        assert!(front.cancel(1, 10), "first waiter leaves");
        assert_eq!(front.inflight_entries(), 1, "entry lives while waited on");
        assert!(front.cancel(2, 20), "last waiter leaves");
        assert_eq!(front.inflight_entries(), 0, "entry released with it");
        assert_eq!(front.parked_waiters(), 0);
        assert!(!front.cancel(2, 20), "double-cancel finds nothing");

        assert!(
            front.pump(1, 16).is_empty(),
            "no backend reply for an abandoned query"
        );
    }

    /// A client that parks one id under two pending specs loses it on the
    /// first-arrived spec, on every front: which waiter goes must not
    /// follow the order of a table keyed by the front's own seeds.
    #[test]
    fn cancel_of_a_reused_id_drops_the_first_arrived_spec_on_every_front() {
        let window = |client: u64, id: u64, t2: u64| {
            let mut request = history_request(client, id);
            if let QuerySpec::History { t2: end, .. } = &mut request.query {
                *end = t2;
            }
            request
        };
        let replies = || {
            let mut front = front_with(ServeConfig::default(), 1);
            for request in [
                window(1, 7, 10),
                window(1, 7, 20),
                window(2, 10, 10),
                window(2, 11, 20),
            ] {
                front.submit(0, request).expect("admitted");
            }
            assert!(front.cancel(1, 7));
            let delivered: Vec<(u64, u64)> = front
                .pump(1, 16)
                .iter()
                .map(|(client, wire)| match wire {
                    ServeWire::Response(resp) => (*client, resp.id),
                    other => panic!("expected a response, got {other:?}"),
                })
                .collect();
            delivered
        };
        let expected = vec![(2, 10), (1, 7), (2, 11)];
        assert_eq!(
            replies(),
            expected,
            "the t2 = 10 spec, first to arrive, lost its waiter"
        );
        assert_eq!(replies(), expected, "on a second front too");
    }

    /// What `front` keeps, as its `Debug` spells it without the metric
    /// handles (and without the token buckets unless `tokens`), beside
    /// its SP's index height and digests.
    fn kept(front: &ServeFront, tokens: bool) -> String {
        let debug = format!("{front:?}");
        let fields = debug.split(", metrics: ").next().unwrap_or_default();
        let fields = match fields.split_once(", buckets: ") {
            Some((head, rest)) if !tokens => {
                let tail = rest.split_once(", arrival_order: ").map_or("", |(_, t)| t);
                format!("{head}, {tail}")
            }
            _ => fields.to_owned(),
        };
        let sp = front.sp();
        let digests = ["history", "inverted", "agg"].map(|name| sp.digest(name));
        format!("{fields} {} {digests:?}", sp.height())
    }

    /// Runs `refuse`, which must refuse, and checks that nothing `front`
    /// keeps moved and that of its metrics only the `moved` counters did,
    /// each by one.
    fn refused_cleanly(
        front: &mut ServeFront,
        registry: &Registry,
        (moved, tokens): (&[&str], bool),
        refuse: impl FnOnce(&mut ServeFront) -> bool,
    ) {
        let (was, mut metrics) = (
            kept(front, tokens),
            registry.snapshot().without_wall_clock(),
        );
        assert!(refuse(front), "{moved:?}: not refused");
        assert_eq!(kept(front, tokens), was, "{moved:?}: the front moved");
        let mut now = registry.snapshot().without_wall_clock();
        for name in moved {
            let before = metrics.counters.remove(*name).unwrap_or(0);
            assert_eq!(now.counters.remove(*name), Some(before + 1), "{name}");
        }
        assert_eq!(now, metrics, "{moved:?}: other metrics moved");
    }

    /// Every `ServeFront` call that can return `Err` leaves what the front
    /// keeps, and its metrics apart from the refusal's counter, as they
    /// were. A refused `submit` also counts the request (`serve.requests`,
    /// the offered load), and one refused for a full waiter table or queue
    /// has already spent the client's token, the admission order
    /// `ServeFront::submit` documents as policy, which this test pins.
    #[test]
    fn a_refused_call_changes_nothing() {
        let config = ServeConfig {
            queue_capacity: 1,
            max_waiters: 2,
            rate_limit: RateLimit {
                tokens_per_tick: 1,
                burst: 1,
            },
            ..ServeConfig::default()
        };
        let (mut front, mut miner) = front_and_miner(config, 1);
        let registry = Registry::new();
        front.attach_obs(&registry);
        let ask = |front: &mut ServeFront, client: u64, t2: u64| {
            let mut request = history_request(client, client);
            if let QuerySpec::History { t2: window, .. } = &mut request.query {
                *window = t2;
            }
            front.submit(0, request).is_err()
        };
        let shed = |reason: &'static str| ["serve.requests", reason];
        assert!(!ask(&mut front, 1, 10));
        let limited = shed("serve.shed_rate_limited");
        refused_cleanly(&mut front, &registry, (&limited, true), |f| ask(f, 1, 10));
        assert!(!ask(&mut front, 2, 10));
        for (client, t2, reason) in [
            (3, 10, "serve.shed_backlogged"),
            (5, 99, "serve.shed_queue_full"),
        ] {
            if client == 5 {
                front.pump(1, 16);
                assert!(!ask(&mut front, 4, 50));
            }
            let before = kept(&front, true);
            refused_cleanly(&mut front, &registry, (&shed(reason), false), |f| {
                ask(f, client, t2)
            });
            assert_ne!(kept(&front, true), before, "{reason}: no token spent");
        }
        front.pump(2, 16);

        // Blocks that do not follow the SP's tip, then certificate lists
        // the staged block refuses.
        let next = miner.mine(Vec::new(), 2).expect("mines");
        let unlinked = miner.mine(Vec::new(), 3).expect("mines");
        let mut wrong_root = next.clone();
        wrong_root.header.state_root = dcert_primitives::hash::hash_bytes(b"not the root");
        ProofOfWork::new(1)
            .seal(&mut wrong_root.header)
            .expect("seals");
        for block in [&unlinked, &wrong_root] {
            refused_cleanly(&mut front, &registry, (&[], true), |f| {
                f.stage_block(block).is_err()
            });
        }
        front.stage_block(&next).expect("the honest block stages");
        let short = |f: &mut ServeFront| f.advance(Some(&[])).is_err();
        refused_cleanly(&mut front, &registry, (&[], true), short);
        let short = |f: &mut ServeFront| f.record_certs(&[]).is_err();
        refused_cleanly(&mut front, &registry, (&[], true), short);
        front.advance(None).expect("the staged block settles");
    }

    #[test]
    fn unknown_index_refuses_at_pump_time() {
        let mut front = front_with(ServeConfig::default(), 1);
        front
            .submit(0, {
                let mut r = history_request(1, 77);
                if let QuerySpec::History { index, .. } = &mut r.query {
                    *index = "nope".into();
                }
                r
            })
            .expect("admission cannot know the index set");
        let deliveries = front.pump(1, 16);
        assert_eq!(deliveries.len(), 1);
        match &deliveries[0].1 {
            ServeWire::Refusal(refusal) => {
                assert_eq!(refusal.id, 77);
                assert_eq!(refusal.reason, RefusalReason::UnknownIndex);
            }
            other => panic!("expected typed refusal, got {other:?}"),
        }
    }
}
