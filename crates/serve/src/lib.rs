//! `dcert-serve` — the multi-client serving front-end.
//!
//! The paper's Service Provider answers one verifiable query at a time;
//! this crate is the tier that makes that answer *many* clients: a
//! request scheduler that *coalesces* identical in-flight queries into
//! one backend call fanned out to every waiter, *caches* hot canonical
//! `(results, proof)` payloads keyed by the query spec and invalidated
//! wholesale whenever the certified height moves, and *bounds admission*
//! with a fixed-capacity queue, a waiter-table cap, and per-client
//! token-bucket rate limits — all on the simulation's virtual clock, so
//! every scheduling decision replays bit-for-bit under a fixed seed.
//!
//! The correctness contract, pinned by `tests/serve_equivalence.rs`, is
//! **byte equivalence**: every response the front serves — coalesced,
//! cached, or fresh — is byte-identical to a direct uncached
//! `ServiceProvider::serve_*` call at the same certified height, and no
//! cached proof survives a height advance. The load and chaos contracts,
//! pinned by `tests/serve_load.rs` and `tests/chaos_network.rs`, are
//! that queues never exceed their bound, every shed request gets a typed
//! [`ServeRefusal`] (never a silent drop), and the `serve.*` metric
//! snapshots are replay-stable on the chaos seed matrix.
//!
//! Layout: [`wire`] (canonical request/response/refusal codecs, held to
//! `dcert-lint` R2 panic-freedom), [`cache`] (generation-keyed FIFO
//! proof cache), [`admission`] (lazy per-client token buckets),
//! [`metrics`] (`serve.*` handles), [`front`] (the scheduler).

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod front;
pub mod metrics;
pub mod wire;

pub use admission::{RateLimit, TokenBuckets, TokenGrant};
pub use cache::ProofCache;
pub use front::{ServeConfig, ServeFront, Submitted};
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
    use dcert_query::sp::IndexKind;
    use dcert_query::ServiceProvider;
    use dcert_vm::{ContractRegistry, Executor, StateKey};

    use crate::admission::RateLimit;
    use crate::front::{ServeConfig, ServeFront, Submitted};
    use crate::wire::{QuerySpec, RefusalReason, ServeRequest, ServeWire};

    /// An SP over a short empty-block chain with all three index kinds.
    fn front_with(config: ServeConfig, blocks: u64) -> ServeFront {
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
            front.advance_staged();
        }
        front
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

    #[test]
    fn contained_op_window_is_answered_without_a_backend_call() {
        let mut front = front_with(ServeConfig::default(), 2);
        let registry = dcert_obs::Registry::new();
        front.attach_obs(&registry);

        front
            .submit(0, history_op_request(1, 1, 0, 100))
            .expect("admitted");
        let deliveries = front.pump(1, 16);
        assert_eq!(deliveries.len(), 1);

        // A strictly narrower window is a synchronous answer derived from
        // the covering cached one — no queue slot, no backend call.
        let hit = front
            .submit(2, history_op_request(2, 9, 10, 50))
            .expect("admitted");
        let Submitted::CacheHit(resp) = hit else {
            panic!("expected window-containment hit, got {hit:?}");
        };
        assert_eq!(resp.id, 9);
        let (results, _proof) =
            crate::wire::decode_history_payload(&resp.payload).expect("payload decodes");
        assert!(results.is_empty(), "empty chain has no versions");

        // The narrowed answer became a first-class cache entry.
        let again = front
            .submit(3, history_op_request(3, 10, 10, 50))
            .expect("admitted");
        assert!(matches!(again, Submitted::CacheHit(_)));

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("serve.window_hits"), 1);
        assert_eq!(snapshot.counter("serve.backend_calls"), 1);
        assert_eq!(snapshot.counter("serve.cache_hits"), 1);
    }

    /// Regression: every height-moving passthrough must clear the
    /// op-window records along with the cache — a surviving record would
    /// let a pre-advance proof answer a post-advance query.
    #[test]
    fn op_window_records_die_with_every_invalidation() {
        let mut front = front_with(ServeConfig::default(), 2);
        front
            .submit(0, history_op_request(1, 1, 0, 100))
            .expect("admitted");
        front.pump(1, 16);

        front.advance_staged();
        let after = front
            .submit(2, history_op_request(2, 2, 10, 50))
            .expect("admitted");
        assert_eq!(
            after,
            Submitted::Enqueued { coalesced: false },
            "a stale covering window must not answer after advance_staged"
        );
        front.pump(3, 16);

        // Same contract across record_certs (no certs staged → no-op on
        // the SP, still a height-consistency barrier for the cache).
        front
            .submit(4, history_op_request(3, 3, 20, 40))
            .expect("admitted");
        front.pump(5, 16);
        front.record_certs(&[]);
        let after = front
            .submit(6, history_op_request(4, 4, 25, 30))
            .expect("admitted");
        assert_eq!(after, Submitted::Enqueued { coalesced: false });
    }

    /// Regression: with `cache_capacity = 0` the pump evicted from an
    /// empty window list (`remove(0)` panic) when answering a `HistoryOp`.
    /// A cache-less front records no windows and serves exactly the
    /// direct-serving bytes.
    #[test]
    fn capacity_zero_front_answers_history_op_without_recording_a_window() {
        let config = ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let mut front = front_with(config, 2);
        let registry = dcert_obs::Registry::new();
        front.attach_obs(&registry);

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
            resp.payload,
            crate::wire::encode_history_payload(&results, &proof)
        );

        // Nothing to narrow from: a contained window goes to the backend.
        let contained = front
            .submit(2, history_op_request(2, 2, 10, 50))
            .expect("admitted");
        assert_eq!(contained, Submitted::Enqueued { coalesced: false });
        assert_eq!(registry.snapshot().counter("serve.window_hits"), 0);
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
        let mut front = front_with(ServeConfig::default(), 2);
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
        front.advance_staged();
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

    #[test]
    fn disconnect_releases_every_waiter_of_a_client() {
        let mut front = front_with(ServeConfig::default(), 1);
        front.submit(0, history_request(9, 1)).expect("admitted");
        front.submit(0, history_request(9, 2)).expect("coalesces");
        front.submit(0, history_request(8, 3)).expect("coalesces");
        assert_eq!(front.disconnect(9), 2);
        assert_eq!(front.parked_waiters(), 1);
        assert_eq!(front.inflight_entries(), 1, "client 8 still waits");
        let deliveries = front.pump(1, 16);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, 8);
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
