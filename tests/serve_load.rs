//! Load battery for the `dcert-serve` front-end: a six-figure client
//! population with zipfian keys, bursty arrivals, and slow-loris readers
//! replayed over the virtual clock. Invariants under load:
//!
//! - queues and waiter tables never exceed their configured bounds
//!   (checked via the `serve.*` high-water gauges),
//! - every admitted request reaches exactly one terminal outcome —
//!   response, typed refusal, or client-side cancel; nothing is silently
//!   dropped,
//! - shed traffic is always a *typed* refusal with a reason,
//! - the deterministic `serve.*` metrics are replay-stable: same seed,
//!   same snapshot (`CHAOS_SEED=<n> cargo test --test serve_load --
//!   --include-ignored` runs the full-scale matrix entry).

mod common;

use std::collections::HashMap;

use common::World;
use dcert::chain::Block;
use dcert::obs::{Registry, Snapshot};
use dcert::query::sp::IndexKind;
use dcert::serve::{
    QuerySpec, RateLimit, RefusalReason, ServeConfig, ServeFront, ServeRequest, ServeWire,
    Submitted,
};
use dcert::vm::StateKey;
use dcert::workloads::{ServeEvent, ServeLoadConfig, ServeLoadGen, ServeQueryKind, Workload};

/// Keys the backing kvstore workload writes.
const KEYSPACE: u64 = 64;

/// Queries the front executes per virtual tick during replay.
const PUMP_BUDGET: usize = 48;

/// Outcome tallies plus the final metric snapshot of one load replay.
struct LoadRun {
    submitted: u64,
    cache_hits: u64,
    responses: u64,
    refused_admission: u64,
    refused_pump: u64,
    cancelled: u64,
    snapshot: Snapshot,
}

impl LoadRun {
    fn shed(&self) -> u64 {
        self.refused_admission + self.refused_pump
    }

    /// The terminal-outcome conservation law.
    fn assert_accounted(&self, seed: u64) {
        assert_eq!(
            self.cache_hits + self.responses + self.shed() + self.cancelled,
            self.submitted,
            "CHAOS_SEED={seed}: requests leaked without a terminal outcome"
        );
    }
}

/// Builds a certified three-index world and wraps its SP in a front.
fn certified_front(blocks: usize, config: ServeConfig, obs: &Registry) -> (ServeFront, Vec<Block>) {
    let (mut world, sp) = World::deterministic(vec![
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
        (IndexKind::Aggregate, "agg"),
    ]);
    // One extra block is mined but not staged: the replay stages it
    // halfway through to exercise invalidation under load.
    let mined = world.mine_blocks(Workload::KvStore { keyspace: KEYSPACE }, blocks + 1, 4, 5);
    let mut front = ServeFront::new(sp, config);
    for block in &mined[..blocks] {
        world.certify_into(&mut front, block);
    }
    // Attached after setup so the `serve.*` metrics cover only the load.
    front.attach_obs(obs);
    (front, mined)
}

/// Maps a schedule event onto the three registered indexes.
fn spec_for(event: &ServeEvent, height: u64) -> QuerySpec {
    let key = StateKey::new("kvstore", format!("key-{}", event.key).as_bytes());
    match event.kind {
        ServeQueryKind::History => QuerySpec::History {
            index: "history".to_owned(),
            key,
            t1: 1,
            t2: height.max(1),
        },
        ServeQueryKind::Keywords => QuerySpec::Keywords {
            index: "inverted".to_owned(),
            keywords: vec![format!("key-{}", event.key)],
        },
        ServeQueryKind::Aggregate => QuerySpec::Aggregate {
            index: "agg".to_owned(),
            key,
            t1: 1,
            t2: height.max(1),
        },
        // Op-stream kinds map the schedule's nested [0,100] window onto
        // the certified height range monotonically, so containment in
        // the schedule stays containment in the spec.
        ServeQueryKind::HistoryOp => QuerySpec::HistoryOp {
            index: "history".to_owned(),
            key,
            t1: 1 + event.window.0 * height.max(1) / 100,
            t2: 1 + event.window.1 * height.max(1) / 100,
        },
        ServeQueryKind::AggregateOp => QuerySpec::AggregateOp {
            index: "agg".to_owned(),
            key,
            t1: 1 + event.window.0 * height.max(1) / 100,
            t2: 1 + event.window.1 * height.max(1) / 100,
        },
    }
}

/// Replays the seeded schedule: admit each burst, cancel its slow-loris
/// waiters, spend `PUMP_BUDGET` queries per quiet tick, stage the fresh
/// block halfway through, and drain to empty at the end.
fn run_load(load: ServeLoadConfig, config: ServeConfig, seed: u64) -> LoadRun {
    let obs = Registry::new();
    let (mut front, mined) = certified_front(3, config, &obs);
    let fresh = mined.last().expect("one unstaged block");
    let schedule: Vec<ServeEvent> = ServeLoadGen::new(load, seed).collect();

    let mut run = LoadRun {
        submitted: schedule.len() as u64,
        cache_hits: 0,
        responses: 0,
        refused_admission: 0,
        refused_pump: 0,
        cancelled: 0,
        snapshot: obs.snapshot(),
    };
    let mut admitted: HashMap<u64, u64> = HashMap::new();
    let mut burst_abandons: Vec<(u64, u64)> = Vec::new();
    let mut current_tick = schedule.first().map_or(0, |e| e.tick);
    let half = schedule.len() / 2;

    let drain =
        |front: &mut ServeFront, run: &mut LoadRun, admitted: &mut HashMap<u64, u64>, tick: u64| {
            for (_, wire) in front.pump(tick, PUMP_BUDGET) {
                match wire {
                    ServeWire::Response(response) => {
                        admitted.remove(&response.id);
                        run.responses += 1;
                    }
                    ServeWire::Refusal(refusal) => {
                        admitted.remove(&refusal.id);
                        run.refused_pump += 1;
                    }
                    ServeWire::Request(_) => unreachable!("the front never emits requests"),
                }
            }
        };

    for (i, event) in schedule.iter().enumerate() {
        if event.tick != current_tick {
            for (client, id) in burst_abandons.drain(..) {
                if front.cancel(client, id) {
                    admitted.remove(&id);
                    run.cancelled += 1;
                }
            }
            for tick in current_tick + 1..=event.tick {
                drain(&mut front, &mut run, &mut admitted, tick);
            }
            current_tick = event.tick;
        }
        if i == half {
            front.stage_block(fresh).expect("fresh block stages");
            front.advance_staged();
        }
        let id = i as u64;
        let request = ServeRequest {
            client: event.client,
            id,
            query: spec_for(event, front.sp().index_height()),
        };
        match front.submit(event.tick, request) {
            Ok(Submitted::CacheHit(_)) => run.cache_hits += 1,
            Ok(Submitted::Enqueued { .. }) => {
                admitted.insert(id, event.tick);
                if event.abandon {
                    burst_abandons.push((event.client, id));
                }
            }
            Err(refusal) => {
                // Shed = typed, never silent: every refusal names a reason.
                match refusal.reason {
                    RefusalReason::QueueFull { depth } => assert!(depth > 0),
                    RefusalReason::RateLimited { retry_after_ticks } => {
                        assert!(retry_after_ticks > 0)
                    }
                    RefusalReason::Backlogged { waiters } => assert!(waiters > 0),
                    RefusalReason::UnknownIndex => panic!("all test indexes exist"),
                }
                run.refused_admission += 1;
            }
        }
    }

    for (client, id) in burst_abandons.drain(..) {
        if front.cancel(client, id) {
            admitted.remove(&id);
            run.cancelled += 1;
        }
    }
    let mut tick = current_tick;
    while front.inflight_entries() > 0 {
        tick += 1;
        drain(&mut front, &mut run, &mut admitted, tick);
    }
    assert!(
        admitted.is_empty(),
        "CHAOS_SEED={seed}: waiters silently dropped: {admitted:?}"
    );
    assert_eq!(front.parked_waiters(), 0, "CHAOS_SEED={seed}");
    run.snapshot = obs.snapshot();
    run
}

/// The smoke-scale profile: the full 10⁵-client population, fewer
/// requests than the bench replays.
fn smoke_load(requests: u64) -> ServeLoadConfig {
    ServeLoadConfig {
        requests,
        keyspace: 96,
        slow_loris_permille: 50,
        ..ServeLoadConfig::default()
    }
}

fn tight_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 48,
        max_waiters: 512,
        cache_capacity: 128,
        rate_limit: RateLimit {
            tokens_per_tick: 2,
            burst: 6,
        },
    }
}

/// **Satellite 2a.** 10⁵ clients, bursty zipfian traffic: queues stay
/// within their configured bounds the whole run (high-water gauges), and
/// the request-conservation law holds.
#[test]
fn hundred_thousand_clients_bounded_queues() {
    let seed = 42;
    let config = tight_config();
    let run = run_load(smoke_load(20_000), config, seed);
    run.assert_accounted(seed);
    assert_eq!(run.snapshot.counter("serve.requests"), run.submitted);

    let queue_high = run.snapshot.gauge("serve.queue_high_water");
    assert!(queue_high > 0, "CHAOS_SEED={seed}: load never queued");
    assert!(
        queue_high <= config.queue_capacity as i64,
        "CHAOS_SEED={seed}: queue exceeded its bound: {queue_high} > {}",
        config.queue_capacity
    );
    let waiter_high = run.snapshot.gauge("serve.waiter_high_water");
    assert!(
        waiter_high <= config.max_waiters as i64,
        "CHAOS_SEED={seed}: waiter table exceeded its bound: {waiter_high} > {}",
        config.max_waiters
    );

    // Bursts of 512 against a 48-deep queue must shed — and every shed is
    // accounted in a typed `serve.shed_*` counter.
    assert!(
        run.shed() > 0,
        "CHAOS_SEED={seed}: nothing shed under burst"
    );
    let typed = run.snapshot.counter("serve.shed_queue_full")
        + run.snapshot.counter("serve.shed_rate_limited")
        + run.snapshot.counter("serve.shed_backlogged")
        + run.snapshot.counter("serve.shed_unknown_index");
    assert_eq!(
        typed,
        run.shed(),
        "CHAOS_SEED={seed}: shed requests without a typed reason"
    );

    // Zipfian traffic pays for the machinery: coalescing and the cache
    // both fire, and the mid-run height advance invalidated twice.
    assert!(run.snapshot.counter("serve.coalesce_hits") > 0);
    assert!(run.snapshot.counter("serve.cache_hits") > 0);
    assert_eq!(run.cache_hits, run.snapshot.counter("serve.cache_hits"));
    assert_eq!(run.snapshot.counter("serve.invalidations"), 2);
}

/// **Satellite 2b/4.** Slow-loris clients that abandon admitted requests
/// release their coalescing slots: after the drain no entry and no
/// parked waiter survives, and the release counter saw every cancel.
#[test]
fn slow_loris_abandons_release_coalescing_slots() {
    let seed = 7;
    let load = ServeLoadConfig {
        requests: 4_000,
        slow_loris_permille: 300,
        ..smoke_load(4_000)
    };
    let run = run_load(load, tight_config(), seed);
    run.assert_accounted(seed);
    assert!(
        run.cancelled > 0,
        "CHAOS_SEED={seed}: no abandons generated"
    );
    // `waiters_released` counts entries whose *last* waiter walked away —
    // a subset of the cancels, but never zero under this abandon rate.
    let released = run.snapshot.counter("serve.waiters_released");
    assert!(
        released > 0 && released <= run.cancelled,
        "CHAOS_SEED={seed}: {} entries released for {} cancels",
        released,
        run.cancelled
    );
}

/// **Satellite 2c.** Every admission-refusal variant shows up as a typed
/// reason under an adversarially tight configuration.
#[test]
fn tight_front_sheds_with_every_typed_reason() {
    let (mut front, _) = certified_front(
        2,
        ServeConfig {
            queue_capacity: 2,
            max_waiters: 3,
            cache_capacity: 0,
            rate_limit: RateLimit {
                tokens_per_tick: 1,
                burst: 2,
            },
        },
        &Registry::new(),
    );
    let spec = |k: u64| QuerySpec::History {
        index: "history".to_owned(),
        key: StateKey::new("kvstore", format!("key-{k}").as_bytes()),
        t1: 1,
        t2: 2,
    };
    let submit = |front: &mut ServeFront, client: u64, id: u64, k: u64| {
        front.submit(
            0,
            ServeRequest {
                client,
                id,
                query: spec(k),
            },
        )
    };
    // Two distinct specs fill the queue; three waiters fill the table.
    assert!(submit(&mut front, 1, 0, 0).is_ok()); // c1 spends token #1
    assert!(submit(&mut front, 2, 1, 0).is_ok()); // coalesced: waiter #2
    assert!(submit(&mut front, 3, 2, 1).is_ok()); // entry #2, waiter #3
    let backlogged = submit(&mut front, 4, 3, 0).expect_err("waiter table is full");
    assert!(matches!(
        backlogged.reason,
        RefusalReason::Backlogged { waiters: 3 }
    ));
    // c1 spends token #2 (rate limit is checked before the backlog)…
    assert!(submit(&mut front, 1, 4, 2).is_err()); // backlogged, not rate-limited
                                                   // …so its third same-tick submit exhausts the burst of 2.
    let rate_limited = submit(&mut front, 1, 5, 3).expect_err("burst tokens exhausted");
    assert!(matches!(
        rate_limited.reason,
        RefusalReason::RateLimited { .. }
    ));
    // Drain everything, then fill the 2-deep queue and overflow it.
    let replies = front.pump(1, usize::MAX);
    assert!(!replies.is_empty());
    assert!(front
        .submit(
            3,
            ServeRequest {
                client: 5,
                id: 7,
                query: spec(5)
            }
        )
        .is_ok());
    assert!(front
        .submit(
            3,
            ServeRequest {
                client: 6,
                id: 8,
                query: spec(6)
            }
        )
        .is_ok());
    let queue_full = front
        .submit(
            3,
            ServeRequest {
                client: 7,
                id: 9,
                query: spec(7),
            },
        )
        .expect_err("queue is full");
    assert!(matches!(
        queue_full.reason,
        RefusalReason::QueueFull { depth: 2 }
    ));
}

/// **Satellite 2d.** Replay stability: the same seed produces the same
/// outcome tallies and — after stripping wall-clock metrics — the same
/// canonical snapshot, across the small seed matrix.
#[test]
fn serve_snapshots_are_replay_stable() {
    for seed in [1u64, 42, 1234] {
        let a = run_load(smoke_load(3_000), tight_config(), seed);
        let b = run_load(smoke_load(3_000), tight_config(), seed);
        a.assert_accounted(seed);
        assert_eq!(a.responses, b.responses, "CHAOS_SEED={seed}");
        assert_eq!(a.cache_hits, b.cache_hits, "CHAOS_SEED={seed}");
        assert_eq!(a.shed(), b.shed(), "CHAOS_SEED={seed}");
        assert_eq!(a.cancelled, b.cancelled, "CHAOS_SEED={seed}");
        assert_eq!(
            a.snapshot.without_wall_clock(),
            b.snapshot.without_wall_clock(),
            "CHAOS_SEED={seed}: deterministic serve metrics diverged"
        );
        assert_eq!(
            a.snapshot.without_wall_clock().to_json(),
            b.snapshot.without_wall_clock().to_json(),
            "CHAOS_SEED={seed}: snapshot encoding is not canonical"
        );
    }
}

/// Op-stream load: with the op-query knob enabled, contained windows on
/// hot keys are answered from covering cached op answers (the
/// `serve.window_hits` path) and the whole run stays replay-stable.
#[test]
fn op_query_load_hits_covering_windows_and_replays() {
    let seed = 1234;
    let load = ServeLoadConfig {
        keyspace: 16,
        op_query_permille: 700,
        ..smoke_load(4_000)
    };
    let a = run_load(load, tight_config(), seed);
    let b = run_load(load, tight_config(), seed);
    a.assert_accounted(seed);
    assert!(
        a.snapshot.counter("serve.window_hits") > 0,
        "CHAOS_SEED={seed}: nested op windows never hit a covering answer"
    );
    assert!(
        a.snapshot.counter("serve.backend_calls") > 0,
        "CHAOS_SEED={seed}: op load executed no queries"
    );
    assert_eq!(
        a.snapshot.without_wall_clock(),
        b.snapshot.without_wall_clock(),
        "CHAOS_SEED={seed}: op-query serve metrics diverged"
    );
}

/// The CI seed-matrix entry at full bench scale: `CHAOS_SEED=<n> cargo
/// test --test serve_load -- --include-ignored`.
#[test]
#[ignore = "seed-matrix entry; run with CHAOS_SEED=<n> -- --include-ignored"]
fn seed_matrix_entry() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    let a = run_load(smoke_load(50_000), tight_config(), seed);
    let b = run_load(smoke_load(50_000), tight_config(), seed);
    a.assert_accounted(seed);
    b.assert_accounted(seed);
    assert!(
        a.snapshot.gauge("serve.queue_high_water") <= tight_config().queue_capacity as i64,
        "CHAOS_SEED={seed}: queue bound violated at scale"
    );
    assert_eq!(
        a.snapshot.without_wall_clock(),
        b.snapshot.without_wall_clock(),
        "CHAOS_SEED={seed}: full-scale replay diverged"
    );
}
