//! Serve-load rows of the seeded fault scenario (`tests/scenario`): a
//! six-figure client population with zipfian keys, bursty arrivals and
//! slow-loris readers replayed on the virtual clock through
//! `dcert::world::replay`. Every burst keeps the serve law — each shed a
//! typed refusal with a reason, each request exactly one terminal
//! outcome, no waiter dropped or left parked — and every answer verifies
//! and equals the chain's; these rows add the bounds under load.

mod common;
mod scenario;

use std::collections::BTreeSet;

use dcert::serve::{
    QuerySpec, RateLimit, RefusalReason, ServeConfig, ServeFront, ServeRequest, Submitted,
};
use dcert::workloads::{ServeLoadConfig, Workload};
use dcert::world::{certify_into, kv_key, World, SERVE_INDEXES};
use scenario::{serve_load, smoke_load, tight_config};

/// 10⁵ clients, bursty zipfian traffic: queues stay within their bounds
/// the whole run (high-water gauges), and shed is accounted by reason.
#[test]
fn hundred_thousand_clients_bounded_queues() {
    let config = tight_config();
    let run = serve_load(42, smoke_load(20_000), config).run();
    let (outcome, snapshot) = (&run.outcomes[0], &run.obs);
    assert_eq!(snapshot.counter("serve.requests"), outcome.submitted);

    let queue_high = snapshot.gauge("serve.queue_high_water");
    assert!(queue_high > 0, "load never queued");
    assert!(queue_high <= config.queue_capacity as i64, "queue bound");
    let waiter_high = snapshot.gauge("serve.waiter_high_water");
    assert!(waiter_high <= config.max_waiters as i64, "waiter bound");

    // Bursts of 512 against a 48-deep queue must shed — and every shed is
    // accounted in a typed `serve.shed_*` counter.
    assert!(outcome.shed() > 0, "nothing shed under burst");
    let typed = snapshot.counter("serve.shed_queue_full")
        + snapshot.counter("serve.shed_rate_limited")
        + snapshot.counter("serve.shed_backlogged")
        + snapshot.counter("serve.shed_unknown_index");
    assert_eq!(
        typed,
        outcome.shed(),
        "shed requests without a typed reason"
    );

    // Zipfian traffic pays for the machinery: coalescing and the cache
    // both fire, and the mid-run height advance invalidated once: at its
    // stage, the one step that moves an answer.
    assert!(snapshot.counter("serve.coalesce_hits") > 0);
    assert!(snapshot.counter("serve.cache_hits") > 0);
    assert_eq!(outcome.cache_hits, snapshot.counter("serve.cache_hits"));
    assert_eq!(snapshot.counter("serve.invalidations"), 1);
}

/// A burst of at most 512 requests is one tick: the fresh block stages
/// after its first drain, which a 64-deep queue against 48 queries a tick
/// leaves unfinished, so answers come from both sides of the stage, and
/// what the front cached before it is gone. A request after the burst is
/// never answered from below the live index.
#[test]
fn a_one_tick_burst_stages_under_load() {
    let mut run = serve_load(11, smoke_load(400), ServeConfig::default()).run();
    let live = run.front.sp().height();
    let heights: BTreeSet<u64> = run
        .answers
        .iter()
        .map(|a| a.response.certified_height)
        .collect();
    assert_eq!(
        heights,
        BTreeSet::from([live - 1, live]),
        "answered on both sides"
    );
    let mut hits = 0;
    for (client, answer) in (0u64..).zip(&run.answers) {
        let query = answer.query.clone();
        let request = ServeRequest {
            client,
            id: client,
            query,
        };
        if let Ok(Submitted::CacheHit(response)) = run.front.submit(1 << 20, request) {
            assert_eq!(response.certified_height, live, "{:?}: stale", answer.query);
            hits += 1;
        }
    }
    assert!(hits > 0, "nothing cached after the stage");
}

/// Slow-loris clients that abandon admitted requests release their
/// coalescing slots: `waiters_released` counts entries whose *last*
/// waiter walked away — a subset of the cancels, never zero here.
#[test]
fn slow_loris_abandons_release_coalescing_slots() {
    let slow_loris = ServeLoadConfig {
        slow_loris_permille: 300,
        ..smoke_load(4_000)
    };
    let run = serve_load(7, slow_loris, tight_config()).run();
    let cancelled = run.outcomes[0].cancelled;
    assert!(cancelled > 0, "no abandons generated");
    let released = run.obs.counter("serve.waiters_released");
    assert!(
        released > 0 && released <= cancelled,
        "{released} for {cancelled}"
    );
}

/// Every admission-refusal variant shows up as a typed reason under an
/// adversarially tight configuration.
#[test]
fn tight_front_sheds_with_every_typed_reason() {
    let mut world = World::pow(&SERVE_INDEXES);
    let mined = world.mine_blocks(Workload::KvStore { keyspace: 64 }, 3, 4, 5);
    let mut front = ServeFront::new(
        world.sp,
        ServeConfig {
            queue_capacity: 2,
            max_waiters: 3,
            cache_capacity: 0,
            rate_limit: RateLimit {
                tokens_per_tick: 1,
                burst: 2,
            },
        },
    );
    for block in &mined[..2] {
        certify_into(&mut world.ci, &mut front, block);
    }
    let submit = |front: &mut ServeFront, tick: u64, client: u64, id: u64, k: u64| {
        let query = QuerySpec::History {
            index: "history".into(),
            key: kv_key(k),
            t1: 1,
            t2: 2,
        };
        front.submit(tick, ServeRequest { client, id, query })
    };
    // Two distinct specs fill the queue; three waiters fill the table.
    assert!(submit(&mut front, 0, 1, 0, 0).is_ok()); // c1 spends token #1
    assert!(submit(&mut front, 0, 2, 1, 0).is_ok()); // coalesced: waiter #2
    assert!(submit(&mut front, 0, 3, 2, 1).is_ok()); // entry #2, waiter #3
    let backlogged = submit(&mut front, 0, 4, 3, 0).expect_err("waiter table is full");
    assert!(matches!(
        backlogged.reason,
        RefusalReason::Backlogged { waiters: 3 }
    ));
    // c1 spends token #2 (rate limit is checked before the backlog)…
    assert!(submit(&mut front, 0, 1, 4, 2).is_err()); // backlogged, not rate-limited
                                                      // …so its third same-tick submit exhausts the burst of 2.
    let rate_limited = submit(&mut front, 0, 1, 5, 3).expect_err("burst tokens exhausted");
    assert!(matches!(
        rate_limited.reason,
        RefusalReason::RateLimited { .. }
    ));
    // Drain everything, then fill the 2-deep queue and overflow it.
    let replies = front.pump(1, usize::MAX);
    assert!(!replies.is_empty());
    assert!(submit(&mut front, 3, 5, 7, 5).is_ok());
    assert!(submit(&mut front, 3, 6, 8, 6).is_ok());
    let queue_full = submit(&mut front, 3, 7, 9, 7).expect_err("queue is full");
    assert!(matches!(
        queue_full.reason,
        RefusalReason::QueueFull { depth: 2 }
    ));
}

/// The same seed gives the same tallies and the same canonical
/// snapshot (invariant 4), across the small seed matrix.
#[test]
fn serve_snapshots_are_replay_stable() {
    for seed in [1u64, 42, 1234] {
        serve_load(seed, smoke_load(3_000), tight_config()).run();
    }
}
