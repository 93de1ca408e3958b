//! Serving front-end under a 10⁵-client zipfian load: how much backend
//! work coalescing and proof caching save, and what admission control
//! sheds when bursts exceed the service budget.
//!
//! Not a paper figure — the paper serves each query directly from the
//! SP's indexes. This measures the `dcert-serve` layer on top: the same
//! deterministic schedule (`ServeLoadGen`: zipfian keys, bursty
//! arrivals, slow-loris abandons) is replayed against fronts that differ
//! only in proof-cache capacity, so the backend-call column isolates
//! what the cache buys over coalescing alone.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_serve`
//! (use `DCERT_SCALE=0.02` for a quick pass).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::time::Instant;

use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_duration};
use dcert_bench::{kv_key, shape, Rig, RigConfig};
use dcert_chain::Block;
use dcert_obs::Registry;
use dcert_query::sp::IndexKind;
use dcert_query::ServiceProvider;
use dcert_serve::{
    QuerySpec, RateLimit, ServeConfig, ServeFront, ServeRequest, ServeWire, Submitted,
};
use dcert_sgx::CostModel;
use dcert_workloads::{ServeEvent, ServeLoadConfig, ServeLoadGen, ServeQueryKind, Workload};

/// Blocks of indexed history behind the front (scaled by `DCERT_SCALE`).
const HISTORY_BLOCKS: u64 = 240;

/// Transactions per mined block.
const TXS_PER_BLOCK: usize = 24;

/// Requests replayed per cache configuration (scaled by `DCERT_SCALE`).
const REQUESTS: u64 = 50_000;

/// Queries the front executes per virtual tick (the service budget; a
/// burst larger than `gap × budget` backlogs into the next burst).
const PUMP_BUDGET: usize = 64;

/// Proof-cache capacities swept; 0 isolates coalescing alone.
const CACHE_CAPACITIES: &[usize] = &[0, 64, 1024];

fn main() {
    banner(
        "Serving front-end: coalescing + proof caching vs backend load",
        "zipfian traffic turns most queries into cache or coalescing hits",
    );

    let obs = Registry::new();
    let mut rig = Rig::new(RigConfig {
        cost: CostModel::zero(),
        indexes: vec![
            (IndexKind::History, "history".to_owned()),
            (IndexKind::Inverted, "inverted".to_owned()),
            (IndexKind::Aggregate, "agg".to_owned()),
        ],
        obs: obs.clone(),
    });

    let blocks = scaled(HISTORY_BLOCKS);
    eprintln!("building {blocks}-block certified history (kvstore workload)...");
    rig.run(
        Workload::KvStore { keyspace: 500 },
        blocks,
        TXS_PER_BLOCK,
        42,
        dcert_bench::Scheme::Augmented,
    );

    // One pre-mined block per swept configuration: each replay stages it
    // halfway through, exercising the strict-invalidation path under load
    // (heights stay consecutive across the sweep).
    let mut gen = rig.generator(Workload::KvStore { keyspace: 500 }, 43);
    let freshen: Vec<Block> = (0..CACHE_CAPACITIES.len())
        .map(|_| rig.mine(gen.next_block(TXS_PER_BLOCK)))
        .collect();

    // The front takes ownership of the SP; leave a fresh stand-in on the
    // rig so it stays whole.
    let mut sp = std::mem::replace(
        &mut rig.sp,
        ServiceProvider::new(
            &rig.genesis,
            rig.genesis_state.clone(),
            rig.executor.clone(),
            rig.engine.clone(),
        ),
    );

    let load = ServeLoadConfig {
        requests: scaled(REQUESTS),
        ..ServeLoadConfig::default()
    };
    let schedule: Vec<ServeEvent> = ServeLoadGen::new(load, 7).collect();
    eprintln!(
        "replaying {} requests over {} hot keys...",
        schedule.len(),
        load.keyspace
    );

    println!(
        "{:>7} | {:>9} {:>7} {:>9} {:>9} | {:>7} {:>7} | {:>4} {:>4} | {:>10}",
        "cache",
        "requests",
        "hits%",
        "coalesce",
        "backend",
        "shed",
        "aband",
        "p50",
        "p99",
        "elapsed"
    );
    println!("{}", "-".repeat(96));
    let mut backend_calls = Vec::new();
    for (capacity, fresh) in CACHE_CAPACITIES.iter().zip(&freshen) {
        let config = ServeConfig {
            queue_capacity: 192,
            max_waiters: 4096,
            cache_capacity: *capacity,
            rate_limit: RateLimit {
                tokens_per_tick: 2,
                burst: 8,
            },
        };
        let mut front = ServeFront::new(sp, config);
        front.attach_obs(&obs);
        let backend_before = obs.counter("serve.backend_calls").get();

        let started = Instant::now();
        let outcome = replay(&mut front, &schedule, fresh);
        let elapsed = started.elapsed();
        let backend = obs.counter("serve.backend_calls").get() - backend_before;
        outcome.check(schedule.len() as u64);

        let hit_rate = 100.0 * outcome.cache_hits as f64 / schedule.len() as f64;
        let (p50, p99) = outcome.wait_percentiles();
        println!(
            "{capacity:>7} | {:>9} {hit_rate:>6.1}% {:>9} {backend:>9} | {:>7} {:>7} | {p50:>4} {p99:>4} | {:>10}",
            schedule.len(),
            outcome.coalesce_hits,
            outcome.shed(),
            outcome.cancelled,
            fmt_duration(elapsed),
        );
        assert!(
            *capacity > 0 || outcome.cache_hits == 0,
            "a zero-capacity cache cannot hit"
        );
        backend_calls.push(backend);

        sp = front.into_sp();
    }
    println!();
    println!(
        "(budget {PUMP_BUDGET} queries/tick; shed = typed refusals at admission + pump; \
         aband = slow-loris cancels; waits in virtual ticks)"
    );

    // What the figure is for: on the same schedule, a larger proof cache
    // never sends more work to the backend than a smaller one.
    assert!(
        backend_calls.windows(2).all(|w| w[0] >= w[1]),
        "backend calls must not grow with cache capacity: {backend_calls:?}"
    );

    pin_required_counters(sp, &obs);
    shape::recorded(
        &obs,
        &[
            "serve.requests",
            "serve.backend_calls",
            "serve.cache_hits",
            "serve.coalesce_hits",
            "serve.shed_queue_full",
            "serve.shed_rate_limited",
            "serve.invalidations",
        ],
        &["serve.wait_ticks", "serve.payload_bytes"],
    );
}

/// Terminal-outcome tallies for one replay. Every submitted request ends
/// in exactly one bucket; [`ReplayOutcome::check`] enforces it.
#[derive(Default)]
struct ReplayOutcome {
    cache_hits: u64,
    coalesce_hits: u64,
    responses: u64,
    refused_admission: u64,
    refused_pump: u64,
    cancelled: u64,
    waits: Vec<u64>,
}

impl ReplayOutcome {
    fn shed(&self) -> u64 {
        self.refused_admission + self.refused_pump
    }

    fn check(&self, submitted: u64) {
        let accounted = self.cache_hits + self.responses + self.shed() + self.cancelled;
        assert_eq!(
            accounted, submitted,
            "every request must reach exactly one terminal outcome"
        );
    }

    /// Exact wait-tick percentiles over the delivered responses.
    fn wait_percentiles(&self) -> (u64, u64) {
        if self.waits.is_empty() {
            return (0, 0);
        }
        let mut sorted = self.waits.clone();
        sorted.sort_unstable();
        let at = |pct: usize| sorted[(sorted.len() - 1) * pct / 100];
        (at(50), at(99))
    }
}

/// Replays the schedule: admit each burst, cancel its slow-loris
/// waiters, then spend `PUMP_BUDGET` queries per quiet tick. `fresh` is
/// staged halfway through to exercise cache invalidation mid-load.
fn replay(front: &mut ServeFront, schedule: &[ServeEvent], fresh: &Block) -> ReplayOutcome {
    let mut outcome = ReplayOutcome::default();
    let mut admitted: HashMap<u64, u64> = HashMap::new(); // id -> admitted tick
    let mut burst_abandons: Vec<(u64, u64)> = Vec::new(); // (client, id)
    let mut current_tick = schedule.first().map_or(0, |e| e.tick);
    let half = schedule.len() / 2;

    let drain = |front: &mut ServeFront,
                 outcome: &mut ReplayOutcome,
                 admitted: &mut HashMap<u64, u64>,
                 tick: u64| {
        for (_, wire) in front.pump(tick, PUMP_BUDGET) {
            match wire {
                ServeWire::Response(response) => {
                    if let Some(at) = admitted.remove(&response.id) {
                        outcome.waits.push(tick.saturating_sub(at));
                    }
                    outcome.responses += 1;
                }
                ServeWire::Refusal(refusal) => {
                    admitted.remove(&refusal.id);
                    outcome.refused_pump += 1;
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
                    outcome.cancelled += 1;
                }
            }
            for tick in current_tick + 1..=event.tick {
                drain(front, &mut outcome, &mut admitted, tick);
            }
            current_tick = event.tick;
        }
        if i == half {
            front
                .stage_block(fresh)
                .expect("freshen block stages cleanly");
            front.advance_staged();
        }

        let id = i as u64;
        let request = ServeRequest {
            client: event.client,
            id,
            query: spec_for(event, front.sp().index_height()),
        };
        match front.submit(event.tick, request) {
            Ok(Submitted::CacheHit(_)) => outcome.cache_hits += 1,
            Ok(Submitted::Enqueued { coalesced }) => {
                if coalesced {
                    outcome.coalesce_hits += 1;
                }
                admitted.insert(id, event.tick);
                if event.abandon {
                    burst_abandons.push((event.client, id));
                }
            }
            Err(_) => outcome.refused_admission += 1,
        }
    }

    // Tail: cancel the last burst's abandons, then pump until dry.
    for (client, id) in burst_abandons.drain(..) {
        if front.cancel(client, id) {
            admitted.remove(&id);
            outcome.cancelled += 1;
        }
    }
    let mut tick = current_tick;
    while front.inflight_entries() > 0 {
        tick += 1;
        drain(front, &mut outcome, &mut admitted, tick);
    }
    assert!(admitted.is_empty(), "no waiter may be silently dropped");
    outcome
}

/// Maps a schedule event to a concrete query over the rig's three
/// indexes. Windows span the full certified history so equal keys make
/// equal specs (the regime caching targets).
fn spec_for(event: &ServeEvent, height: u64) -> QuerySpec {
    let key = kv_key(event.key);
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

/// Deterministic mini-scenario moving every counter `main` asserts,
/// independent of `DCERT_SCALE`: one coalesce, one rate-limit
/// shed, one queue-full shed, one backend call, one cache hit.
fn pin_required_counters(sp: ServiceProvider, obs: &Registry) {
    let height = sp.index_height().max(1);
    let mut front = ServeFront::new(
        sp,
        ServeConfig {
            queue_capacity: 4,
            max_waiters: 64,
            cache_capacity: 16,
            rate_limit: RateLimit {
                tokens_per_tick: 1,
                burst: 1,
            },
        },
    );
    front.attach_obs(obs);
    let probe = |t2: u64| QuerySpec::History {
        index: "history".to_owned(),
        key: kv_key(0),
        t1: 1,
        t2,
    };
    let submit = |front: &mut ServeFront, client: u64, id: u64, query: QuerySpec| {
        front.submit(1, ServeRequest { client, id, query })
    };

    let first = submit(&mut front, 1, 0, probe(height));
    assert!(matches!(
        first,
        Ok(Submitted::Enqueued { coalesced: false })
    ));
    let coalesced = submit(&mut front, 2, 1, probe(height));
    assert!(matches!(
        coalesced,
        Ok(Submitted::Enqueued { coalesced: true })
    ));
    // Client 2 spent its single token on the coalesced join above.
    assert!(submit(&mut front, 2, 2, probe(height)).is_err());
    for (i, t2) in (1..=3u64).enumerate() {
        let queued = submit(&mut front, 3 + i as u64, 3 + i as u64, probe(t2));
        assert!(matches!(queued, Ok(Submitted::Enqueued { .. })));
    }
    // Queue holds 4 distinct specs now; a fifth must shed typed.
    assert!(submit(&mut front, 9, 9, probe(height + 1)).is_err());
    assert!(!front.pump(2, usize::MAX).is_empty());
    assert!(matches!(
        submit(&mut front, 10, 10, probe(height)),
        Ok(Submitted::CacheHit(_))
    ));
}
