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

use std::time::Instant;

use dcert::world::{kv_key, replay, Scheme, Setup, World, SERVE_INDEXES};
use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_duration};
use dcert_bench::shape;
use dcert_chain::Block;
use dcert_obs::Registry;
use dcert_query::ServiceProvider;
use dcert_serve::{QuerySpec, RateLimit, ServeConfig, ServeFront, ServeRequest, Submitted};
use dcert_sgx::CostModel;
use dcert_workloads::{ServeEvent, ServeLoadConfig, ServeLoadGen, Workload};

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
    let mut world = World::new(Setup {
        indexes: SERVE_INDEXES
            .iter()
            .map(|&(kind, name)| (kind, name.to_owned()))
            .collect(),
        registry: obs.clone(),
        ..Setup::poa(CostModel::zero())
    });

    let blocks = scaled(HISTORY_BLOCKS);
    eprintln!("building {blocks}-block certified history (kvstore workload)...");
    world.run(
        Workload::KvStore { keyspace: 500 },
        blocks,
        TXS_PER_BLOCK,
        42,
        Scheme::Augmented,
    );

    // One pre-mined block per swept configuration: each replay stages it
    // halfway through, exercising the strict-invalidation path under load
    // (heights stay consecutive across the sweep).
    let mut gen = world.generator(Workload::KvStore { keyspace: 500 }, 43);
    let freshen: Vec<Block> = (0..CACHE_CAPACITIES.len())
        .map(|_| world.mine(gen.next_block(TXS_PER_BLOCK)))
        .collect();

    // The front takes the SP by ownership, one configuration at a time.
    let mut sp = world.sp;

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
        let outcome = replay(&mut front, &schedule, fresh, PUMP_BUDGET);
        let elapsed = started.elapsed();
        let backend = obs.counter("serve.backend_calls").get() - backend_before;
        assert_eq!(
            outcome.accounted(),
            outcome.submitted,
            "every request must reach exactly one terminal outcome"
        );
        assert!(
            outcome.unanswered.is_empty() && outcome.parked_waiters == 0,
            "no waiter may be silently dropped"
        );

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
