//! `queries_cold`: one client asks distinct verifiable queries through
//! the serving front, closed loop, and checks every answer against the
//! certified digests it holds.
//!
//! The read path, backend-bound: index lookup, `mbtree` / `aggmb` /
//! `mpt` / `ops` proof construction, wire encode and decode, client
//! verification. Certification does nothing in the timed region and the
//! front's cache (capacity 1) never hits — the exercise case for tree and
//! encoding work, the no-change case for caching work.

use dcert_obs::Registry;
use dcert_primitives::codec::Encode;
use dcert_serve::{
    QuerySpec, RateLimit, ServeConfig, ServeFront, ServeRequest, ServeWire, Submitted,
};
use dcert_vm::StateKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{gate, BenchError};
use crate::indexed::{self, Claim, Class, IndexedChain, AGGREGATE, CLASSES, HISTORY, INVERTED};
use crate::metrics::{put, Measured, Readings, Timed};
use crate::stats::{floats, mean, percentile};
use crate::trace::Tracer;
use crate::work::Work;
use crate::world;
use crate::Params;

/// Blocks of certified history behind the front.
const CHAIN_BLOCKS: u64 = 128;
/// Window widths in blocks: a few versions, a quarter of the history, all
/// of it.
const WINDOWS: [u64; 3] = [8, 32, CHAIN_BLOCKS];
/// Queries per second of `--seconds`, calibrated once on the reference
/// machine.
const QUERIES_PER_SECOND: u64 = 30_000;
pub struct World {
    chain: IndexedChain,
    specs: Vec<QuerySpec>,
    obs: Registry,
}

pub fn setup(params: &Params, obs: &Registry) -> Result<World, BenchError> {
    let blocks = world::generate_blocks(
        indexed::WORKLOAD,
        params.seed,
        CHAIN_BLOCKS,
        indexed::TXS_PER_BLOCK,
    );
    let chain = indexed::build(blocks, obs)?;
    let specs = draw_queries(&chain, params.seed, QUERIES_PER_SECOND * params.seconds);
    Ok(World {
        chain,
        specs,
        obs: obs.clone(),
    })
}

/// The query mix: 30 % History, 30 % HistoryOp, 15 % Aggregate, 15 %
/// AggregateOp, 10 % Keywords; keys uniform over the accounts the chain
/// wrote. No query repeats its predecessor's class and subject, so the
/// one-entry cache can never answer.
fn draw_queries(chain: &IndexedChain, seed: u64, count: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut specs: Vec<QuerySpec> = Vec::with_capacity(count as usize);
    let mut last_subject = (Class::Keywords, usize::MAX);
    while (specs.len() as u64) < count {
        let class = match rng.gen_range(0..100u32) {
            0..=29 => Class::History,
            30..=59 => Class::HistoryOp,
            60..=74 => Class::Aggregate,
            75..=89 => Class::AggregateOp,
            _ => Class::Keywords,
        };
        let subject = match class {
            // An absent word still gets a verifiable (non-membership) answer.
            Class::Keywords => rng.gen_range(0..chain.keywords.len().max(16)),
            _ => rng.gen_range(0..chain.keys.len()),
        };
        if (class, subject) == last_subject {
            continue;
        }
        last_subject = (class, subject);
        let width = WINDOWS[rng.gen_range(0..WINDOWS.len())];
        let t1 = rng.gen_range(1..=CHAIN_BLOCKS - width + 1);
        let t2 = t1 + width - 1;
        let key = |at: usize| -> StateKey { chain.keys[at] };
        specs.push(match class {
            Class::History => QuerySpec::History {
                index: HISTORY.into(),
                key: key(subject),
                t1,
                t2,
            },
            Class::HistoryOp => QuerySpec::HistoryOp {
                index: HISTORY.into(),
                key: key(subject),
                t1,
                t2,
            },
            Class::Aggregate => QuerySpec::Aggregate {
                index: AGGREGATE.into(),
                key: key(subject),
                t1,
                t2,
            },
            Class::AggregateOp => QuerySpec::AggregateOp {
                index: AGGREGATE.into(),
                key: key(subject),
                t1,
                t2,
            },
            Class::Keywords => QuerySpec::Keywords {
                index: INVERTED.into(),
                keywords: vec![chain
                    .keywords
                    .get(subject)
                    .cloned()
                    .unwrap_or_else(|| format!("absent{subject}"))],
            },
        });
    }
    specs
}

/// Pacing channels.
const QUERY: usize = 0;
const BOOTSTRAP: usize = 1;
pub const CHANNELS: usize = 2;
/// Queries (≈ 16 µs each) between two pacing beats.
const QUERIES_PER_BEAT: usize = 512;
pub fn run(world: World, tracer: &mut Tracer) -> Result<Measured, BenchError> {
    let World { chain, specs, obs } = world;
    let ias_key = chain.ias_key();
    let IndexedChain {
        base,
        sp,
        client,
        tip,
        ..
    } = chain;
    let mut front = ServeFront::new(
        sp,
        ServeConfig {
            // Capacity 0 is not an option: `ServeFront::pump` panics on a
            // HistoryOp answer then (see README.md, product defects).
            cache_capacity: 1,
            rate_limit: RateLimit::unlimited(),
            ..ServeConfig::default()
        },
    );
    front.attach_obs(&obs);

    let queries = specs.len() as u64;
    let warm = crate::warm_up(queries);
    let mut response_bytes = Vec::with_capacity(specs.len());
    let mut work_from = Work::read();

    for (at, spec) in specs.iter().enumerate() {
        let id = at as u64;
        if id == warm {
            work_from = Work::read();
        }
        let names = Class::of(spec).names();

        let started = tracer.clock.now_ns();
        let journey = tracer.begin("query", id);
        let response = tracer.leaf(names.serve_span, id, || {
            let request = ServeRequest {
                client: 1,
                id,
                query: spec.clone(),
            };
            match front.submit(id, request) {
                Ok(Submitted::Enqueued { coalesced: false }) => {}
                other => {
                    return Err(format!(
                        "query {id} was not a fresh backend call: {other:?}"
                    ))
                }
            }
            let mut deliveries = front.pump(id, 1);
            match (deliveries.pop(), deliveries.is_empty()) {
                (Some((1, ServeWire::Response(response))), true) if response.id == id => {
                    Ok(response)
                }
                (other, _) => Err(format!("query {id} was answered with {other:?}")),
            }
        });
        let response = response.map_err(BenchError::Gate)?;
        let size = response.encoded_len() as u64;
        tracer.detail("response_bytes", size);
        indexed::decode_and_verify(
            Some(&mut *tracer),
            id,
            &client,
            spec,
            &response.payload,
            Claim::AsServed,
        )
        .map_err(|e| BenchError::Gate(format!("query {id} ({spec:?}) failed verification: {e}")))?;
        tracer.end(journey);
        tracer.pace.sample(QUERY, tracer.clock.now_ns() - started);
        response_bytes.push(size as f64);

        // Untimed: the front must hand back exactly what the SP answers.
        gate(
            indexed::direct_answer(front.sp(), spec).as_deref() == Some(&response.payload[..]),
            || format!("query {id} differs from the SP's direct answer"),
        )?;
        gate(response.certified_height == CHAIN_BLOCKS, || {
            format!(
                "query {id} answered at height {}",
                response.certified_height
            )
        })?;
        if (at + 1) % QUERIES_PER_BEAT == 0 {
            tracer.pace.beat();
        }
    }
    tracer.pace.beat();
    let work = Work::read().since(work_from);
    indexed::tampered_answers_are_rejected(&front, &client, &specs)?;

    world::time_bootstraps(tracer, BOOTSTRAP, ias_key, base.measurement, &tip)?;

    // Closed loop, one client: the timed region is the queries themselves
    // (the equality gate between them is not the system's work).
    let timed = &tracer.pace.paced(QUERY)[warm as usize..];
    let raw_timed = floats(&tracer.pace.raw(QUERY)[warm as usize..]);
    let timed_queries = timed.len() as u64;
    let ms = |ns: &[f64]| ns.iter().map(|v| v / 1e6).collect::<Vec<_>>();
    let summary = Timed {
        operations: timed_queries,
        busy_ns: timed.iter().sum(),
        busy_raw_ns: raw_timed.iter().sum(),
        op_ms: &ms(timed),
        op_raw_ms: &ms(&raw_timed),
        bootstrap_ns: tracer.pace.paced(BOOTSTRAP),
        client_storage_bytes: client.storage_bytes(),
        speed_pct: tracer.pace.speed_pct(),
    };

    let mut per_layer = Readings::new();
    if tracer.is_on() {
        let mut serve_total_ns = 0.0;
        for class in CLASSES {
            let names = class.names();
            let serve = tracer.durations(names.serve_span, warm);
            serve_total_ns += serve.iter().sum::<f64>();
            let verify = tracer.durations(names.verify_span, warm);
            let bytes = tracer.details(names.serve_span, "response_bytes", warm, false);
            put(
                &mut per_layer,
                names.serve_us,
                mean(&serve) / 1e3,
                serve.len() as u64,
            );
            put(
                &mut per_layer,
                names.verify_us,
                mean(&verify) / 1e3,
                verify.len() as u64,
            );
            put(
                &mut per_layer,
                names.proof_bytes,
                mean(&bytes),
                bytes.len() as u64,
            );
        }
        // The front's own share of submit + pump: what is left after the
        // backend call it times itself (`serve.serve_ns`, as measured,
        // scaled here by the run's mean speed).
        let snapshot = obs.snapshot();
        let backend_mean_ns = snapshot
            .histograms
            .get("serve.serve_ns")
            .and_then(|h| h.mean())
            .unwrap_or(0.0)
            * summary.speed_pct
            / 100.0;
        let serve_mean_ns = serve_total_ns / timed_queries as f64;
        put(
            &mut per_layer,
            "serve.front.self_us",
            (serve_mean_ns - backend_mean_ns).max(0.0) / 1e3,
            timed_queries,
        );
        let decode = tracer.durations("serve.wire.decode", warm);
        put(
            &mut per_layer,
            "serve.wire.decode_us",
            mean(&decode) / 1e3,
            decode.len() as u64,
        );
        let journeys = tracer.durations("query", warm);
        put(
            &mut per_layer,
            "query.p99_ms",
            percentile(&journeys, 99) / 1e6,
            journeys.len() as u64,
        );
        put(
            &mut per_layer,
            "query.proof_bytes_per_query",
            mean(&response_bytes),
            queries,
        );
        put(
            &mut per_layer,
            "serve.backend_calls",
            snapshot.counter("serve.backend_calls") as f64,
            1,
        );
        put(
            &mut per_layer,
            "serve.cache_hit_ratio",
            crate::stats::ratio(snapshot.counter("serve.cache_hits"), queries),
            queries,
        );
        put(
            &mut per_layer,
            "sgx.paged_bytes",
            snapshot.counter("enclave.paged_bytes") as f64,
            1,
        );
        crate::put_work(&mut per_layer, work, timed_queries);
        summary.pace_layers(&mut per_layer);
    }

    Ok(Measured {
        attempted: queries,
        failed: 0,
        busy_ns: summary.busy_ns,
        end_to_end: summary.end_to_end(),
        per_layer,
    })
}
