//! `serve_mixed`: reads beside writes. A `ServeLoadGen` schedule
//! (zipfian keys, bursty arrivals, slow-loris abandons) is replayed open
//! loop on the virtual clock against the serving front — waits are
//! counted in ticks from the tick each request was due — while every
//! [`WRITE_EVERY`] requests a new block is mined, staged, certified,
//! recorded and advanced through the front, which empties its cache.
//!
//! Cache, coalescing and admission do most of the work here and the
//! backend little, so a caching gain that makes invalidation or staging
//! dearer, or a write-path gain that costs hit rate, shows in one number.

use std::collections::HashMap;

use dcert_chain::Transaction;
use dcert_core::{CertificateIssuer, NetMessage, SuperlightClient, SyncOutcome};
use dcert_obs::Registry;
use dcert_serve::{
    QuerySpec, RateLimit, ServeConfig, ServeFront, ServeRequest, ServeWire, Submitted,
};
use dcert_vm::StateKey;
use dcert_workloads::{ServeEvent, ServeLoadConfig, ServeLoadGen, ServeQueryKind};

use crate::error::{gate, BenchError};
use crate::indexed::{self, Claim, IndexedChain, AGGREGATE, HISTORY, INVERTED};
use crate::metrics::{put, Measured, Readings, Timed};
use crate::stats::{floats, mean, percentile, ratio};
use crate::trace::Tracer;
use crate::work::Work;
use crate::world::{self, Miner};
use crate::Params;

/// Blocks of certified history behind the front when the replay starts.
const CHAIN_BLOCKS: u64 = 128;
/// Requests between two block writes.
const WRITE_EVERY: usize = 50_000;
/// Requests per second of `--seconds`, calibrated once on the reference
/// machine.
const REQUESTS_PER_SECOND: u64 = 750_000;
/// Queries the front executes per virtual tick.
const PUMP_BUDGET: usize = 64;
const FRONT: ServeConfig = ServeConfig {
    queue_capacity: 192,
    max_waiters: 4096,
    cache_capacity: 1024,
    rate_limit: RateLimit {
        tokens_per_tick: 2,
        burst: 8,
    },
};

/// One arrival of the schedule, packed: a run replays millions of them.
#[derive(Clone, Copy)]
struct Arrival {
    tick: u32,
    client: u32,
    key: u16,
    kind: Kind,
    abandon: bool,
}

/// The query families of the default load (it issues no op-stream
/// queries).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    History,
    Keywords,
    Aggregate,
}

impl Arrival {
    fn pack(event: &ServeEvent) -> Result<Arrival, BenchError> {
        let narrow = || BenchError::Gate(format!("schedule event out of range: {event:?}"));
        Ok(Arrival {
            tick: u32::try_from(event.tick).map_err(|_| narrow())?,
            client: u32::try_from(event.client).map_err(|_| narrow())?,
            key: u16::try_from(event.key).map_err(|_| narrow())?,
            kind: match event.kind {
                ServeQueryKind::History => Kind::History,
                ServeQueryKind::Keywords => Kind::Keywords,
                ServeQueryKind::Aggregate => Kind::Aggregate,
                ServeQueryKind::HistoryOp | ServeQueryKind::AggregateOp => return Err(narrow()),
            },
            abandon: event.abandon,
        })
    }

    /// Index of this arrival's query among the `3 × keyspace` distinct
    /// queries of one cache generation.
    fn slot(&self, keyspace: usize) -> usize {
        self.kind as usize * keyspace + usize::from(self.key)
    }
}

pub struct World {
    chain: IndexedChain,
    schedule: Vec<Arrival>,
    /// Transactions of the blocks written during the replay.
    writes: Vec<Vec<Transaction>>,
    obs: Registry,
}

pub fn setup(params: &Params, obs: &Registry) -> Result<World, BenchError> {
    let load = ServeLoadConfig {
        requests: REQUESTS_PER_SECOND * params.seconds,
        ..ServeLoadConfig::default()
    };
    let schedule = ServeLoadGen::new(load, params.seed)
        .map(|event| Arrival::pack(&event))
        .collect::<Result<Vec<_>, _>>()?;
    let write_count = (schedule.len().saturating_sub(1) / WRITE_EVERY) as u64;
    let mut blocks = world::generate_blocks(
        indexed::WORKLOAD,
        params.seed,
        CHAIN_BLOCKS + write_count,
        indexed::TXS_PER_BLOCK,
    );
    let writes = blocks.split_off(CHAIN_BLOCKS as usize);
    Ok(World {
        chain: indexed::build(blocks, obs)?,
        schedule,
        writes,
        obs: obs.clone(),
    })
}

/// Terminal-outcome tallies: every submitted request ends in exactly one.
#[derive(Default)]
struct Tally {
    cache_hits: u64,
    coalesce_hits: u64,
    responses: u64,
    shed_admission: u64,
    shed_pump: u64,
    cancelled: u64,
    waits: Vec<u64>,
}

/// A parked request: the tick it was due and which query it asked.
#[derive(Clone, Copy)]
struct Parked {
    due: u64,
    slot: usize,
}

/// The replay's moving parts.
struct Replay {
    front: ServeFront,
    client: SuperlightClient,
    keys: Vec<StateKey>,
    keywords: Vec<String>,
    keyspace: usize,
    /// The current cache generation's answers by [`Arrival::slot`]: the
    /// SP's direct answer, verified once against the client's digest.
    /// Every payload the front serves must equal its entry, so every
    /// served payload verifies. Filling an entry is the gate's work, not
    /// the system's: `gate_ns` keeps its time out of the measurement.
    reference: Vec<Option<Vec<u8>>>,
    gate_ns: u64,
    tally: Tally,
    parked: HashMap<u64, Parked>,
    burst: OpenBurst,
    /// Requests carried by each sampled burst, in sample order.
    burst_requests: Vec<u64>,
}

/// The burst being served: one pacing sample when it closes.
#[derive(Default)]
struct OpenBurst {
    started_ns: u64,
    /// `Replay::gate_ns` when the burst opened.
    gate_ns_then: u64,
    requests: u64,
}

impl Replay {
    fn spec(&self, kind: Kind, key: usize) -> QuerySpec {
        // Whole-history windows, so equal keys make equal specs — the
        // regime caching and coalescing target.
        let (t1, t2) = (1, self.front.sp().index_height().max(1));
        let state_key = self.keys[key % self.keys.len()];
        match kind {
            Kind::History => QuerySpec::History {
                index: HISTORY.into(),
                key: state_key,
                t1,
                t2,
            },
            Kind::Aggregate => QuerySpec::Aggregate {
                index: AGGREGATE.into(),
                key: state_key,
                t1,
                t2,
            },
            Kind::Keywords => QuerySpec::Keywords {
                index: INVERTED.into(),
                // An absent word still gets a verifiable answer.
                keywords: vec![self
                    .keywords
                    .get(key % self.keywords.len().max(1))
                    .cloned()
                    .unwrap_or_else(|| format!("absent{key}"))],
            },
        }
    }

    /// Checks one served payload against the generation's reference.
    fn check(
        &mut self,
        tracer: &Tracer,
        id: u64,
        slot: usize,
        payload: &[u8],
    ) -> Result<(), BenchError> {
        if self.reference[slot].is_none() {
            let started = tracer.clock.now_ns();
            let kind = [Kind::History, Kind::Keywords, Kind::Aggregate][slot / self.keyspace];
            let spec = self.spec(kind, slot % self.keyspace);
            let direct = indexed::direct_answer(self.front.sp(), &spec)
                .ok_or_else(|| BenchError::Gate(format!("SP cannot answer {spec:?}")))?;
            indexed::decode_and_verify(None, id, &self.client, &spec, &direct, Claim::AsServed)
                .map_err(|e| {
                    BenchError::Gate(format!(
                        "direct answer to {spec:?} failed verification: {e}"
                    ))
                })?;
            self.reference[slot] = Some(direct);
            self.gate_ns += tracer.clock.now_ns() - started;
        }
        gate(self.reference[slot].as_deref() == Some(payload), || {
            format!("request {id} was served bytes that differ from the SP's direct answer")
        })
    }

    fn submit(
        &mut self,
        tracer: &Tracer,
        id: u64,
        arrival: &Arrival,
    ) -> Result<Option<(u64, u64)>, BenchError> {
        let slot = arrival.slot(self.keyspace);
        let request = ServeRequest {
            client: u64::from(arrival.client),
            id,
            query: self.spec(arrival.kind, usize::from(arrival.key)),
        };
        let tick = u64::from(arrival.tick);
        match self.front.submit(tick, request) {
            Ok(Submitted::CacheHit(response)) => {
                self.tally.cache_hits += 1;
                self.tally.waits.push(0);
                self.check(tracer, id, slot, &response.payload)?;
            }
            Ok(Submitted::Enqueued { coalesced }) => {
                self.tally.coalesce_hits += u64::from(coalesced);
                self.parked.insert(id, Parked { due: tick, slot });
                if arrival.abandon {
                    return Ok(Some((u64::from(arrival.client), id)));
                }
            }
            Err(_typed_refusal) => self.tally.shed_admission += 1,
        }
        Ok(None)
    }

    /// Ends the open burst — samples its service time, the gate's share
    /// removed — and opens the next.
    fn close_burst(&mut self, tracer: &mut Tracer) {
        let now = tracer.clock.now_ns();
        if self.burst.requests > 0 {
            let gate_ns = self.gate_ns - self.burst.gate_ns_then;
            tracer
                .pace
                .sample(BURST, (now - self.burst.started_ns).saturating_sub(gate_ns));
            self.burst_requests.push(self.burst.requests);
        }
        self.burst.requests = 0;
        self.open_burst(now);
    }

    /// Restarts the open burst's clock (after a pacing beat or a write,
    /// whose time is not the burst's).
    fn open_burst(&mut self, now: u64) {
        self.burst = OpenBurst {
            started_ns: now,
            gate_ns_then: self.gate_ns,
            requests: self.burst.requests,
        };
    }

    /// Slow-loris clients walk away from their parked requests.
    fn abandon(&mut self, abandons: &mut Vec<(u64, u64)>) {
        for (client, id) in abandons.drain(..) {
            if self.front.cancel(client, id) {
                self.parked.remove(&id);
                self.tally.cancelled += 1;
            }
        }
    }

    /// One virtual tick of service: up to [`PUMP_BUDGET`] distinct queries.
    fn drain(&mut self, tracer: &Tracer, tick: u64) -> Result<(), BenchError> {
        for (_, wire) in self.front.pump(tick, PUMP_BUDGET) {
            match wire {
                ServeWire::Response(response) => {
                    let parked = self.parked.remove(&response.id).ok_or_else(|| {
                        BenchError::Gate(format!(
                            "request {} was answered twice or never admitted",
                            response.id
                        ))
                    })?;
                    self.tally.waits.push(tick.saturating_sub(parked.due));
                    self.tally.responses += 1;
                    self.check(tracer, response.id, parked.slot, &response.payload)?;
                }
                ServeWire::Refusal(refusal) => {
                    self.parked.remove(&refusal.id);
                    self.tally.shed_pump += 1;
                }
                ServeWire::Request(_) => {
                    return Err(BenchError::Gate("the front emitted a request".to_owned()));
                }
            }
        }
        Ok(())
    }

    /// One write: mined, staged through the front, certified, recorded
    /// and advanced through the front; the client follows to the new tip
    /// and the reference answers of the old generation are dropped.
    fn write(
        &mut self,
        miner: &mut Miner,
        ci: &mut CertificateIssuer,
        tracer: &mut Tracer,
        txs: Vec<Transaction>,
    ) -> Result<Vec<NetMessage>, BenchError> {
        let height = miner.node.height() + 1;
        let write = tracer.begin("serve.write", height);
        let block = tracer.leaf("chain.mine", height, || miner.mine(txs))?;
        let inputs = tracer.leaf("query.sp.stage", height, || self.front.stage_block(&block))?;
        let (block_cert, index_certs, _) = tracer.leaf("core.ci.certify", height, || {
            ci.certify_hierarchical(&block, &inputs)
        })?;
        tracer.leaf("query.sp.record", height, || {
            self.front.record_certs(&index_certs);
            self.front.advance_staged();
        });
        let messages = world::cert_messages(&block, &block_cert, &inputs, &index_certs);
        let refused = tracer.leaf("core.superlight.sync", height, || {
            messages
                .iter()
                .find_map(|message| match self.client.on_message(message) {
                    SyncOutcome::Adopted | SyncOutcome::AdoptedIndex => None,
                    other => Some(other),
                })
        });
        tracer.end(write);
        gate(refused.is_none(), || {
            format!("client refused a certificate at height {height}: {refused:?}")
        })?;
        self.reference.iter_mut().for_each(|answer| *answer = None);
        Ok(messages)
    }
}

/// Pacing channels: bursts of reads, block writes, final bootstraps.
const BURST: usize = 0;
const WRITE: usize = 1;
const BOOTSTRAP: usize = 2;
pub const CHANNELS: usize = 3;
/// Bursts (≈ 0.4 ms each) between two pacing beats; a beat also brackets
/// every write.
const BURSTS_PER_BEAT: usize = 16;
pub fn run(world: World, tracer: &mut Tracer) -> Result<Measured, BenchError> {
    let World {
        chain,
        schedule,
        writes,
        obs,
    } = world;
    let ias_key = chain.ias_key();
    let IndexedChain {
        base,
        mut miner,
        sp,
        mut ci,
        client,
        keys,
        keywords,
        mut tip,
    } = chain;
    let mut front = ServeFront::new(sp, FRONT);
    front.attach_obs(&obs);
    let keyspace = ServeLoadConfig::default().keyspace as usize;
    let mut replay = Replay {
        front,
        client,
        keys,
        keywords,
        keyspace,
        reference: vec![None; 3 * keyspace],
        gate_ns: 0,
        tally: Tally::default(),
        parked: HashMap::new(),
        burst: OpenBurst::default(),
        burst_requests: Vec::new(),
    };

    let requests = schedule.len() as u64;
    let mut abandons: Vec<(u64, u64)> = Vec::new(); // (client, id) of the current burst
    let mut current_tick = schedule.first().map_or(0, |a| u64::from(a.tick));
    let mut writes = writes.into_iter();
    replay.open_burst(tracer.clock.now_ns());
    let work_from = Work::read();

    for (at, arrival) in schedule.iter().enumerate() {
        let tick = u64::from(arrival.tick);
        if tick != current_tick {
            // The burst is in: its abandons leave, then the front spends
            // its budget on each tick up to the next burst.
            replay.abandon(&mut abandons);
            for quiet_tick in current_tick + 1..=tick {
                replay.drain(tracer, quiet_tick)?;
            }
            replay.close_burst(tracer);
            if replay.burst_requests.len().is_multiple_of(BURSTS_PER_BEAT) {
                tracer.pace.beat();
                replay.open_burst(tracer.clock.now_ns());
            }
            current_tick = tick;
        }
        if at > 0 && at % WRITE_EVERY == 0 {
            let txs = writes
                .next()
                .ok_or_else(|| BenchError::Gate("ran out of pre-generated blocks".to_owned()))?;
            // A write is its own pacing segment, and not part of a burst.
            replay.close_burst(tracer);
            tracer.pace.beat();
            let write_started = tracer.clock.now_ns();
            tip = replay.write(&mut miner, &mut ci, tracer, txs)?;
            tracer
                .pace
                .sample(WRITE, tracer.clock.now_ns() - write_started);
            tracer.pace.beat();
            replay.open_burst(tracer.clock.now_ns());
        }
        replay.burst.requests += 1;
        abandons.extend(replay.submit(tracer, at as u64, arrival)?);
    }
    // Tail: the last burst's abandons, then pump until dry.
    replay.abandon(&mut abandons);
    let mut tick = current_tick;
    while replay.front.inflight_entries() > 0 {
        tick += 1;
        replay.drain(tracer, tick)?;
    }
    replay.close_burst(tracer);
    tracer.pace.beat();
    let work = Work::read().since(work_from);

    let tally = &replay.tally;
    let accounted = tally.cache_hits
        + tally.responses
        + tally.shed_admission
        + tally.shed_pump
        + tally.cancelled;
    gate(accounted == requests && replay.parked.is_empty(), || {
        format!(
            "{accounted} of {requests} requests reached a terminal outcome, {} still parked",
            replay.parked.len()
        )
    })?;
    gate(writes.next().is_none(), || {
        "not every pre-generated block was written".to_owned()
    })?;

    // One tampered answer per query class, op-stream classes included.
    let height = replay.front.sp().index_height();
    let samples = [
        replay.spec(Kind::History, 0),
        replay.spec(Kind::Aggregate, 0),
        replay.spec(Kind::Keywords, 0),
        QuerySpec::HistoryOp {
            index: HISTORY.into(),
            key: replay.keys[0],
            t1: 1,
            t2: height,
        },
        QuerySpec::AggregateOp {
            index: AGGREGATE.into(),
            key: replay.keys[0],
            t1: 1,
            t2: height,
        },
    ];
    indexed::tampered_answers_are_rejected(&replay.front, &replay.client, &samples)?;

    world::time_bootstraps(tracer, BOOTSTRAP, ias_key, base.measurement, &tip)?;

    // Service time per request, burst by burst.
    let per_request_ms = |bursts: &[f64]| -> Vec<f64> {
        bursts
            .iter()
            .zip(&replay.burst_requests)
            .map(|(ns, carried)| ns / 1e6 / *carried as f64)
            .collect()
    };
    let bursts = tracer.pace.paced(BURST);
    let raw_bursts = floats(tracer.pace.raw(BURST));
    let write_ns = tracer.pace.paced(WRITE);
    let raw_writes = floats(tracer.pace.raw(WRITE));
    let summary = Timed {
        operations: requests,
        busy_ns: bursts.iter().chain(write_ns).sum(),
        busy_raw_ns: raw_bursts.iter().chain(&raw_writes).sum(),
        op_ms: &per_request_ms(bursts),
        op_raw_ms: &per_request_ms(&raw_bursts),
        bootstrap_ns: tracer.pace.paced(BOOTSTRAP),
        client_storage_bytes: replay.client.storage_bytes(),
        speed_pct: tracer.pace.speed_pct(),
    };

    let mut per_layer = Readings::new();
    if tracer.is_on() {
        let snapshot = obs.snapshot();
        let shed = tally.shed_admission + tally.shed_pump;
        let waits = floats(&tally.waits);
        let waited = waits.len() as u64;
        put(
            &mut per_layer,
            "serve.cache_hit_ratio",
            ratio(tally.cache_hits, requests),
            requests,
        );
        put(
            &mut per_layer,
            "serve.window_hit_ratio",
            ratio(snapshot.counter("serve.window_hits"), requests),
            requests,
        );
        put(
            &mut per_layer,
            "serve.coalesce_ratio",
            ratio(tally.coalesce_hits, requests),
            requests,
        );
        put(
            &mut per_layer,
            "serve.backend_calls",
            snapshot.counter("serve.backend_calls") as f64,
            1,
        );
        put(
            &mut per_layer,
            "serve.shed_admission",
            tally.shed_admission as f64,
            requests,
        );
        put(
            &mut per_layer,
            "serve.shed_pump",
            tally.shed_pump as f64,
            requests,
        );
        put(
            &mut per_layer,
            "serve.shed_share",
            ratio(shed, requests),
            requests,
        );
        put(
            &mut per_layer,
            "serve.cancelled",
            tally.cancelled as f64,
            requests,
        );
        put(
            &mut per_layer,
            "serve.invalidations",
            snapshot.counter("serve.invalidations") as f64,
            1,
        );
        put(
            &mut per_layer,
            "serve.wait_ticks_p50",
            percentile(&waits, 50),
            waited,
        );
        put(
            &mut per_layer,
            "serve.wait_ticks_p99",
            percentile(&waits, 99),
            waited,
        );
        put(
            &mut per_layer,
            "serve.read_us_per_request",
            bursts.iter().sum::<f64>() / 1e3 / requests as f64,
            requests,
        );
        put(
            &mut per_layer,
            "serve.write_ms_per_block",
            mean(write_ns) / 1e6,
            write_ns.len() as u64,
        );
        for (metric, span) in [
            ("chain.mine_us", "chain.mine"),
            ("query.sp.stage_us", "query.sp.stage"),
            ("core.ci.certify_us", "core.ci.certify"),
            ("query.sp.record_us", "query.sp.record"),
            ("core.superlight.sync_us", "core.superlight.sync"),
        ] {
            let durations = tracer.durations(span, 0);
            put(
                &mut per_layer,
                metric,
                mean(&durations) / 1e3,
                durations.len() as u64,
            );
        }
        put(
            &mut per_layer,
            "sgx.paged_bytes",
            snapshot.counter("enclave.paged_bytes") as f64,
            1,
        );
        crate::put_work(&mut per_layer, work, requests);
        summary.pace_layers(&mut per_layer);
    }

    Ok(Measured {
        attempted: requests,
        failed: 0,
        busy_ns: summary.busy_ns,
        end_to_end: summary.end_to_end(),
        per_layer,
    })
}
