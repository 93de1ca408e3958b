//! The seeded fault scenario every chaos, serve-load and reorg test is a
//! row of; `tests/fault_world.rs` runs its combined seeds.
//!
//! A [`Row`] is a seed, the faults of the world's network, the SP's
//! indexes and a list of [`Event`]s applied in order to one
//! `dcert::world::World`. [`Row::run`] runs it twice, each run ending
//! healed (`World::converge`), and checks the invariants every row shares:
//!
//! 1. the archive's certificate stream, the client's tip and every fleet
//!    output equal the sequential issuer's bytes (`World::certify_blocks`);
//! 2. every served answer comes from no lower a height than it was asked
//!    at, verifies against the digest a client certifies from the archive
//!    at that height, and equals the chain-scan oracle's rows
//!    (`dcert::world::oracle`);
//! 3. the delivery ledger balances after every event, and every serve
//!    event ends with each request accounted for, none left parked;
//! 4. the seed replays bit for bit: net stats, answers, the certificate
//!    stream and every deterministic metric.
//!
//! Every assertion names the seed: `CHAOS_SEED=<n> cargo test --test
//! fault_world -- --include-ignored` replays the seeded rows at `n`.

// Each suite drives part of the harness.
#![allow(dead_code)]

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use dcert::chain::Block;
use dcert::core::{
    expected_measurement, CertArchive, CertJob, CertPipeline, Certificate, FaultConfig, NetMessage,
    NetStats, Partition, PipelineConfig, PipelineReport, ShardFailurePlan, ShardFleetConfig,
    ShardedCertEngine, SimNet, SuperlightClient, Transport,
};
use dcert::obs::{Registry, Snapshot};
use dcert::primitives::codec::{Decode, Encode};
use dcert::primitives::hash::Hash;
use dcert::query::sp::IndexKind;
use dcert::query::{aggregate, history, inverted};
use dcert::serve::{
    decode_aggregate_payload, decode_history_payload, decode_keyword_payload,
    encode_history_payload, QuerySpec, RateLimit, RefusalReason, ServeConfig, ServeFront,
    ServeRequest, ServeResponse, ServeWire, Submitted,
};
use dcert::store::{MemStore, SegmentStore, Store, StoreConfig};
use dcert::workloads::{ServeLoadConfig, ServeLoadGen, Workload};
use dcert::world::oracle::Oracle;
use dcert::world::{assert_bytes_equal, kv_key, replay, spec_for, ReplayOutcome, Setup, World};
use dcert_testkit::Gen;

use crate::common::temp_dir;

/// The indexes an SP keeps, `(kind, name)`.
pub type Indexes = &'static [(IndexKind, &'static str)];

/// One scenario.
pub struct Row {
    pub seed: u64,
    /// The world's network faults, seeded with `seed`.
    pub faults: FaultConfig,
    pub indexes: Indexes,
    pub events: Vec<Event>,
}

/// One world event.
pub enum Event {
    /// Mines `.1` blocks of `.0`, `.2` transactions each, drawn from seed `.3`.
    Mine(Workload, usize, usize, u64),
    /// Keeps the first `n` mined blocks and forks the miner there.
    Fork(usize),
    /// The archive persists to a fresh `SegmentStore` (before any publish).
    Durable,
    /// Certifies the next `n` mined blocks through a `CertPipeline`
    /// publishing on the archive, each staged on the SP first.
    Pipeline(usize),
    /// Certifies the mined chain on the row's shard fleet, which the first
    /// such event builds.
    Fleet(FleetSpec),
    /// A `ServeLoadGen` burst (seed `.2`) through `world::replay` on a
    /// front rebuilt under `.1`, recording `serve.*` from here on; it
    /// stages the next mined block at the first tick boundary past halfway
    /// (after one drain, in a one-tick burst), which is certified after.
    Burst(ServeLoadConfig, ServeConfig, u64),
    /// `n` history queries over the serve wire on the world's net: the
    /// front is killed and restarted mid-burst, the net heals after round 4.
    KillFront(usize),
    /// The next mined block with a forged signature: the SP (which keeps
    /// an index) stages it, the CI refuses it, the SP takes it back.
    Forge,
    /// Tears the archive's segment tail and recovers a successor archive.
    TearTail,
}

pub struct FleetSpec {
    pub shards: usize,
    pub chunk: u64,
    pub failures: ShardFailurePlan,
    /// Range certificates checkpoint to a `MemStore`.
    pub durable: bool,
    /// The output goes out through the archive.
    pub publish: bool,
}

/// A served answer: what was asked, the index height it was asked at,
/// and the response.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub query: QuerySpec,
    pub asked_at: u64,
    pub response: ServeResponse,
}

/// One run of a row, read after the final converge.
pub struct Run {
    pub seed: u64,
    pub world: World,
    pub front: ServeFront,
    pub registry: Registry,
    /// The mined chain; the pipeline certified `chain[..certified]`.
    pub chain: Vec<Block>,
    pub certified: usize,
    /// What each `Fork` cut off.
    pub abandoned: Vec<Vec<Block>>,
    pub fleet: Option<ShardedCertEngine>,
    /// Every pipeline's report, merged.
    pub report: PipelineReport,
    pub outcomes: Vec<ReplayOutcome>,
    pub answers: Vec<Answer>,
    /// `KillFront`'s orphaned waiters, garbled requests, rejected responses.
    pub kill: (usize, u64, u64),
    /// The torn store's recovery snapshot and durable height.
    pub recovery: Option<(Snapshot, u64)>,
    /// The registry after each event.
    pub snaps: Vec<Snapshot>,
    /// Published before the final converge.
    pub broadcast: u64,
    pub rounds: u64,
    pub stats: NetStats,
    pub obs: Snapshot,
    dir: Option<PathBuf>,
    /// Checks invariants 1 and 2; a replay equal to a checked run keeps them.
    check: bool,
}

impl Row {
    pub fn new(seed: u64, faults: FaultConfig, indexes: Indexes, events: Vec<Event>) -> Self {
        Row {
            seed,
            faults,
            indexes,
            events,
        }
    }

    /// Runs the row twice, side by side, checks every invariant, and
    /// returns the first run.
    pub fn run(&self) -> Run {
        let (a, b) = std::thread::scope(|s| {
            let replay = s.spawn(|| self.once(false));
            (self.once(true), replay.join().expect("the replay ran"))
        });
        let seed = self.seed;
        assert_eq!(a.stats, b.stats, "CHAOS_SEED={seed}: schedule diverged");
        assert_eq!(a.stream(), b.stream(), "CHAOS_SEED={seed}: stream diverged");
        assert_eq!(a.answers, b.answers, "CHAOS_SEED={seed}: answers diverged");
        let tally = |o: &ReplayOutcome| (o.responses, o.cache_hits, o.shed(), o.cancelled);
        let tallies = |run: &Run| run.outcomes.iter().map(tally).collect::<Vec<_>>();
        assert_eq!(tallies(&a), tallies(&b), "CHAOS_SEED={seed}");
        assert_eq!(a.kill, b.kill, "CHAOS_SEED={seed}");
        assert_eq!(a.report.dead_letters, b.report.dead_letters);
        let tips = [&a, &b].map(|run| run.world.client.latest_header().cloned());
        assert_eq!(tips[0], tips[1], "CHAOS_SEED={seed}");
        let (x, y) = (a.obs.without_wall_clock(), b.obs.without_wall_clock());
        assert_eq!(x, y, "CHAOS_SEED={seed}: deterministic metrics diverged");
        assert_eq!(x.to_json(), y.to_json(), "CHAOS_SEED={seed}: not canonical");
        a
    }

    fn once(&self, check: bool) -> Run {
        let mut world = World::new(Setup {
            net: (self.seed, self.faults.clone()),
            indexes: self
                .indexes
                .iter()
                .map(|&(k, n)| (k, n.to_owned()))
                .collect(),
            ..Setup::pow()
        });
        let registry = Registry::new();
        world.net.attach_obs(&registry);
        let genesis_sp = world.genesis_sp();
        let sp = std::mem::replace(&mut world.sp, genesis_sp);
        let mut run = Run {
            seed: self.seed,
            world,
            front: ServeFront::new(sp, ServeConfig::default()),
            registry,
            chain: Vec::new(),
            certified: 0,
            abandoned: Vec::new(),
            fleet: None,
            report: PipelineReport::default(),
            outcomes: Vec::new(),
            answers: Vec::new(),
            kill: (0, 0, 0),
            recovery: None,
            snaps: Vec::new(),
            broadcast: 0,
            rounds: 0,
            stats: NetStats::default(),
            obs: Snapshot::default(),
            dir: None,
            check,
        };
        for event in &self.events {
            run = run.apply(event);
            run.snaps.push(run.registry.snapshot());
            run.assert_conserves();
        }
        run.finish()
    }
}

/// An archive over `world`'s net persisting to `store`.
fn archive(world: &World, store: SegmentStore) -> Arc<CertArchive<SimNet>> {
    let (net, ias) = (world.net.clone(), world.ias.public_key());
    let archive = CertArchive::with_store(net, Box::new(store), &ias, &expected_measurement());
    Arc::new(archive.expect("the archive's certificates re-verify"))
}

impl Run {
    fn apply(mut self, event: &Event) -> Self {
        let seed = self.seed;
        match event {
            Event::Mine(workload, count, txs, seed) => {
                let blocks = self.world.mine_blocks(*workload, *count, *txs, *seed);
                self.chain.extend(blocks);
            }
            Event::Fork(keep) => {
                assert!(self.certified <= *keep, "the CI never follows a reorg");
                self.abandoned.push(self.chain.split_off(*keep));
                // A fresh world's miner, at genesis, follows the kept prefix.
                self.world.miner = World::pow(&[]).miner;
                for block in &self.chain {
                    self.world.miner.follow(block).expect("the prefix follows");
                }
            }
            Event::Durable => {
                let dir = temp_dir("fault-world");
                let config = StoreConfig::new(&dir).obs(self.registry.clone());
                let store = SegmentStore::open(config).expect("archive store opens");
                self.world.archive = archive(&self.world, store);
                self.dir = Some(dir);
            }
            Event::Pipeline(n) => {
                let next = self.chain[self.certified..self.certified + n].to_vec();
                let jobs = next.into_iter().map(|block| self.stage(block)).collect();
                return self.certify(jobs);
            }
            Event::Fleet(spec) => self.fleet(spec),
            Event::Burst(load, config, seed) => {
                let block = self.chain[self.certified].clone();
                let mut front = ServeFront::new(self.front.into_sp(), *config);
                front.attach_obs(&self.registry);
                let schedule: Vec<_> = ServeLoadGen::new(*load, *seed).collect();
                let mut outcome = replay(&mut front, &schedule, &block, 48);
                self.front = front;
                self.assert_serve_law(&outcome);
                for (asked_at, response) in std::mem::take(&mut outcome.answers) {
                    let query = spec_for(&schedule[response.id as usize], asked_at);
                    self.answers.push(Answer {
                        query,
                        asked_at,
                        response,
                    });
                }
                let indexes = std::mem::take(&mut outcome.staged);
                self.outcomes.push(outcome);
                return self.certify(vec![CertJob::Hierarchical { block, indexes }]);
            }
            Event::KillFront(queries) => return self.kill_front(*queries),
            Event::Forge => {
                let forged = self.world.forge_signature(&self.chain[self.certified]);
                let inputs = self.front.stage_block(&forged).expect("the SP follows it");
                let refused = self.world.ci.certify_hierarchical(&forged, &inputs);
                assert!(refused.is_err(), "CHAOS_SEED={seed}: forgery certified");
                assert!(self.front.rewind(), "CHAOS_SEED={seed}: nothing rewound");
                assert_eq!(self.front.sp().height(), self.certified as u64);
            }
            #[allow(clippy::disallowed_methods, reason = "a crash test's torn tail")]
            Event::TearTail => {
                // The archive dies mid-append, closing its store, and
                // leaves half a frame header past the durable watermark.
                let dir = self.dir.clone().expect("the archive is durable");
                self.world.archive = Arc::new(CertArchive::new(self.world.net.clone()));
                let seg = dir.join("seg-00000000.dcs");
                let mut bytes = std::fs::read(&seg).expect("segment readable");
                bytes.extend_from_slice(&[0xEE; 7]);
                std::fs::write(&seg, bytes).expect("segment writable");
                let recovery = Registry::new();
                let config = StoreConfig::new(&dir).obs(recovery.clone());
                let store = SegmentStore::open(config).expect("torn tail recovers");
                self.recovery = Some((recovery.snapshot(), store.durable_height()));
                self.world.archive = archive(&self.world, store);
            }
        }
        self
    }

    /// Stages `block` on the SP and settles it: the pipelined SP, whose
    /// certificates arrive over the net. An SP with no index serves
    /// nothing, so it follows nothing.
    fn stage(&mut self, block: Block) -> CertJob {
        if self.front.sp().verifiers().is_empty() {
            return CertJob::Block(block);
        }
        let indexes = self.front.stage_block(&block).expect("the SP follows");
        self.front.advance(None).expect("the staged block settles");
        CertJob::Hierarchical { block, indexes }
    }

    fn certify(mut self, jobs: Vec<CertJob>) -> Self {
        let config = PipelineConfig {
            obs: self.registry.clone(),
            ..PipelineConfig::default()
        };
        let archive = self.world.archive.clone() as Arc<dyn Transport>;
        let pipeline = CertPipeline::spawn(self.world.ci, config, archive);
        self.certified += jobs.len();
        for job in jobs {
            pipeline.submit(job).expect("accepts");
        }
        let (ci, report) = pipeline.shutdown();
        self.world.ci = ci;
        self.report.jobs += report.jobs;
        self.report.errors.extend(report.errors);
        self.report.dead_letters.extend(report.dead_letters);
        let poisoned = self.world.archive.store_error();
        assert!(poisoned.is_none(), "CHAOS_SEED={}: {poisoned:?}", self.seed);
        self
    }

    fn fleet(&mut self, spec: &FleetSpec) {
        let (world, registry) = (&self.world, &self.registry);
        let fleet = self.fleet.get_or_insert_with(|| {
            let mut config = ShardFleetConfig::new(spec.shards, spec.chunk);
            config.registry = registry.clone();
            config.failures = spec.failures.clone();
            if spec.durable {
                config.store = Some(Arc::new(Mutex::new(Box::new(MemStore::new()))));
            }
            world.fleet(config)
        });
        let seed = self.seed;
        let certs = fleet
            .certify_chain(&self.chain, &mut self.world.ias)
            .unwrap_or_else(|e| panic!("CHAOS_SEED={seed}: the fleet refused: {e:?}"));
        if self.check {
            let label = format!("CHAOS_SEED={seed}: fleet");
            assert_bytes_equal(&reference(&self.chain), &certs, &label);
        }
        if spec.publish {
            let archive = &self.world.archive;
            for (block, cert) in self.chain.iter().zip(certs) {
                let header = block.header.clone();
                archive.publish(NetMessage::BlockCert { header, cert });
            }
        }
    }

    /// The serve wire on the world's net, the front and its clients
    /// joining it as endpoints; every answer is checked against the
    /// certified digest by the client and must equal a direct, uncached
    /// SP call.
    fn kill_front(mut self, queries: usize) -> Self {
        let seed = self.seed;
        let height = self.front.sp().height();
        let key = |q: usize| kv_key(q as u64 % 8);
        let spec = |q: usize| QuerySpec::History {
            index: "history".into(),
            key: key(q),
            t1: 1,
            t2: height,
        };
        let sp = self.front.sp();
        let direct = |q| {
            let (rows, proof) = sp
                .serve_history("history", &key(q), 1, height)
                .expect("an index");
            encode_history_payload(&rows, &proof)
        };
        let expected: Vec<Vec<u8>> = (0..queries).map(direct).collect();
        let digest = sp.digest("history").expect("index certified");
        let net = self.world.net.clone();
        let (server, client) = (net.join(), net.join());
        let send = |wire: ServeWire| {
            let payload = wire.to_encoded_bytes();
            net.publish(NetMessage::Serve { payload });
        };
        let serve_wire = |message| match message {
            NetMessage::Serve { payload } => Some(ServeWire::decode_all(&payload)),
            _ => None,
        };
        let mut answers: Vec<Option<Answer>> = vec![None; queries];
        let (mut orphaned, mut garbled, mut rejected) = (0usize, 0u64, 0u64);
        for round in 1u64.. {
            if answers.iter().all(Option::is_some) {
                break;
            }
            assert!(round <= 60, "CHAOS_SEED={seed}: no serve convergence");
            // Clients (re)issue every unanswered query, under a fresh id.
            for q in (0..queries).filter(|&q| answers[q].is_none()) {
                let (client, id, query) = (q as u64, round * 1_000 + q as u64, spec(q));
                send(ServeWire::Request(ServeRequest { client, id, query }));
            }
            net.advance(6);
            // The server admits what survived; a garbled request is
            // ignored and its client retries.
            while let Some(wire) = server.try_recv().ok().map(serve_wire) {
                match wire {
                    Some(Ok(ServeWire::Request(request))) => {
                        match self.front.submit(round, request) {
                            Ok(Submitted::CacheHit(response)) => {
                                send(ServeWire::Response(response))
                            }
                            Ok(Submitted::Enqueued { .. }) => {}
                            Err(refusal) => send(ServeWire::Refusal(refusal)),
                        }
                    }
                    Some(Err(_)) => garbled += 1,
                    _ => {}
                }
            }
            // Round 1: the serve process dies after admitting the burst
            // and before pumping it, orphaning every parked waiter; the
            // restart keeps the SP, with a cold cache and no queue.
            if round == 1 {
                orphaned = self.front.parked_waiters();
                self.front = ServeFront::new(self.front.into_sp(), ServeConfig::default());
            }
            for (_, wire) in self.front.pump(round, usize::MAX) {
                send(wire);
            }
            net.advance(6);
            if round == 4 {
                net.heal();
            }
            // A client keeps a reply only if its proof verifies; one
            // corrupted in transit is retried.
            while let Some(wire) = client.try_recv().ok().map(serve_wire) {
                let Some(Ok(ServeWire::Response(response))) = wire else {
                    continue;
                };
                let q = (response.id % 1_000) as usize;
                let open = answers.get(q).is_some_and(Option::is_none);
                if !open || response.certified_height != height {
                    continue;
                }
                let decoded = decode_history_payload(&response.payload).ok();
                let verified = decoded.is_some_and(|(rows, proof)| {
                    history::verify_history(&digest, &key(q), 1, height, &rows, &proof).is_ok()
                });
                if !verified {
                    rejected += 1;
                    continue;
                }
                let direct = *response.payload == expected[q];
                assert!(direct, "CHAOS_SEED={seed}: {q} is not direct serving's");
                let (query, asked_at) = (spec(q), height);
                answers[q] = Some(Answer {
                    query,
                    asked_at,
                    response,
                });
            }
        }
        assert_eq!(self.front.parked_waiters(), 0, "CHAOS_SEED={seed}");
        assert_eq!(self.front.inflight_entries(), 0, "CHAOS_SEED={seed}");
        self.kill = (orphaned, garbled, rejected);
        self.answers.extend(answers.into_iter().flatten());
        self
    }

    /// Heals the net, converges the client, and checks invariants 1 and 2.
    fn finish(mut self) -> Self {
        let seed = self.seed;
        self.broadcast = self.world.net.stats().published;
        self.rounds = self.world.converge();
        self.stats = self.world.net.stats();
        self.assert_conserves();
        let tip = self.world.archive.tip_height().unwrap_or(0) as usize;
        if self.check {
            // A certificate binds its header's hash: equal certificates are
            // the sequential issuer's stream, header for header.
            let chain = &self.chain[..tip];
            let label = format!("CHAOS_SEED={seed}: stream");
            assert_bytes_equal(&reference(chain), &self.stream(), &label);
            let tip = chain.last().map(|block| &block.header);
            let adopted = self.world.client.latest_header();
            assert_eq!(adopted, tip, "CHAOS_SEED={seed}: wrong tip adopted");
            self.check_answers();
        }
        self.obs = self.registry.snapshot();
        if let Some(dir) = &self.dir {
            std::fs::remove_dir_all(dir).ok();
        }
        self
    }

    /// The archive's block certificates, heights `1..=tip`.
    pub fn stream(&self) -> Vec<Certificate> {
        let tip = self.world.archive.tip_height().unwrap_or(0);
        let messages = self.world.archive.messages_in(1, tip).into_iter();
        let cert = |message| match message {
            NetMessage::BlockCert { cert, .. } => Some(cert),
            _ => None,
        };
        messages.filter_map(cert).collect()
    }

    fn assert_conserves(&self) {
        let (stats, in_flight) = (self.world.net.stats(), self.world.net.in_flight());
        let (balanced, seed) = (stats.conserves_deliveries(in_flight), self.seed);
        assert!(
            balanced,
            "CHAOS_SEED={seed}: {stats:?}, {in_flight} in flight"
        );
    }

    /// Shed is typed, never silent, and every request ends exactly once.
    fn assert_serve_law(&self, outcome: &ReplayOutcome) {
        let seed = self.seed;
        for reason in &outcome.refused_admission {
            match *reason {
                RefusalReason::QueueFull { depth } => assert!(depth > 0),
                RefusalReason::RateLimited { retry_after_ticks } => assert!(retry_after_ticks > 0),
                RefusalReason::Backlogged { waiters } => assert!(waiters > 0),
                RefusalReason::UnknownIndex => panic!("all test indexes exist"),
            }
        }
        let accounted = outcome.accounted() == outcome.submitted;
        assert!(accounted, "CHAOS_SEED={seed}: a request leaked");
        let dropped = &outcome.unanswered;
        assert!(dropped.is_empty(), "CHAOS_SEED={seed}: dropped {dropped:?}");
        assert_eq!(outcome.parked_waiters, 0, "CHAOS_SEED={seed}");
    }

    /// Invariant 2, once per distinct (query, height).
    fn check_answers(&self) {
        let (seed, world) = (self.seed, &self.world);
        let oracle = Oracle::replay(&world.executor, &world.genesis_state, &self.chain);
        let mut clients: HashMap<u64, SuperlightClient> = HashMap::new();
        let mut checked: HashMap<(&QuerySpec, u64), &[u8]> = HashMap::new();
        for answer in &self.answers {
            let (query, payload) = (&answer.query, &*answer.response.payload);
            let (height, asked) = (answer.response.certified_height, answer.asked_at);
            let at = || format!("CHAOS_SEED={seed}: {query:?} asked at {asked}, at {height}");
            assert!(height >= asked, "{}: stale", at());
            if let Some(first) = checked.insert((query, height), payload) {
                assert!(first == payload, "{}: answered twice", at());
                continue;
            }
            let at = at();
            let client = clients.entry(height).or_insert_with(|| {
                let mut client =
                    SuperlightClient::new(world.ias.public_key(), expected_measurement());
                for message in world.archive.messages_in(height, height) {
                    client.on_message(&message);
                }
                client
            });
            let digest = |index: &str| client.index_digest(index).expect("a certified digest");
            let verified = match query {
                QuerySpec::History { index, key, t1, t2 }
                | QuerySpec::HistoryOp { index, key, t1, t2 } => {
                    let (rows, proof) = decode_history_payload(payload).expect("decodes");
                    assert_eq!(rows, oracle.history(key, *t1, *t2), "{at}");
                    history::verify_history(&digest(index), key, *t1, *t2, &rows, &proof)
                }
                QuerySpec::Aggregate { index, key, t1, t2 }
                | QuerySpec::AggregateOp { index, key, t1, t2 } => {
                    let (agg, proof) = decode_aggregate_payload(payload).expect("decodes");
                    let fold = oracle.aggregate(key, *t1, *t2);
                    let folded = (fold.count, fold.sum, fold.min, fold.max);
                    assert_eq!((agg.count, agg.sum, agg.min, agg.max), folded, "{at}");
                    aggregate::verify_aggregate(&digest(index), key, *t1, *t2, &agg, &proof)
                }
                QuerySpec::Keywords { index, keywords } => {
                    let words: Vec<&str> = keywords.iter().map(String::as_str).collect();
                    let (ids, proof) = decode_keyword_payload(payload).expect("decodes");
                    assert_eq!(ids, oracle.keywords(&words, height), "{at}");
                    inverted::verify_keywords(&digest(index), &words, &ids, &proof)
                }
            };
            assert!(verified.is_ok(), "{at}: {verified:?}");
        }
    }
}

/// The sequential issuer's certificates for `chain`, issued once per chain.
pub fn reference(chain: &[Block]) -> Vec<Certificate> {
    static ISSUED: OnceLock<Mutex<HashMap<Hash, Vec<Certificate>>>> = OnceLock::new();
    let Some(tip) = chain.last().map(|block| block.header.hash()) else {
        return Vec::new();
    };
    let issued = ISSUED.get_or_init(Mutex::default);
    if let Some(certs) = issued.lock().expect("no panic").get(&tip) {
        return certs.clone();
    }
    let certs = World::pow(&[]).certify_blocks(chain);
    issued.lock().expect("no panic").insert(tip, certs.clone());
    certs
}

// --- the rows' shapes -----------------------------------------------------------

/// The chaos chain's length: 20 SmallBank blocks of 4 transactions.
pub const CHAIN: u64 = 20;

/// The chaos chain, certified by the pipeline under `faults`.
pub fn pipelined(seed: u64, faults: FaultConfig) -> Row {
    let chain = Event::Mine(Workload::SmallBank { customers: 32 }, CHAIN as usize, 4, 3);
    Row::new(
        seed,
        faults,
        &[],
        vec![chain, Event::Pipeline(CHAIN as usize)],
    )
}

/// 5 % loss, reorder window 4, one 3-block partition cutting the client off.
pub fn default_faults() -> FaultConfig {
    let mut faults = FaultConfig::default_chaos();
    faults.partitions.push(Partition {
        start: 6,
        end: 9,
        endpoints: vec![0],
    });
    faults
}

/// [`pipelined`] with the archive persisted, then torn and recovered.
pub fn durable(seed: u64) -> Row {
    let mut row = pipelined(seed, default_faults());
    row.events.insert(0, Event::Durable);
    row.events.push(Event::TearTail);
    row
}

/// [`pipelined`] with every delivery lost until the net heals.
pub fn blackout(seed: u64) -> Row {
    let mut faults = FaultConfig::lossless();
    faults.drop_rate = 1.0;
    pipelined(seed, faults)
}

/// The chaos chain on a four-shard fleet whose plan kills shard 1 after
/// one durable chunk (resume) and shard 3 before any (fresh boot).
pub fn fleet(seed: u64, faults: FaultConfig) -> Row {
    let mut row = pipelined(seed, faults);
    let failures = ShardFailurePlan::none().kill(1, 1).kill(3, 0);
    row.events[1] = Event::Fleet(FleetSpec {
        shards: 4,
        chunk: 3,
        failures,
        durable: true,
        publish: true,
    });
    row
}

/// Three certified KVStore blocks behind a front killed mid-burst, on a
/// net lossy enough that bursts straddle rounds.
pub fn serve_kill(seed: u64) -> Row {
    let mut faults = FaultConfig::default_chaos();
    (faults.drop_rate, faults.duplicate_rate, faults.corrupt_rate) = (0.15, 0.05, 0.02);
    let mine = Event::Mine(Workload::KvStore { keyspace: 8 }, 3, 4, 9);
    let events = vec![mine, Event::Pipeline(3), Event::KillFront(24)];
    Row::new(seed, faults, &[(IndexKind::History, "history")], events)
}

/// A `load` burst seeded with `seed` against three certified
/// three-index KVStore blocks, staging a fourth under load.
pub fn serve_load(seed: u64, load: ServeLoadConfig, config: ServeConfig) -> Row {
    let mine = Event::Mine(Workload::KvStore { keyspace: 64 }, 4, 4, 5);
    let burst = Event::Burst(load, config, seed);
    let events = vec![mine, Event::Pipeline(3), burst];
    Row::new(
        seed,
        FaultConfig::lossless(),
        &dcert::world::SERVE_INDEXES,
        events,
    )
}

/// The smoke-scale profile: the full 10⁵-client population, `requests`
/// requests.
pub fn smoke_load(requests: u64) -> ServeLoadConfig {
    ServeLoadConfig {
        requests,
        keyspace: 96,
        slow_loris_permille: 50,
    }
}

pub fn tight_config() -> ServeConfig {
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

/// One combined scenario: every event kind in one world, its shape drawn
/// from `seed`. A fleet certifies a chain, a reorg forks it (on a range
/// boundary, inside a range, or shorter), the fleet re-certifies and
/// publishes; the pipelined CI then certifies the new chain for the SP
/// around a serve burst and a refused forgery, and past the fleet's tip;
/// a front is killed over the wire; the archive's disk tears. The client
/// is partitioned once, and blacked out from mid-stream until the net
/// heals.
pub fn combined(seed: u64) -> Row {
    let mut g = Gen::from_seed(seed);
    let shards = g.range(2..=4usize);
    let (keep, fork_len) = (g.range(2..=7usize), g.range(2..=4usize));
    let tip = keep + fork_len;
    let first = g.range(1..=tip - 2);
    let blackout_at = g.range(tip as u64 / 2..tip as u64);
    let part_start = g.range(0..blackout_at);
    let cut = |start, end| Partition {
        start,
        end,
        endpoints: vec![0],
    };
    let partitions = vec![
        cut(part_start, part_start + g.range(1..4)),
        cut(blackout_at, u64::MAX),
    ];
    let faults = FaultConfig {
        drop_rate: g.range(0.0..0.2),
        duplicate_rate: g.range(0.0..0.1),
        corrupt_rate: g.range(0.0..0.1),
        reorder_window: g.range(0..5),
        partitions,
    };
    // Two shards hold two chunks each; more hold one.
    let chunks = if shards == 2 { 2 } else { 1 };
    let failures = ShardFailurePlan::none().kill(g.range(0..shards), g.range(0..chunks));
    let fleet = |publish| {
        let failures = failures.clone();
        Event::Fleet(FleetSpec {
            shards,
            chunk: 2,
            failures,
            durable: true,
            publish,
        })
    };
    let mut kv = |count| Event::Mine(Workload::KvStore { keyspace: 16 }, count, 2, g.any());
    let (original, fork, extension) = (kv(8), kv(fork_len), kv(2));
    // Three burst ticks: the front pumps, and caches, before the stage at
    // the third.
    let load = ServeLoadConfig {
        requests: 1_200,
        keyspace: 16,
        slow_loris_permille: 100,
    };
    let events = vec![
        Event::Durable,
        original,
        fleet(false),
        Event::Fork(keep),
        fork,
        fleet(true),
        Event::Pipeline(first),
        Event::Burst(load, tight_config(), seed),
        Event::Forge,
        Event::Pipeline(tip - first - 1),
        extension,
        Event::Pipeline(2),
        Event::KillFront(16),
        Event::TearTail,
    ];
    Row::new(seed, faults, &dcert::world::SERVE_INDEXES, events)
}
