//! One seeded world: the Fig. 2 cast — genesis, miner, IAS, CI enclave,
//! SP and superlight client — built once, for every test, figure and
//! example.
//!
//! A world is a function of its [`Setup`]: two worlds built from equal
//! setups mine byte-identical blocks and sign byte-identical
//! certificates (the CI boots on [`PLATFORM_SEED`] with its enclave key
//! drawn from [`SIGNING_SEED`], and ed25519 signing is deterministic).
//! Beside it live the pieces every driver of the cast shares: the serve
//! replay over a [`ServeLoadGen`](dcert_workloads::ServeLoadGen) schedule,
//! the memo chain the persistence suites observe, and [`naive`], the
//! reference certification program.
//!
//! ```
//! use dcert::query::sp::IndexKind;
//! use dcert::workloads::Workload;
//! use dcert::world::{Scheme, World};
//!
//! let mut world = World::pow(&[(IndexKind::History, "history")]);
//! let run = world.run(Workload::KvStore { keyspace: 16 }, 2, 3, 1, Scheme::Hierarchical);
//! let tip = run.certs.last().expect("two blocks certified");
//! world.client.validate_chain(&run.tip.header, tip).expect("the tip validates");
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use dcert_chain::{
    Block, ChainState, ConsensusEngine, FullNode, GenesisBuilder, ProofOfAuthority, ProofOfWork,
    Transaction,
};
use dcert_core::{
    expected_measurement, CertBreakdown, Certificate, CertificateIssuer, RecoverError,
    ShardFleetConfig, ShardedCertEngine, SuperlightClient,
};
use dcert_obs::Registry;
use dcert_primitives::codec::Encode;
use dcert_primitives::hash::{Address, Hash};
use dcert_primitives::keys::Keypair;
use dcert_query::sp::IndexKind;
use dcert_query::ServiceProvider;
use dcert_serve::{
    encode_history_payload, encode_keyword_payload, QuerySpec, RefusalReason, ServeFront,
    ServeRequest, ServeWire, Submitted,
};
use dcert_sgx::{AttestationService, CostModel};
use dcert_store::Store;
use dcert_vm::{Executor, StateKey};
use dcert_workloads::kvstore::KvCall;
use dcert_workloads::{blockbench_registry, ServeEvent, ServeQueryKind, Workload, WorkloadGen};

pub mod naive;

/// Proof-of-work difficulty of the [`Chain::Pow`] chain: fast to mine,
/// non-trivial to fake.
pub const POW_BITS: u8 = 4;

/// The CI's platform identity: enclaves launched on it share a platform
/// attestation key and a sealing domain.
pub const PLATFORM_SEED: [u8; 32] = [0xC1; 32];

/// The seed every world's enclave signing key (and a fleet's) is drawn
/// from: CIs booted on it sign byte-identically.
pub const SIGNING_SEED: [u8; 32] = [0x51; 32];

/// The simulated IAS's root key seed.
const IAS_SEED: [u8; 32] = [0xA5; 32];

/// The genesis block's timestamp.
const GENESIS_TIMESTAMP: u64 = 1_700_000_000;

/// The indexes the serve replay queries ([`spec_for`]).
pub const SERVE_INDEXES: [(IndexKind, &str); 3] = [
    (IndexKind::History, "history"),
    (IndexKind::Inverted, "inverted"),
    (IndexKind::Aggregate, "agg"),
];

/// The indexes the memo chain ([`World::mine_memos`]) is observed through
/// ([`observe`]).
pub const MEMO_INDEXES: [(IndexKind, &str); 2] = [
    (IndexKind::History, "history"),
    (IndexKind::Inverted, "inverted"),
];

/// Which of the two pinned chains a world mines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// Proof of work at [`POW_BITS`], mined by `0xBEEF`, each block's
    /// timestamp its height, 8 workload senders: the chain the test
    /// goldens pin.
    Pow,
    /// Proof of authority under one sealer (seed `0x5e`), mined by `1`,
    /// blocks 15 s apart from genesis, 1 024 workload senders, so chain
    /// building never dominates a measurement: the chain `results/` pins.
    Poa,
}

impl Chain {
    /// Accounts a workload generator signs from.
    pub const fn senders(self) -> usize {
        match self {
            Chain::Pow => 8,
            Chain::Poa => 1_024,
        }
    }

    fn engine(self) -> Arc<dyn ConsensusEngine> {
        match self {
            Chain::Pow => Arc::new(ProofOfWork::new(POW_BITS)),
            Chain::Poa => {
                let sealer = Keypair::from_seed([0x5e; 32]);
                Arc::new(ProofOfAuthority::new_sealer(vec![sealer.public()], sealer))
            }
        }
    }

    fn miner(self) -> Address {
        match self {
            Chain::Pow => Address::from_seed(0xBEEF),
            Chain::Poa => Address::from_seed(1),
        }
    }

    fn timestamp(self, height: u64) -> u64 {
        match self {
            Chain::Pow => height,
            Chain::Poa => GENESIS_TIMESTAMP + 15 * height,
        }
    }
}

/// What a world is built from: every field is one some caller sets
/// differently.
#[derive(Debug)]
pub struct Setup {
    /// The chain the world mines.
    pub chain: Chain,
    /// The CI enclave's simulated cost model.
    pub cost: CostModel,
    /// Indexes registered on the SP and the enclave, `(kind, name)`.
    pub indexes: Vec<(IndexKind, String)>,
    /// Metric registry attached to the CI enclave and the SP; the
    /// disabled default records nothing.
    pub registry: Registry,
    /// State entries genesis starts with.
    pub genesis_entries: Vec<(StateKey, Vec<u8>)>,
}

impl Setup {
    /// The tests' world: the [`Chain::Pow`] chain, a zero-cost enclave,
    /// no index, nothing recorded.
    pub fn pow() -> Self {
        Setup {
            chain: Chain::Pow,
            cost: CostModel::zero(),
            indexes: Vec::new(),
            registry: Registry::disabled(),
            genesis_entries: Vec::new(),
        }
    }

    /// The figures' world: the [`Chain::Poa`] chain under `cost`.
    pub fn poa(cost: CostModel) -> Self {
        Setup {
            chain: Chain::Poa,
            cost,
            ..Setup::pow()
        }
    }
}

/// Which certificate scheme [`World::run`] drives per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Algorithm 1/2: block certificates only.
    BlockOnly,
    /// Algorithm 4: one augmented certificate per index.
    Augmented,
    /// Algorithm 5: a block certificate plus per-index certificates, off
    /// one replay in one ECall.
    Hierarchical,
}

/// The outcome of [`World::run`].
pub struct RunResult {
    /// One breakdown per certified block.
    pub breakdowns: Vec<CertBreakdown>,
    /// One certificate per block: the block certificate, or the first
    /// index's under [`Scheme::Augmented`].
    pub certs: Vec<Certificate>,
    /// The last block mined.
    pub tip: Block,
}

/// The Fig. 2 cast on one genesis.
pub struct World {
    pub executor: Executor,
    pub engine: Arc<dyn ConsensusEngine>,
    pub genesis: Block,
    pub genesis_state: ChainState,
    pub miner: FullNode,
    pub ias: AttestationService,
    pub ci: CertificateIssuer,
    pub sp: ServiceProvider,
    pub client: SuperlightClient,
    chain: Chain,
    cost: CostModel,
    indexes: Vec<(IndexKind, String)>,
}

impl World {
    /// The tests' world ([`Setup::pow`]) with `indexes` registered.
    pub fn pow(indexes: &[(IndexKind, &str)]) -> Self {
        World::new(Setup {
            indexes: indexes
                .iter()
                .map(|&(kind, name)| (kind, name.to_owned()))
                .collect(),
            ..Setup::pow()
        })
    }

    /// Builds the world `setup` describes.
    pub fn new(setup: Setup) -> Self {
        let Setup {
            chain,
            cost,
            indexes,
            registry,
            genesis_entries,
        } = setup;
        let executor = Executor::new(Arc::new(blockbench_registry()));
        let engine = chain.engine();
        let (genesis, genesis_state) = genesis_entries
            .into_iter()
            .fold(
                GenesisBuilder::new().timestamp(GENESIS_TIMESTAMP),
                |builder, (key, value)| builder.allocate(key, value),
            )
            .build();
        let miner = FullNode::new(
            &genesis,
            genesis_state.clone(),
            executor.clone(),
            engine.clone(),
            chain.miner(),
        );
        let mut sp = sp_at_genesis(&genesis, &genesis_state, &executor, &engine, &indexes);
        sp.attach_obs(&registry);
        let mut ias = AttestationService::with_seed(IAS_SEED);
        let ci = CertificateIssuer::new_deterministic(
            PLATFORM_SEED,
            SIGNING_SEED,
            &genesis,
            genesis_state.clone(),
            executor.clone(),
            engine.clone(),
            sp.verifiers(),
            &mut ias,
            cost,
        )
        .expect("CI boots");
        ci.attach_obs(&registry);
        let client = SuperlightClient::new(ias.public_key(), expected_measurement());
        World {
            executor,
            engine,
            genesis,
            genesis_state,
            miner,
            ias,
            ci,
            sp,
            client,
            chain,
            cost,
            indexes,
        }
    }

    /// A fresh SP at genesis with this world's indexes: what a restarted
    /// SP recovers into.
    pub fn genesis_sp(&self) -> ServiceProvider {
        sp_at_genesis(
            &self.genesis,
            &self.genesis_state,
            &self.executor,
            &self.engine,
            &self.indexes,
        )
    }

    /// A [`World::genesis_sp`] recovered from `store` under this world's
    /// trust anchors; an empty store gives it persistence from genesis.
    ///
    /// # Errors
    ///
    /// See [`ServiceProvider::recover_from`].
    pub fn recover_sp(&self, store: Box<dyn Store>) -> Result<ServiceProvider, RecoverError> {
        self.genesis_sp()
            .recover_from(&self.ias.public_key(), &expected_measurement(), store)
    }

    /// A shard fleet on this world's chain, seeds and cost model: its
    /// aggregate stream is byte-identical to this world's CI's.
    pub fn fleet(&self, config: ShardFleetConfig) -> ShardedCertEngine {
        ShardedCertEngine::new_deterministic(
            PLATFORM_SEED,
            SIGNING_SEED,
            &self.genesis,
            self.genesis_state.clone(),
            self.executor.clone(),
            self.engine.clone(),
            self.cost,
            config,
        )
        .expect("fleet configures")
    }

    /// A workload generator over this chain's sender pool.
    pub fn generator(&self, workload: Workload, seed: u64) -> WorkloadGen {
        WorkloadGen::new(workload, self.chain.senders(), seed)
    }

    /// Mines the next block with `txs`.
    pub fn mine(&mut self, txs: Vec<Transaction>) -> Block {
        let timestamp = self.chain.timestamp(self.miner.height() + 1);
        self.miner.mine(txs, timestamp).expect("mines")
    }

    /// Mines `count` blocks of `workload`, `txs` transactions each.
    pub fn mine_blocks(
        &mut self,
        workload: Workload,
        count: usize,
        txs: usize,
        seed: u64,
    ) -> Vec<Block> {
        let mut gen = self.generator(workload, seed);
        (0..count).map(|_| self.mine(gen.next_block(txs))).collect()
    }

    /// Mines `count` blocks of one memo-carrying put each on
    /// `kvstore/acct-main`, so [`observe`]'s history and keyword queries
    /// both return non-trivial certified answers.
    pub fn mine_memos(&mut self, count: u64) -> Vec<Block> {
        let kp = Keypair::from_seed([77; 32]);
        (1..=count)
            .map(|nonce| {
                let memo = match nonce % 3 {
                    0 => format!("dividend stock payout at {nonce}"),
                    1 => format!("bank wire transfer at {nonce}"),
                    _ => format!("stock AND bank combo at {nonce}"),
                };
                let call = KvCall::Put {
                    key: b"acct-main".to_vec(),
                    value: memo.into_bytes(),
                };
                let tx = Transaction::sign(&kp, nonce, "kvstore", call.to_encoded_bytes());
                self.mine(vec![tx])
            })
            .collect()
    }

    /// Certifies `blocks` one at a time on this world's CI: the sequential
    /// issuer every other engine must equal byte for byte.
    pub fn certify_blocks(&mut self, blocks: &[Block]) -> Vec<Certificate> {
        blocks
            .iter()
            .map(|block| self.ci.certify_block(block).expect("certifies").0)
            .collect()
    }

    /// Mines and certifies `blocks` blocks of `workload` under `scheme`,
    /// staging each on the SP and recording its index certificates.
    ///
    /// # Panics
    ///
    /// If `blocks` is 0, or [`Scheme::BlockOnly`] runs with indexes.
    pub fn run(
        &mut self,
        workload: Workload,
        blocks: u64,
        txs_per_block: usize,
        seed: u64,
        scheme: Scheme,
    ) -> RunResult {
        let mut gen = self.generator(workload, seed);
        let mut breakdowns = Vec::new();
        let mut certs = Vec::new();
        let mut tip = None;
        for _ in 0..blocks {
            let block = self.mine(gen.next_block(txs_per_block));
            let (cert, breakdown) = match scheme {
                Scheme::BlockOnly => {
                    assert!(
                        self.indexes.is_empty(),
                        "block-only runs must not register indexes"
                    );
                    self.ci.certify_block(&block).expect("certifies")
                }
                Scheme::Augmented => {
                    let inputs = self.sp.stage_block(&block).expect("SP stages");
                    let (index_certs, breakdown) = self
                        .ci
                        .certify_augmented(&block, &inputs)
                        .expect("certifies");
                    self.sp.advance(Some(&index_certs)).expect("SP advances");
                    let first = index_certs.into_iter().next().expect("≥ 1 index");
                    (first, breakdown)
                }
                Scheme::Hierarchical => {
                    let inputs = self.sp.stage_block(&block).expect("SP stages");
                    let (block_cert, index_certs, breakdown) = self
                        .ci
                        .certify_hierarchical(&block, &inputs)
                        .expect("certifies");
                    self.sp.advance(Some(&index_certs)).expect("SP advances");
                    (block_cert, breakdown)
                }
            };
            breakdowns.push(breakdown);
            certs.push(cert);
            tip = Some(block);
        }
        RunResult {
            breakdowns,
            certs,
            tip: tip.expect("at least one block"),
        }
    }
}

/// An SP at `genesis` with `indexes` registered.
fn sp_at_genesis(
    genesis: &Block,
    state: &ChainState,
    executor: &Executor,
    engine: &Arc<dyn ConsensusEngine>,
    indexes: &[(IndexKind, String)],
) -> ServiceProvider {
    let mut sp = ServiceProvider::new(genesis, state.clone(), executor.clone(), engine.clone());
    for (kind, name) in indexes {
        sp.add_index(*kind, name);
    }
    sp
}

/// Asserts two certificate streams equal byte for byte, height by height.
pub fn assert_bytes_equal(expected: &[Certificate], actual: &[Certificate], label: &str) {
    assert_eq!(expected.len(), actual.len(), "{label}: certificate count");
    for (at, (want, got)) in expected.iter().zip(actual).enumerate() {
        assert_eq!(
            want.to_encoded_bytes(),
            got.to_encoded_bytes(),
            "{label}: certificate bytes diverge at height {}",
            at + 1
        );
    }
}

// --- what a client could ask an SP --------------------------------------------

/// Everything a client could ask an SP over the [`MEMO_INDEXES`], as
/// comparable bytes: two SPs with equal observations are
/// indistinguishable to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    pub index_height: u64,
    pub history_digest: Option<Hash>,
    pub inverted_digest: Option<Hash>,
    pub history_cert: Option<Vec<u8>>,
    pub inverted_cert: Option<Vec<u8>>,
    pub history_answer: Vec<u8>,
    pub keyword_answer: Vec<u8>,
}

/// Observes `sp` through the [`MEMO_INDEXES`].
pub fn observe(sp: &ServiceProvider) -> Observation {
    let key = StateKey::new("kvstore", b"acct-main");
    let (results, proof) = sp
        .serve_history("history", &key, 0, 100)
        .expect("history index");
    let (matches, keyword_proof) = sp
        .serve_keywords("inverted", &["stock", "bank"])
        .expect("inverted index");
    Observation {
        index_height: sp.index_height(),
        history_digest: sp.digest("history"),
        inverted_digest: sp.digest("inverted"),
        history_cert: sp.certificate("history").map(Encode::to_encoded_bytes),
        inverted_cert: sp.certificate("inverted").map(Encode::to_encoded_bytes),
        history_answer: encode_history_payload(&results, &proof),
        keyword_answer: encode_keyword_payload(&matches, &keyword_proof),
    }
}

// --- the serve replay -----------------------------------------------------------

/// The KVStore contract's state key for account `i` (`key-<i>`): what the
/// query and serving drivers probe.
pub fn kv_key(i: u64) -> StateKey {
    StateKey::new("kvstore", format!("key-{i}").as_bytes())
}

/// Stages `block` through `front`, certifies it (augmented) on `ci` and
/// advances the SP with the certificates: the full write path.
pub fn certify_into(ci: &mut CertificateIssuer, front: &mut ServeFront, block: &Block) {
    let inputs = front.stage_block(block).expect("block stages");
    let (certs, _) = ci.certify_augmented(block, &inputs).expect("certifies");
    front.advance(Some(&certs)).expect("SP advances");
}

/// Maps a schedule event onto the [`SERVE_INDEXES`] at certified height
/// `height`. Windows span the whole certified history, so equal keys make
/// equal specs (the regime caching targets). The op kinds, which the
/// schedule never emits, map to the same whole-history windows as their
/// base kinds.
pub fn spec_for(event: &ServeEvent, height: u64) -> QuerySpec {
    let key = kv_key(event.key);
    let height = height.max(1);
    match event.kind {
        ServeQueryKind::History => QuerySpec::History {
            index: "history".to_owned(),
            key,
            t1: 1,
            t2: height,
        },
        ServeQueryKind::Keywords => QuerySpec::Keywords {
            index: "inverted".to_owned(),
            keywords: vec![format!("key-{}", event.key)],
        },
        ServeQueryKind::Aggregate => QuerySpec::Aggregate {
            index: "agg".to_owned(),
            key,
            t1: 1,
            t2: height,
        },
        ServeQueryKind::HistoryOp => QuerySpec::HistoryOp {
            index: "history".to_owned(),
            key,
            t1: 1,
            t2: height,
        },
        ServeQueryKind::AggregateOp => QuerySpec::AggregateOp {
            index: "agg".to_owned(),
            key,
            t1: 1,
            t2: height,
        },
    }
}

/// How each request of one [`replay`] ended. On a correct front every
/// submitted request reaches exactly one terminal outcome
/// ([`ReplayOutcome::accounted`] equals `submitted`), `unanswered` is
/// empty and no waiter stays parked.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Requests the schedule submitted.
    pub submitted: u64,
    /// Answered at admission from the proof cache.
    pub cache_hits: u64,
    /// Admitted onto an identical pending query.
    pub coalesce_hits: u64,
    /// Responses the pump delivered.
    pub responses: u64,
    /// Typed refusals at admission.
    pub refused_admission: Vec<RefusalReason>,
    /// Typed refusals the pump delivered.
    pub refused_pump: Vec<RefusalReason>,
    /// Slow-loris requests cancelled after admission.
    pub cancelled: u64,
    /// Virtual ticks from admission to response, one per response.
    pub waits: Vec<u64>,
    /// Ids admitted but never answered, refused or cancelled.
    pub unanswered: Vec<u64>,
    /// Waiters still parked once the front drained.
    pub parked_waiters: usize,
}

impl ReplayOutcome {
    /// Requests shed with a typed refusal, at admission or at the pump.
    pub fn shed(&self) -> u64 {
        (self.refused_admission.len() + self.refused_pump.len()) as u64
    }

    /// Requests that reached a terminal outcome.
    pub fn accounted(&self) -> u64 {
        self.cache_hits + self.responses + self.shed() + self.cancelled
    }

    /// Exact wait-tick percentiles (p50, p99) over the responses.
    pub fn wait_percentiles(&self) -> (u64, u64) {
        let mut sorted = self.waits.clone();
        sorted.sort_unstable();
        let at = |pct: usize| {
            sorted
                .get(sorted.len().saturating_sub(1) * pct / 100)
                .copied()
                .unwrap_or(0)
        };
        (at(50), at(99))
    }

    /// Cancels the burst's abandoned waiters still pending.
    fn cancel(
        &mut self,
        front: &mut ServeFront,
        abandons: &mut Vec<(u64, u64)>,
        admitted: &mut HashMap<u64, u64>,
    ) {
        for (client, id) in abandons.drain(..) {
            if front.cancel(client, id) {
                admitted.remove(&id);
                self.cancelled += 1;
            }
        }
    }

    /// One pump of `budget` queries at `tick`.
    fn drain(
        &mut self,
        front: &mut ServeFront,
        admitted: &mut HashMap<u64, u64>,
        tick: u64,
        budget: usize,
    ) {
        for (_, wire) in front.pump(tick, budget) {
            match wire {
                ServeWire::Response(response) => {
                    if let Some(at) = admitted.remove(&response.id) {
                        self.waits.push(tick.saturating_sub(at));
                    }
                    self.responses += 1;
                }
                ServeWire::Refusal(refusal) => {
                    admitted.remove(&refusal.id);
                    self.refused_pump.push(refusal.reason);
                }
                ServeWire::Request(_) => unreachable!("the front never emits requests"),
            }
        }
    }
}

/// Replays `schedule` against `front`: admits each burst, cancels its
/// slow-loris waiters, spends `budget` queries per quiet tick, stages
/// `fresh` halfway through (invalidation under load), then pumps until
/// nothing is in flight.
pub fn replay(
    front: &mut ServeFront,
    schedule: &[ServeEvent],
    fresh: &Block,
    budget: usize,
) -> ReplayOutcome {
    let mut outcome = ReplayOutcome {
        submitted: schedule.len() as u64,
        ..ReplayOutcome::default()
    };
    let mut admitted: HashMap<u64, u64> = HashMap::new(); // id -> admission tick
    let mut abandons: Vec<(u64, u64)> = Vec::new(); // (client, id)
    let mut current_tick = schedule.first().map_or(0, |e| e.tick);
    let half = schedule.len() / 2;

    for (i, event) in schedule.iter().enumerate() {
        if event.tick != current_tick {
            outcome.cancel(front, &mut abandons, &mut admitted);
            for tick in current_tick + 1..=event.tick {
                outcome.drain(front, &mut admitted, tick, budget);
            }
            current_tick = event.tick;
        }
        if i == half {
            front.stage_block(fresh).expect("the fresh block stages");
            front.advance(None).expect("the fresh block settles");
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
                outcome.coalesce_hits += u64::from(coalesced);
                admitted.insert(id, event.tick);
                if event.abandon {
                    abandons.push((event.client, id));
                }
            }
            Err(refusal) => outcome.refused_admission.push(refusal.reason),
        }
    }

    outcome.cancel(front, &mut abandons, &mut admitted);
    let mut tick = current_tick;
    while front.inflight_entries() > 0 {
        tick += 1;
        outcome.drain(front, &mut admitted, tick, budget);
    }
    outcome.unanswered = admitted.into_keys().collect();
    outcome.unanswered.sort_unstable();
    outcome.parked_waiters = front.parked_waiters();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    use dcert_obs::Snapshot;

    /// A zero-cost world on `chain` with one history index.
    fn history_world(chain: Chain, registry: &Registry) -> World {
        World::new(Setup {
            chain,
            indexes: vec![(IndexKind::History, "history".to_owned())],
            registry: registry.clone(),
            ..Setup::pow()
        })
    }

    #[test]
    fn world_runs_all_schemes() {
        let disabled = Registry::disabled();
        let kv = Workload::KvStore { keyspace: 16 };
        let result = history_world(Chain::Poa, &disabled).run(kv, 3, 2, 1, Scheme::Hierarchical);
        assert_eq!(result.breakdowns.len(), 3);
        assert_eq!(result.certs.len(), 3);
        let total: std::time::Duration = result.breakdowns.iter().map(CertBreakdown::total).sum();
        assert!(total > std::time::Duration::ZERO);

        let result = history_world(Chain::Poa, &disabled).run(kv, 2, 2, 1, Scheme::Augmented);
        assert_eq!(result.breakdowns.len(), 2);

        let mut world = World::new(Setup::poa(CostModel::calibrated()));
        let result = world.run(Workload::DoNothing, 2, 1, 1, Scheme::BlockOnly);
        assert_eq!(result.breakdowns.len(), 2);
        // The client validates the tip.
        let tip = result.certs.last().expect("two certificates");
        world
            .client
            .validate_chain(&result.tip.header, tip)
            .unwrap();
    }

    #[test]
    fn attached_registry_sees_world_traffic() {
        let obs = Registry::new();
        let mut world = history_world(Chain::Poa, &obs);
        world.run(
            Workload::KvStore { keyspace: 16 },
            2,
            2,
            1,
            Scheme::Hierarchical,
        );
        let snapshot = obs.snapshot();
        assert!(
            snapshot.counter("enclave.ecalls") > 0,
            "CI enclave reports its ECalls through the world's registry"
        );
        assert!(snapshot.counter("enclave.bytes_in") > 0);
        let cert_bytes = snapshot
            .histograms
            .get("sp.cert_bytes")
            .expect("SP records certificate sizes");
        assert!(cert_bytes.count > 0);
    }

    /// Three KV + index blocks on `chain`: the certificate stream as
    /// bytes, and the replay-stable part of the metric snapshot.
    fn replay_stable_run(chain: Chain) -> (Vec<u8>, Snapshot) {
        let obs = Registry::new();
        let mut world = history_world(chain, &obs);
        let result = world.run(
            Workload::KvStore { keyspace: 64 },
            3,
            32,
            42,
            Scheme::Hierarchical,
        );
        let mut stream = Vec::new();
        for cert in result.certs.iter().chain(world.sp.certificate("history")) {
            cert.encode(&mut stream);
        }
        (stream, obs.snapshot().without_wall_clock())
    }

    /// The determinism the goldens and the figures rest on: on either
    /// chain, two same-seed worlds sign the same certificates and export
    /// the same counters.
    #[test]
    fn same_seed_runs_agree_on_every_counter() {
        for chain in [Chain::Pow, Chain::Poa] {
            let (stream, snapshot) = replay_stable_run(chain);
            assert!(
                snapshot.counter("enclave.ecalls") > 0 && snapshot.counter("enclave.bytes_in") > 0
            );
            let (again, again_snapshot) = replay_stable_run(chain);
            assert_eq!(stream, again, "{chain:?}: same seed, same certificates");
            assert_eq!(
                snapshot, again_snapshot,
                "{chain:?}: same seed, same counters"
            );
        }
    }
}
