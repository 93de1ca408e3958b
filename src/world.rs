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
//! the memo chain the persistence suites observe, [`naive`], the
//! reference certification program, and [`oracle`], the reference query
//! answers read straight off the chain.
//!
//! The world also owns the Fig. 2 certificate network: one [`SimNet`]
//! seeded and faulted by [`Setup::net`] (lossless by default), and the
//! CI's [`CertArchive`] over it. The client is the net's only endpoint,
//! endpoint 0, so a [`Partition`](dcert_core::Partition) on endpoint 0
//! cuts the client off. [`World::deliver`] feeds the client what reached
//! it and [`World::converge`] heals the net and resyncs the client to the
//! archive's tip. The net is not attached to [`Setup::registry`]: a
//! caller that wants its `net.*` counters attaches it.
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
    expected_measurement, CertArchive, CertBreakdown, Certificate, CertificateIssuer, FaultConfig,
    IndexInput, NetMessage, RecoverError, ShardFleetConfig, ShardedCertEngine, SimNet,
    SuperlightClient, SyncOutcome, Transport,
};
use dcert_obs::Registry;
use dcert_primitives::codec::Encode;
use dcert_primitives::hash::{Address, Hash};
use dcert_primitives::keys::Keypair;
use dcert_query::sp::IndexKind;
use dcert_query::ServiceProvider;
use dcert_serve::{
    encode_history_payload, encode_keyword_payload, QuerySpec, RefusalReason, ServeFront,
    ServeRequest, ServeResponse, ServeWire, Submitted,
};
use dcert_sgx::{AttestationService, CostModel};
use dcert_store::Store;
use dcert_vm::{Executor, StateKey};
use dcert_workloads::kvstore::KvCall;
use dcert_workloads::{blockbench_registry, ServeEvent, ServeQueryKind, Workload, WorkloadGen};

pub mod naive;
pub mod oracle;

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
                let sealer = Chain::poa_sealer();
                Arc::new(ProofOfAuthority::new_sealer(vec![sealer.public()], sealer))
            }
        }
    }

    /// The engine the SP checks seals with: the miner's rule, and on
    /// proof of authority no sealing key — the seal is all the SP checks,
    /// and it seals nothing.
    fn follower_engine(self) -> Arc<dyn ConsensusEngine> {
        match self {
            Chain::Pow => self.engine(),
            Chain::Poa => Arc::new(ProofOfAuthority::new_verifier(vec![
                Chain::poa_sealer().public()
            ])),
        }
    }

    /// The proof-of-authority chain's one authorised sealer.
    fn poa_sealer() -> Keypair {
        Keypair::from_seed([0x5e; 32])
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
    /// The certificate network's seed and faults ([`World::net`]).
    pub net: (u64, FaultConfig),
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
            net: (0, FaultConfig::lossless()),
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
    /// The certificate network; the client is its endpoint 0.
    pub net: Arc<SimNet>,
    /// The CI's publish path over `net`, which [`World::converge`] resyncs from.
    pub archive: Arc<CertArchive<SimNet>>,
    /// The client's endpoint: its next waiting message.
    inbox: Box<dyn Fn() -> Option<NetMessage> + Send + Sync>,
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
            net: (seed, faults),
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
        let mut sp = sp_at_genesis(&genesis, &genesis_state, &executor, chain, &indexes);
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
        let net = Arc::new(SimNet::new(seed, faults));
        let inbox = net.join();
        let archive = Arc::new(CertArchive::new(net.clone()));
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
            net,
            archive,
            inbox: Box::new(move || inbox.try_recv().ok()),
            chain,
            cost,
            indexes,
        }
    }

    /// Feeds every message waiting at the client's endpoint to
    /// [`SuperlightClient::on_message`], in arrival order.
    pub fn deliver(&mut self) -> Vec<SyncOutcome> {
        std::iter::from_fn(|| (self.inbox)())
            .map(|message| self.client.on_message(&message))
            .collect()
    }

    /// Heals the net and resyncs the client to the archive's tip: each
    /// round delivers what reached the client, then republishes the
    /// client's [`SuperlightClient::resync_request`] widened to
    /// `have+1..=tip`. Returns the rounds it took.
    ///
    /// # Panics
    ///
    /// After `tip + 10` rounds, naming the net's seed and stats.
    pub fn converge(&mut self) -> u64 {
        self.net.heal();
        let tip = self.archive.tip_height().unwrap_or(0);
        let mut rounds = 0u64;
        loop {
            self.deliver();
            let have = self.client.height().unwrap_or(0);
            if have >= tip {
                return rounds;
            }
            rounds += 1;
            assert!(
                rounds <= tip + 10,
                "CHAOS_SEED={}: no convergence after {rounds} resync rounds \
                 (superlight {:?}, stats {:?})",
                self.net.seed(),
                self.client.height(),
                self.net.stats(),
            );
            let (from, to) = match self.client.resync_request() {
                Some(NetMessage::CertRequest { from, to }) => (from.min(have + 1), to.max(tip)),
                _ => (have + 1, tip),
            };
            self.archive.republish(from, to);
        }
    }

    /// A fresh SP at genesis with this world's indexes: what a restarted
    /// SP recovers into.
    pub fn genesis_sp(&self) -> ServiceProvider {
        sp_at_genesis(
            &self.genesis,
            &self.genesis_state,
            &self.executor,
            self.chain,
            &self.indexes,
        )
    }

    /// A [`World::genesis_sp`] recovered from `store` under this world's
    /// trust anchors: it follows the store's committed blocks back to the
    /// committed tip and stands there, chain view and indexes alike. An
    /// empty store gives it persistence from genesis.
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

    /// `block` with its first transaction's signature broken (the nonce
    /// the signature covers moved) under a recomputed transaction root and
    /// an honest seal. Execution never reads a nonce, so the forgery
    /// reaches the honest state root: a block that follows the chain and
    /// that only the enclave's signature check refuses.
    ///
    /// # Panics
    ///
    /// If `block` has no transaction.
    pub fn forge_signature(&self, block: &Block) -> Block {
        let mut forged = block.clone();
        forged.txs[0].nonce += 1;
        forged.header.tx_root = Block::tx_root(&forged.txs);
        self.engine
            .seal(&mut forged.header)
            .expect("the world's engine seals");
        forged
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

/// An SP at `genesis` of `chain` with `indexes` registered.
fn sp_at_genesis(
    genesis: &Block,
    state: &ChainState,
    executor: &Executor,
    chain: Chain,
    indexes: &[(IndexKind, String)],
) -> ServiceProvider {
    let engine = chain.follower_engine();
    let mut sp = ServiceProvider::new(genesis, state.clone(), executor.clone(), engine);
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
    pub height: u64,
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
        height: sp.height(),
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
            index: "history".into(),
            key,
            t1: 1,
            t2: height,
        },
        ServeQueryKind::Keywords => QuerySpec::Keywords {
            index: "inverted".into(),
            keywords: vec![format!("key-{}", event.key)],
        },
        ServeQueryKind::Aggregate => QuerySpec::Aggregate {
            index: "agg".into(),
            key,
            t1: 1,
            t2: height,
        },
        ServeQueryKind::HistoryOp => QuerySpec::HistoryOp {
            index: "history".into(),
            key,
            t1: 1,
            t2: height,
        },
        ServeQueryKind::AggregateOp => QuerySpec::AggregateOp {
            index: "agg".into(),
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
    /// Every response, from the cache or the pump, in delivery order,
    /// beside the index height its request was asked at; a response's id
    /// is its request's position in the schedule.
    pub answers: Vec<(u64, ServeResponse)>,
    /// What staging the fresh block returned: its index inputs, for the CI.
    pub staged: Vec<IndexInput>,
}

/// Each admitted request still waiting, by id: its admission tick and the
/// index height it was asked at.
type Waiting = HashMap<u64, (u64, u64)>;

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
        admitted: &mut Waiting,
    ) {
        for (client, id) in abandons.drain(..) {
            if front.cancel(client, id) {
                admitted.remove(&id);
                self.cancelled += 1;
            }
        }
    }

    /// One pump of `budget` queries at `tick`.
    fn drain(&mut self, front: &mut ServeFront, admitted: &mut Waiting, tick: u64, budget: usize) {
        for (_, wire) in front.pump(tick, budget) {
            match wire {
                ServeWire::Response(response) => {
                    if let Some((at, asked_at)) = admitted.remove(&response.id) {
                        self.waits.push(tick.saturating_sub(at));
                        self.answers.push((asked_at, response));
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
/// `fresh` at the first tick boundary at or past the schedule's midpoint,
/// after that boundary's drains (invalidation under load: the front has
/// pumped and cached by then; a one-tick schedule stages after its first
/// drain), then pumps until nothing is in flight. Keeps every answer and
/// what staging `fresh` returned, so the caller can check the one and
/// certify the other.
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
    let mut admitted = Waiting::new();
    let mut abandons: Vec<(u64, u64)> = Vec::new(); // (client, id)
    let mut current_tick = schedule.first().map_or(0, |e| e.tick);
    // The tick whose drain the stage follows: the first tick opened at or
    // past the midpoint, else the one past the schedule's last.
    let last_tick = schedule.last().map_or(0, |e| e.tick);
    let stage_tick = schedule
        .windows(2)
        .skip((schedule.len() / 2).saturating_sub(1))
        .find(|pair| pair[0].tick != pair[1].tick)
        .map_or(last_tick + 1, |pair| pair[1].tick);
    let pump =
        |outcome: &mut ReplayOutcome, front: &mut ServeFront, admitted: &mut Waiting, tick| {
            outcome.drain(front, admitted, tick, budget);
            if tick == stage_tick {
                outcome.staged = front.stage_block(fresh).expect("the fresh block stages");
                front.advance(None).expect("the fresh block settles");
            }
        };

    for (i, event) in schedule.iter().enumerate() {
        if event.tick != current_tick {
            outcome.cancel(front, &mut abandons, &mut admitted);
            for tick in current_tick + 1..=event.tick {
                pump(&mut outcome, front, &mut admitted, tick);
            }
            current_tick = event.tick;
        }
        let id = i as u64;
        let asked_at = front.sp().height();
        let request = ServeRequest {
            client: event.client,
            id,
            query: spec_for(event, asked_at),
        };
        match front.submit(event.tick, request) {
            Ok(Submitted::CacheHit(response)) => {
                outcome.cache_hits += 1;
                outcome.answers.push((asked_at, response));
            }
            Ok(Submitted::Enqueued { coalesced }) => {
                outcome.coalesce_hits += u64::from(coalesced);
                admitted.insert(id, (event.tick, asked_at));
                if event.abandon {
                    abandons.push((event.client, id));
                }
            }
            Err(refusal) => outcome.refused_admission.push(refusal.reason),
        }
    }

    outcome.cancel(front, &mut abandons, &mut admitted);
    let mut tick = current_tick;
    while tick < stage_tick || front.inflight_entries() > 0 {
        tick += 1;
        pump(&mut outcome, front, &mut admitted, tick);
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

    /// Mines `count` blocks and publishes their certificates through the
    /// world's archive.
    fn publish_chain(world: &mut World, count: usize) -> Vec<Block> {
        let blocks = world.mine_blocks(Workload::KvStore { keyspace: 16 }, count, 2, 1);
        for (block, cert) in blocks.iter().zip(world.certify_blocks(&blocks)) {
            let header = block.header.clone();
            world
                .archive
                .publish(NetMessage::BlockCert { header, cert });
        }
        blocks
    }

    #[test]
    fn a_lossless_net_delivers_the_stream_in_height_order() {
        let mut world = World::pow(&[]);
        let blocks = publish_chain(&mut world, 4);
        // Any certificate out of height order would be `Stale`.
        assert_eq!(world.deliver(), vec![SyncOutcome::Adopted; 4]);
        assert_eq!(
            world.client.latest_header(),
            blocks.last().map(|b| &b.header)
        );
        assert_eq!(world.converge(), 0, "nothing was lost");
    }

    #[test]
    fn equal_setups_fault_and_converge_alike() {
        let run = || {
            let mut faults = FaultConfig::default_chaos();
            faults.partitions.push(dcert_core::Partition {
                start: 2,
                end: 5,
                endpoints: vec![0],
            });
            let mut world = World::new(Setup {
                net: (0x3E7, faults),
                ..Setup::pow()
            });
            publish_chain(&mut world, 8);
            world.converge();
            (world.net.stats(), world.client.latest_header().cloned())
        };
        let (stats, tip) = run();
        assert!(stats.partitioned > 0, "the partition cut the client off");
        assert_eq!(tip.as_ref().map(|h| h.height), Some(8));
        assert_eq!(run(), (stats, tip));
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
