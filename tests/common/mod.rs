//! Shared fixtures for the integration tests: a mined chain, a Certificate
//! Issuer, a Service Provider, the simulated IAS, and a superlight client,
//! all wired to the same genesis and Blockbench contract semantics.

use std::sync::Arc;

use dcert::chain::{
    Block, ChainState, ConsensusEngine, FullNode, GenesisBuilder, ProofOfWork, Transaction,
};
use dcert::core::{
    expected_measurement, Certificate, CertificateIssuer, ShardFleetConfig, ShardedCertEngine,
    SuperlightClient,
};
use dcert::primitives::codec::Encode;
use dcert::primitives::hash::{Address, Hash};
use dcert::primitives::keys::Keypair;
use dcert::query::sp::IndexKind;
use dcert::query::ServiceProvider;
use dcert::serve::{encode_history_payload, encode_keyword_payload, ServeFront};
use dcert::sgx::{AttestationService, CostModel};
use dcert::vm::{Executor, StateKey};
use dcert::workloads::kvstore::KvCall;
use dcert::workloads::{blockbench_registry, Workload, WorkloadGen};

/// Difficulty used by integration tests (fast to mine, non-trivial to
/// fake).
pub const TEST_POW_BITS: u8 = 4;

/// Platform seed for [`World::deterministic`] worlds: CIs booted with it
/// share a platform identity (and therefore attestation quotes).
#[allow(dead_code)] // not every test binary uses the deterministic world
pub const TEST_PLATFORM_SEED: [u8; 32] = [0xC1; 32];

/// Enclave signing-key seed for [`World::deterministic`] worlds: ed25519
/// signing is deterministic, so CIs booted with it issue byte-identical
/// certificates — what the pipeline-equivalence suite compares.
#[allow(dead_code)]
pub const TEST_SIGNING_SEED: [u8; 32] = [0x51; 32];

/// Everything a test needs to drive the full DCert pipeline.
#[allow(dead_code)] // different integration tests use different fields
pub struct World {
    pub executor: Executor,
    pub engine: Arc<dyn ConsensusEngine>,
    pub genesis: Block,
    pub genesis_state: ChainState,
    pub miner: FullNode,
    pub ias: AttestationService,
    pub ci: CertificateIssuer,
    pub client: SuperlightClient,
}

impl World {
    /// Builds a world without SP indexes.
    #[allow(dead_code)] // not every test binary uses both constructors
    pub fn new() -> Self {
        Self::with_setup(Vec::new()).0
    }

    /// Builds a world plus a Service Provider with the given indexes.
    pub fn with_setup(indexes: Vec<(IndexKind, &str)>) -> (Self, ServiceProvider) {
        Self::build(indexes, None)
    }

    /// Builds a fully deterministic world: fixed genesis, fixed IAS seed,
    /// and a CI with pinned platform **and** enclave-signing seeds. Two
    /// worlds built by this constructor produce byte-identical
    /// certificates for the same blocks; tests assert on counts, bytes,
    /// and digests — never wall-clock (the enclave runs
    /// [`CostModel::zero`]).
    #[allow(dead_code)]
    pub fn deterministic(indexes: Vec<(IndexKind, &str)>) -> (Self, ServiceProvider) {
        Self::build(indexes, Some((TEST_PLATFORM_SEED, TEST_SIGNING_SEED)))
    }

    fn build(
        indexes: Vec<(IndexKind, &str)>,
        seeds: Option<([u8; 32], [u8; 32])>,
    ) -> (Self, ServiceProvider) {
        let executor = Executor::new(Arc::new(blockbench_registry()));
        let engine: Arc<dyn ConsensusEngine> = Arc::new(ProofOfWork::new(TEST_POW_BITS));
        let (genesis, genesis_state) = GenesisBuilder::new().timestamp(1_700_000_000).build();

        let miner = FullNode::new(
            &genesis,
            genesis_state.clone(),
            executor.clone(),
            engine.clone(),
            Address::from_seed(0xBEEF),
        );

        let mut sp = ServiceProvider::new(
            &genesis,
            genesis_state.clone(),
            executor.clone(),
            engine.clone(),
        );
        for (kind, name) in indexes {
            sp.add_index(kind, name);
        }

        let mut ias = AttestationService::with_seed([0xA5; 32]);
        let ci = match seeds {
            Some((platform_seed, signing_seed)) => CertificateIssuer::new_deterministic(
                platform_seed,
                signing_seed,
                &genesis,
                genesis_state.clone(),
                executor.clone(),
                engine.clone(),
                sp.verifiers(),
                &mut ias,
                CostModel::zero(),
            ),
            None => CertificateIssuer::new(
                &genesis,
                genesis_state.clone(),
                executor.clone(),
                engine.clone(),
                sp.verifiers(),
                &mut ias,
                CostModel::zero(),
            ),
        }
        .expect("CI boots");

        let client = SuperlightClient::new(ias.public_key(), expected_measurement());
        (
            World {
                executor,
                engine,
                genesis,
                genesis_state,
                miner,
                ias,
                ci,
                client,
            },
            sp,
        )
    }

    /// Mines `count` blocks of `workload` with `txs` transactions each on
    /// this world's miner (heights double as timestamps, keeping the
    /// chain fully seed-determined).
    #[allow(dead_code)] // not every test binary mines through the world
    pub fn mine_blocks(
        &mut self,
        workload: Workload,
        count: usize,
        txs: usize,
        seed: u64,
    ) -> Vec<Block> {
        let mut gen = WorkloadGen::new(workload, 8, seed);
        (0..count)
            .map(|_| {
                let height = self.miner.height() + 1;
                self.miner.mine(gen.next_block(txs), height).expect("mines")
            })
            .collect()
    }

    /// Stages `block` through `front` and records its augmented
    /// certificates — the full invalidating write path.
    #[allow(dead_code)] // only the serving suites hold a front
    pub fn certify_into(&mut self, front: &mut ServeFront, block: &Block) {
        let inputs = front.stage_block(block).expect("block stages");
        let (certs, _) = self
            .ci
            .certify_augmented(block, &inputs)
            .expect("block certifies");
        front.record_certs(&certs);
    }
}

// --- the fleet suites' shared fixtures ------------------------------------------

/// Builds a fleet sharing the deterministic world's seeds and chain
/// semantics, so its aggregator is seed-identical to the world's CI.
#[allow(dead_code)] // only the fleet suites build fleets
pub fn fleet_for(world: &World, config: ShardFleetConfig) -> ShardedCertEngine {
    ShardedCertEngine::new_deterministic(
        TEST_PLATFORM_SEED,
        TEST_SIGNING_SEED,
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        CostModel::zero(),
        config,
    )
    .expect("fleet configures")
}

/// Sequential oracle: a fresh seed-identical CI certifying `blocks` from
/// genesis, height by height.
#[allow(dead_code)]
pub fn sequential_oracle(blocks: &[Block]) -> Vec<Certificate> {
    let (mut world, _) = World::deterministic(Vec::new());
    blocks
        .iter()
        .map(|block| world.ci.certify_block(block).expect("oracle certifies").0)
        .collect()
}

/// Asserts byte-identity at every height.
#[allow(dead_code)]
pub fn assert_bytes_equal(oracle: &[Certificate], fleet: &[Certificate], label: &str) {
    assert_eq!(oracle.len(), fleet.len(), "{label}: certificate count");
    for (at, (a, b)) in oracle.iter().zip(fleet).enumerate() {
        assert_eq!(
            a.to_encoded_bytes(),
            b.to_encoded_bytes(),
            "{label}: certificate bytes diverge at height {}",
            at + 1
        );
    }
}

/// Polls `try_recv` until it yields or `deadline` passes: the threaded
/// suites' hang guard. A deadline poll over `try_recv` asks nothing of the
/// channel crate that every build of it does not carry.
#[allow(dead_code)] // only the threaded suites wait on channels
pub fn recv_within<T>(
    deadline: std::time::Duration,
    mut try_recv: impl FnMut() -> Option<T>,
) -> Option<T> {
    let started = std::time::Instant::now();
    loop {
        if let Some(message) = try_recv() {
            return Some(message);
        }
        if started.elapsed() >= deadline {
            return None;
        }
        // Yield, not sleep: the crash drills kill the pipeline the moment
        // the first certificate is out, and a sleep quantum is long enough
        // for a short chain to finish first.
        std::thread::yield_now();
    }
}

/// Creates a unique, empty temp directory for an integration test.
/// Uniqueness comes from the process id plus a counter — no ambient
/// randomness, so test runs stay fully seed-determined.
#[allow(dead_code)] // only the persistence suites need scratch directories
pub fn temp_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dcert-it-{}-{}-{label}", std::process::id(), n));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale temp dir removable");
    }
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}

// --- the persistence suites' shared SP fixture ---------------------------------

/// Everything a client could ask the SP, captured as comparable bytes.
/// Two SPs with equal observations are indistinguishable to clients.
#[allow(dead_code)] // only the persistence suites observe SPs
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

#[allow(dead_code)]
pub fn observe(sp: &ServiceProvider) -> Observation {
    let key = StateKey::new("kvstore", b"acct-main");
    let (results, proof) = sp
        .serve_history("history", &key, 0, 100)
        .expect("history index");
    let history_answer = encode_history_payload(&results, &proof);
    let (matches, kproof) = sp
        .serve_keywords("inverted", &["stock", "bank"])
        .expect("inverted index");
    let keyword_answer = encode_keyword_payload(&matches, &kproof);

    Observation {
        index_height: sp.index_height(),
        history_digest: sp.certified_digest("history"),
        inverted_digest: sp.certified_digest("inverted"),
        history_cert: sp.certificate("history").map(Encode::to_encoded_bytes),
        inverted_cert: sp.certificate("inverted").map(Encode::to_encoded_bytes),
        history_answer,
        keyword_answer,
    }
}

/// The indexes the persistence suites' worlds and SPs register.
#[allow(dead_code)]
pub fn world_indexes() -> Vec<(IndexKind, &'static str)> {
    vec![
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
    ]
}

/// A fresh genesis SP structurally identical to the one a
/// `World::deterministic(world_indexes())` drives (same deterministic
/// genesis, same registered indexes) — the starting point `recover_from`
/// requires.
#[allow(dead_code)]
pub fn genesis_sp() -> ServiceProvider {
    let executor = Executor::new(Arc::new(blockbench_registry()));
    let engine: Arc<dyn ConsensusEngine> = Arc::new(ProofOfWork::new(TEST_POW_BITS));
    let (genesis, genesis_state) = GenesisBuilder::new().timestamp(1_700_000_000).build();
    let mut sp = ServiceProvider::new(&genesis, genesis_state, executor, engine);
    for (kind, name) in world_indexes() {
        sp.add_index(kind, name);
    }
    sp
}

/// Mines a deterministic chain of memo-carrying puts, so both keyword and
/// history queries return non-trivial certified answers.
#[allow(dead_code)]
pub fn memo_blocks(world: &mut World, count: u64) -> Vec<Block> {
    let kp = Keypair::from_seed([77; 32]);
    (1..=count)
        .map(|height| {
            let memo = match height % 3 {
                0 => format!("dividend stock payout at {height}"),
                1 => format!("bank wire transfer at {height}"),
                _ => format!("stock AND bank combo at {height}"),
            };
            let tx = Transaction::sign(
                &kp,
                height,
                "kvstore",
                KvCall::Put {
                    key: b"acct-main".to_vec(),
                    value: memo.into_bytes(),
                }
                .to_encoded_bytes(),
            );
            world.miner.mine(vec![tx], height).expect("mines")
        })
        .collect()
}
