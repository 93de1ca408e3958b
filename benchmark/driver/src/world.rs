//! The parts every workload builds its world from: one PoA-sealed
//! genesis, the Blockbench executor, an attestation service, and the
//! fixed configuration the issue pins (constants, not knobs).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dcert_chain::{
    Block, ChainState, ConsensusEngine, FullNode, GenesisBuilder, ProofOfAuthority, Transaction,
};
use dcert_core::{
    expected_measurement, Certificate, CertificateIssuer, IndexInput, IndexVerifier, NetMessage,
    SuperlightClient,
};
use dcert_obs::Registry;
use dcert_primitives::hash::{Address, Hash};
use dcert_primitives::keys::{Keypair, PublicKey};
use dcert_query::sp::IndexKind;
use dcert_query::ServiceProvider;
use dcert_sgx::{AttestationService, CostModel};
use dcert_vm::Executor;
use dcert_workloads::{blockbench_registry, Workload, WorkloadGen};

use crate::error::{gate, BenchError};
use crate::trace::Tracer;

/// Sender accounts behind every transaction generator.
pub const SENDER_ACCOUNTS: usize = 1024;

/// Seconds between block timestamps.
const BLOCK_INTERVAL: u64 = 15;
const GENESIS_TIMESTAMP: u64 = 1_700_000_000;

/// Deterministic enclave seeds: the sequential issuer, the pipeline and
/// the shard fleet must share them for their certificates to be
/// byte-identical.
pub const PLATFORM_SEED: [u8; 32] = [0xC1; 32];
pub const SIGNING_SEED: [u8; 32] = [0x51; 32];

/// The paper's SGX shape everywhere: marshalled bytes and trusted time
/// cost wall-clock, so an optimisation of either shows.
pub fn cost_model() -> CostModel {
    CostModel::calibrated()
}

/// Genesis, consensus and executor shared by every node of one world.
pub struct Base {
    pub engine: Arc<dyn ConsensusEngine>,
    pub executor: Executor,
    pub genesis: Block,
    pub genesis_state: ChainState,
    pub ias: AttestationService,
    pub measurement: Hash,
}

impl Base {
    pub fn new() -> Self {
        let sealer = Keypair::from_seed([0x5e; 32]);
        let engine: Arc<dyn ConsensusEngine> =
            Arc::new(ProofOfAuthority::new_sealer(vec![sealer.public()], sealer));
        let executor = Executor::new(Arc::new(blockbench_registry()));
        let (genesis, genesis_state) = GenesisBuilder::new().timestamp(GENESIS_TIMESTAMP).build();
        Base {
            engine,
            executor,
            genesis,
            genesis_state,
            ias: AttestationService::with_seed([0xA5; 32]),
            measurement: expected_measurement(),
        }
    }

    pub fn ias_key(&self) -> PublicKey {
        self.ias.public_key()
    }

    pub fn miner(&self) -> Miner {
        Miner {
            node: FullNode::new(
                &self.genesis,
                self.genesis_state.clone(),
                self.executor.clone(),
                self.engine.clone(),
                Address::from_seed(1),
            ),
        }
    }

    /// A service provider maintaining `indexes`, reporting into `obs`.
    pub fn service_provider(
        &self,
        indexes: &[(IndexKind, &str)],
        obs: &Registry,
    ) -> ServiceProvider {
        let mut sp = ServiceProvider::new(
            &self.genesis,
            self.genesis_state.clone(),
            self.executor.clone(),
            self.engine.clone(),
        );
        for (kind, name) in indexes {
            sp.add_index(*kind, name);
        }
        sp.attach_obs(obs);
        sp
    }

    /// A deterministic sequential issuer whose enclave reports into `obs`.
    pub fn issuer(
        &mut self,
        verifiers: Vec<Box<dyn IndexVerifier>>,
        obs: &Registry,
    ) -> Result<CertificateIssuer, BenchError> {
        let ci = CertificateIssuer::new_deterministic(
            PLATFORM_SEED,
            SIGNING_SEED,
            &self.genesis,
            self.genesis_state.clone(),
            self.executor.clone(),
            self.engine.clone(),
            verifiers,
            &mut self.ias,
            cost_model(),
        )?;
        ci.attach_obs(obs);
        Ok(ci)
    }

    pub fn client(&self) -> SuperlightClient {
        SuperlightClient::new(self.ias_key(), self.measurement)
    }
}

/// The mining full node plus the block clock.
pub struct Miner {
    pub node: FullNode,
}

impl Miner {
    pub fn mine(&mut self, txs: Vec<Transaction>) -> Result<Block, BenchError> {
        let timestamp = GENESIS_TIMESTAMP + BLOCK_INTERVAL * (self.node.height() + 1);
        Ok(self.node.mine(txs, timestamp)?)
    }
}

/// Pre-generates `blocks` blocks' worth of signed transactions.
pub fn generate_blocks(
    workload: Workload,
    seed: u64,
    blocks: u64,
    txs_per_block: usize,
) -> Vec<Vec<Transaction>> {
    let mut gen = WorkloadGen::new(workload, SENDER_ACCOUNTS, seed);
    (0..blocks).map(|_| gen.next_block(txs_per_block)).collect()
}

/// The certificates of one hierarchically certified block, as the
/// messages a CI publishes: the block certificate, then one per index.
pub fn cert_messages(
    block: &Block,
    block_cert: &Certificate,
    inputs: &[IndexInput],
    index_certs: &[Certificate],
) -> Vec<NetMessage> {
    let mut messages = Vec::with_capacity(1 + inputs.len());
    messages.push(NetMessage::BlockCert {
        header: block.header.clone(),
        cert: block_cert.clone(),
    });
    for (input, cert) in inputs.iter().zip(index_certs) {
        messages.push(NetMessage::IndexCert {
            header: block.header.clone(),
            index: input.index_type.clone(),
            digest: input.new_digest,
            cert: cert.clone(),
        });
    }
    messages
}

/// A fresh superlight client validates the tip from `messages` alone —
/// the bootstrap the paper's Fig. 7b times.
pub fn bootstrap(
    ias_key: PublicKey,
    measurement: Hash,
    messages: &[NetMessage],
) -> Result<SuperlightClient, BenchError> {
    let mut fresh = SuperlightClient::new(ias_key, measurement);
    for message in messages {
        match message {
            NetMessage::BlockCert { header, cert } => fresh.validate_chain(header, cert)?,
            NetMessage::IndexCert {
                index,
                digest,
                cert,
                ..
            } => fresh.validate_index(index, *digest, cert)?,
            _ => {}
        }
    }
    gate(fresh.height().is_some(), || {
        "bootstrap saw no block certificate".to_owned()
    })?;
    Ok(fresh)
}

/// Fresh-client validations of a tip timed after a timed region, and how
/// many of them share one pacing segment.
const BOOTSTRAPS: u64 = 2_000;
const BOOTSTRAPS_PER_BEAT: u64 = 10;

/// Times [`BOOTSTRAPS`] fresh clients validating `tip` into pacing
/// channel `channel`; returns the bytes one such client ends up storing.
pub fn time_bootstraps(
    tracer: &mut Tracer,
    channel: usize,
    ias_key: PublicKey,
    measurement: Hash,
    tip: &[NetMessage],
) -> Result<usize, BenchError> {
    let mut storage = 0;
    for repetition in 0..BOOTSTRAPS {
        let started = tracer.clock.now_ns();
        let fresh = bootstrap(ias_key, measurement, tip)?;
        tracer.pace.sample(channel, tracer.clock.now_ns() - started);
        if (repetition + 1) % BOOTSTRAPS_PER_BEAT == 0 {
            tracer.pace.beat();
        }
        storage = fresh.storage_bytes();
    }
    Ok(storage)
}

/// A scratch directory under `benchmark/out/` (the benchmark reads and
/// writes only inside its checkout), emptied on creation.
pub fn scratch_dir(out_dir: &Path, label: &str) -> Result<PathBuf, BenchError> {
    let dir = out_dir.join(format!("tmp-{}-{label}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError::Gate("VmHWM missing from /proc/self/status".to_owned()))
}
