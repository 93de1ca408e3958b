//! The shared experiment rig: miner + CI + SP + client on one genesis.

use std::sync::Arc;
use std::time::Duration;

use dcert_chain::{Block, ChainState, ConsensusEngine, FullNode, GenesisBuilder, ProofOfAuthority};
use dcert_core::{
    expected_measurement, CertBreakdown, Certificate, CertificateIssuer, SuperlightClient,
};
use dcert_obs::Registry;
use dcert_primitives::hash::Address;
use dcert_primitives::keys::Keypair;
use dcert_query::sp::IndexKind;
use dcert_query::ServiceProvider;
use dcert_sgx::{AttestationService, CostModel};
use dcert_vm::{Executor, StateKey};
use dcert_workloads::{blockbench_registry, Workload, WorkloadGen};

use crate::params::SENDER_ACCOUNTS;

/// The KVStore contract's state key for account `i` (`key-<i>`): what the
/// query and serving figures probe.
pub fn kv_key(i: u64) -> StateKey {
    StateKey::new("kvstore", format!("key-{i}").as_bytes())
}

/// Which certificate scheme the rig drives per block.
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

/// Rig configuration.
#[derive(Debug, Clone)]
pub struct RigConfig {
    /// The simulated SGX cost model.
    pub cost: CostModel,
    /// Indexes registered on the SP/enclave (kind, name).
    pub indexes: Vec<(IndexKind, String)>,
    /// Metric registry attached to the CI enclave and the SP; the
    /// disabled default keeps unmeasured rigs observation-free.
    pub obs: Registry,
}

impl Default for RigConfig {
    fn default() -> Self {
        RigConfig {
            cost: CostModel::calibrated(),
            indexes: Vec::new(),
            obs: Registry::disabled(),
        }
    }
}

/// A complete experiment world: one miner, one CI (with enclave + IAS),
/// one SP, one superlight client — proof-of-authority sealed so chain
/// building never dominates the measurement.
pub struct Rig {
    pub miner: FullNode,
    pub ci: CertificateIssuer,
    pub sp: ServiceProvider,
    pub ias: AttestationService,
    pub client: SuperlightClient,
    pub engine: Arc<dyn ConsensusEngine>,
    pub genesis: Block,
    pub genesis_state: ChainState,
    pub executor: Executor,
    timestamp: u64,
}

impl Rig {
    /// A rig without indexes, under `cost`, reporting into `obs`.
    pub fn block_only(cost: CostModel, obs: &Registry) -> Self {
        Rig::new(RigConfig {
            cost,
            indexes: Vec::new(),
            obs: obs.clone(),
        })
    }

    /// Builds a rig.
    pub fn new(config: RigConfig) -> Self {
        let sealer = Keypair::from_seed([0x5e; 32]);
        let authority = sealer.public();
        let engine: Arc<dyn ConsensusEngine> =
            Arc::new(ProofOfAuthority::new_sealer(vec![authority], sealer));
        let executor = Executor::new(Arc::new(blockbench_registry()));
        let (genesis, genesis_state) = GenesisBuilder::new().timestamp(1_700_000_000).build();

        let miner = FullNode::new(
            &genesis,
            genesis_state.clone(),
            executor.clone(),
            engine.clone(),
            Address::from_seed(1),
        );
        let mut sp = ServiceProvider::new(
            &genesis,
            genesis_state.clone(),
            executor.clone(),
            engine.clone(),
        );
        for (kind, name) in &config.indexes {
            sp.add_index(*kind, name);
        }
        sp.attach_obs(&config.obs);
        let mut ias = AttestationService::with_seed([0xA5; 32]);
        let ci = CertificateIssuer::new(
            &genesis,
            genesis_state.clone(),
            executor.clone(),
            engine.clone(),
            sp.verifiers(),
            &mut ias,
            config.cost,
        )
        .expect("CI boots");
        ci.attach_obs(&config.obs);
        let client = SuperlightClient::new(ias.public_key(), expected_measurement());

        Rig {
            miner,
            ci,
            sp,
            ias,
            client,
            engine,
            genesis,
            genesis_state,
            executor,
            timestamp: 1_700_000_000,
        }
    }

    /// Builds a workload generator with the standard sender pool.
    pub fn generator(&self, workload: Workload, seed: u64) -> WorkloadGen {
        WorkloadGen::new(workload, SENDER_ACCOUNTS, seed)
    }

    /// Mines the next block with `txs`.
    pub fn mine(&mut self, txs: Vec<dcert_chain::Transaction>) -> Block {
        self.timestamp += 15;
        self.miner
            .mine(txs, self.timestamp)
            .expect("mining succeeds")
    }

    /// Mines + certifies `blocks` blocks of `workload` under `scheme`,
    /// returning per-block breakdowns and the latest block+certificate.
    pub fn run(
        &mut self,
        workload: Workload,
        blocks: u64,
        txs_per_block: usize,
        seed: u64,
        scheme: Scheme,
    ) -> RunResult {
        let mut gen = self.generator(workload, seed);
        let mut breakdowns = Vec::with_capacity(blocks as usize);
        let mut latest: Option<(Block, Certificate)> = None;
        for _ in 0..blocks {
            let block = self.mine(gen.next_block(txs_per_block));
            match scheme {
                Scheme::BlockOnly => {
                    assert!(
                        self.sp.verifiers().is_empty(),
                        "block-only runs must not register indexes"
                    );
                    let (cert, breakdown) = self
                        .ci
                        .certify_block(&block)
                        .expect("certification succeeds");
                    breakdowns.push(breakdown);
                    latest = Some((block, cert));
                }
                Scheme::Augmented => {
                    let inputs = self.sp.stage_block(&block).expect("sp applies");
                    let (certs, breakdown) = self
                        .ci
                        .certify_augmented(&block, &inputs)
                        .expect("certification succeeds");
                    self.sp.record_certs(&certs);
                    breakdowns.push(breakdown);
                    latest = Some((block, certs.into_iter().next().expect("≥1 index")));
                }
                Scheme::Hierarchical => {
                    let inputs = self.sp.stage_block(&block).expect("sp applies");
                    let (block_cert, certs, breakdown) = self
                        .ci
                        .certify_hierarchical(&block, &inputs)
                        .expect("certification succeeds");
                    self.sp.record_certs(&certs);
                    breakdowns.push(breakdown);
                    latest = Some((block, block_cert));
                }
            }
        }
        let (block, cert) = latest.expect("at least one block");
        RunResult {
            breakdowns,
            latest_block: block,
            latest_cert: cert,
        }
    }
}

/// The outcome of [`Rig::run`].
pub struct RunResult {
    /// One breakdown per certified block.
    pub breakdowns: Vec<CertBreakdown>,
    /// The chain tip.
    pub latest_block: Block,
    /// Its certificate (block or augmented, per scheme).
    pub latest_cert: Certificate,
}

impl RunResult {
    /// Averages the breakdowns (skipping the first block as warm-up when
    /// more than two were measured).
    pub fn average(&self) -> AvgBreakdown {
        let slice = if self.breakdowns.len() > 2 {
            &self.breakdowns[1..]
        } else {
            &self.breakdowns[..]
        };
        let n = slice.len() as u32;
        let mean =
            |part: fn(&CertBreakdown) -> Duration| slice.iter().map(part).sum::<Duration>() / n;
        let mean_count =
            |count: fn(&CertBreakdown) -> f64| slice.iter().map(count).sum::<f64>() / f64::from(n);
        AvgBreakdown {
            rw_set_gen: mean(|b| b.rw_set_gen),
            proof_gen: mean(|b| b.proof_gen),
            enclave_total: mean(|b| b.enclave_total),
            enclave_trusted: mean(|b| b.enclave_trusted),
            request_bytes: mean_count(|b| b.request_bytes as f64),
            ecalls: mean_count(|b| b.ecalls as f64),
        }
    }
}

/// Averaged certificate-construction breakdown.
#[derive(Debug, Clone, Copy)]
pub struct AvgBreakdown {
    pub rw_set_gen: Duration,
    pub proof_gen: Duration,
    pub enclave_total: Duration,
    pub enclave_trusted: Duration,
    pub request_bytes: f64,
    pub ecalls: f64,
}

impl AvgBreakdown {
    /// Total average construction time.
    pub fn total(&self) -> Duration {
        self.rw_set_gen + self.proof_gen + self.enclave_total
    }

    /// The enclave slowdown factor: time with boundary costs over the pure
    /// trusted compute time (the paper reports ≤ ~1.8×).
    pub fn overhead_factor(&self) -> f64 {
        if self.enclave_trusted.is_zero() {
            1.0
        } else {
            self.enclave_total.as_secs_f64() / self.enclave_trusted.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero-cost rig with one history index.
    fn history_rig(obs: Registry) -> Rig {
        Rig::new(RigConfig {
            cost: CostModel::zero(),
            indexes: vec![(IndexKind::History, "history".into())],
            obs,
        })
    }

    #[test]
    fn rig_runs_all_schemes() {
        let mut rig = history_rig(Registry::disabled());
        let result = rig.run(
            Workload::KvStore { keyspace: 16 },
            3,
            2,
            1,
            Scheme::Hierarchical,
        );
        assert_eq!(result.breakdowns.len(), 3);
        assert!(result.average().total() > Duration::ZERO);

        let mut rig2 = history_rig(Registry::disabled());
        let result2 = rig2.run(
            Workload::KvStore { keyspace: 16 },
            2,
            2,
            1,
            Scheme::Augmented,
        );
        assert_eq!(result2.breakdowns.len(), 2);

        let mut rig3 = Rig::new(RigConfig::default());
        let result3 = rig3.run(Workload::DoNothing, 2, 1, 1, Scheme::BlockOnly);
        assert_eq!(result3.breakdowns.len(), 2);
        // The client validates the tip.
        rig3.client
            .validate_chain(&result3.latest_block.header, &result3.latest_cert)
            .unwrap();
    }

    #[test]
    fn attached_registry_sees_rig_traffic() {
        let obs = Registry::new();
        let mut rig = history_rig(obs.clone());
        rig.run(
            Workload::KvStore { keyspace: 16 },
            2,
            2,
            1,
            Scheme::Hierarchical,
        );
        let snapshot = obs.snapshot();
        assert!(
            snapshot.counter("enclave.ecalls") > 0,
            "CI enclave reports its ECalls through the rig's registry"
        );
        assert!(snapshot.counter("enclave.bytes_in") > 0);
        let cert_bytes = snapshot
            .histograms
            .get("sp.cert_bytes")
            .expect("SP records certificate sizes");
        assert!(cert_bytes.count > 0);
    }

    /// One KV + index run, as the replay-stable part of its metric snapshot.
    fn replay_stable_snapshot() -> dcert_obs::Snapshot {
        let obs = Registry::new();
        let mut rig = history_rig(obs.clone());
        rig.run(
            Workload::KvStore { keyspace: 64 },
            1,
            32,
            42,
            Scheme::Hierarchical,
        );
        obs.snapshot().without_wall_clock()
    }

    /// The determinism the figures rest on: two same-seed runs export the
    /// same counters.
    #[test]
    fn same_seed_runs_agree_on_every_counter() {
        let first = replay_stable_snapshot();
        assert!(first.counter("enclave.ecalls") > 0 && first.counter("enclave.bytes_in") > 0);
        assert_eq!(first, replay_stable_snapshot(), "same seed, same counters");
    }
}
