//! Deterministic request generators for the five workloads.

use dcert_chain::Transaction;
use dcert_primitives::codec::Encode;
use dcert_primitives::keys::Keypair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cpuheavy::CpuHeavyCall;
use crate::ioheavy::IoHeavyCall;
use crate::kvstore::KvCall;
use crate::smallbank::BankCall;

/// Which Blockbench workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// `DN` — empty transactions.
    DoNothing,
    /// `CPU` — sort arrays of the given size.
    CpuHeavy {
        /// Array length each transaction sorts.
        size: u32,
    },
    /// `IO` — batches of writes/reads of the given size.
    IoHeavy {
        /// Records per batch.
        batch: u32,
    },
    /// `KV` — uniform single-key put/get/delete mix.
    KvStore {
        /// Number of distinct keys.
        keyspace: u64,
    },
    /// `SB` — the SmallBank six-op mix.
    SmallBank {
        /// Number of customers.
        customers: u64,
    },
}

impl Workload {
    /// The short label the paper uses (DN/CPU/IO/KV/SB).
    pub fn label(&self) -> &'static str {
        match self {
            Workload::DoNothing => "DN",
            Workload::CpuHeavy { .. } => "CPU",
            Workload::IoHeavy { .. } => "IO",
            Workload::KvStore { .. } => "KV",
            Workload::SmallBank { .. } => "SB",
        }
    }

    /// The contract name targeted by this workload.
    pub fn contract(&self) -> &'static str {
        match self {
            Workload::DoNothing => "donothing",
            Workload::CpuHeavy { .. } => "cpuheavy",
            Workload::IoHeavy { .. } => "ioheavy",
            Workload::KvStore { .. } => "kvstore",
            Workload::SmallBank { .. } => "smallbank",
        }
    }

    /// Paper defaults for the five workloads (Fig. 8 setup).
    pub fn paper_defaults() -> [Workload; 5] {
        [
            Workload::DoNothing,
            Workload::CpuHeavy { size: 4096 },
            Workload::IoHeavy { batch: 32 },
            Workload::KvStore { keyspace: 500 },
            Workload::SmallBank { customers: 500 },
        ]
    }
}

/// A deterministic transaction-request generator.
///
/// Holds a pool of pre-generated sender keys (the paper uses 100 k sender
/// accounts; tests use smaller pools) and a seeded RNG, so the same seed
/// always produces the same transaction stream.
pub struct WorkloadGen {
    workload: Workload,
    senders: Vec<Keypair>,
    rng: StdRng,
    nonce: u64,
}

impl std::fmt::Debug for WorkloadGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadGen")
            .field("workload", &self.workload)
            .field("senders", &self.senders.len())
            .field("nonce", &self.nonce)
            .finish()
    }
}

impl WorkloadGen {
    /// Creates a generator with `senders` deterministic sender accounts;
    /// it holds at least one, so `senders = 0` behaves as 1.
    pub fn new(workload: Workload, senders: usize, seed: u64) -> Self {
        let mut key_rng = StdRng::seed_from_u64(seed ^ 0x5eed_acc0);
        let senders = (0..senders.max(1))
            .map(|_| {
                let mut key_seed = [0u8; 32];
                key_rng.fill(&mut key_seed);
                Keypair::from_seed(key_seed)
            })
            .collect();
        WorkloadGen {
            workload,
            senders,
            rng: StdRng::seed_from_u64(seed),
            nonce: 0,
        }
    }

    /// The generated workload.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Generates the next block's worth of `count` signed transactions.
    pub fn next_block(&mut self, count: usize) -> Vec<Transaction> {
        (0..count).map(|_| self.next_tx()).collect()
    }

    /// Generates one signed transaction.
    #[allow(
        clippy::indexing_slicing,
        reason = "`gen_range(0..len)` draws an index below `len`"
    )]
    pub fn next_tx(&mut self) -> Transaction {
        let sender_idx = self.rng.gen_range(0..self.senders.len());
        let nonce = self.nonce;
        self.nonce += 1;
        let payload = self.next_payload();
        let contract = self.workload.contract();
        Transaction::sign(&self.senders[sender_idx], nonce, contract, payload)
    }

    fn next_payload(&mut self) -> Vec<u8> {
        match self.workload {
            Workload::DoNothing => Vec::new(),
            Workload::CpuHeavy { size } => CpuHeavyCall {
                seed: self.rng.gen(),
                size,
            }
            .to_encoded_bytes(),
            Workload::IoHeavy { batch } => {
                let start = self.rng.gen_range(0..4096u64);
                if self.rng.gen_bool(0.5) {
                    IoHeavyCall::WriteBatch {
                        start,
                        count: batch,
                    }
                } else {
                    IoHeavyCall::ReadBatch {
                        start,
                        count: batch,
                    }
                }
                .to_encoded_bytes()
            }
            Workload::KvStore { keyspace } => {
                let key = format!("key-{}", self.rng.gen_range(0..keyspace)).into_bytes();
                let roll: f64 = self.rng.gen();
                if roll < 0.5 {
                    let value = format!("value-{}", self.rng.gen::<u32>()).into_bytes();
                    KvCall::Put { key, value }
                } else if roll < 0.9 {
                    KvCall::Get { key }
                } else {
                    KvCall::Delete { key }
                }
                .to_encoded_bytes()
            }
            Workload::SmallBank { customers } => {
                let a = self.rng.gen_range(0..customers);
                let b = self.rng.gen_range(0..customers);
                let amount = self.rng.gen_range(1..100u64);
                match self.rng.gen_range(0..6u8) {
                    0 => BankCall::TransactSavings {
                        customer: a,
                        amount,
                    },
                    1 => BankCall::DepositChecking {
                        customer: a,
                        amount,
                    },
                    2 => BankCall::SendPayment {
                        from: a,
                        to: b,
                        amount,
                    },
                    3 => BankCall::WriteCheck {
                        customer: a,
                        amount,
                    },
                    4 => BankCall::Amalgamate { from: a, to: b },
                    _ => BankCall::GetBalance { customer: a },
                }
                .to_encoded_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockbench_registry;
    use dcert_vm::{Executor, InMemoryState};
    use std::sync::Arc;

    #[test]
    fn a_zero_sender_generator_signs_with_one_sender() {
        let tx = WorkloadGen::new(Workload::DoNothing, 0, 1).next_tx();
        assert!(tx.verify().is_ok());
        let one = WorkloadGen::new(Workload::DoNothing, 1, 1).next_tx();
        assert_eq!(tx, one);
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = WorkloadGen::new(Workload::KvStore { keyspace: 100 }, 8, 42);
        let mut b = WorkloadGen::new(Workload::KvStore { keyspace: 100 }, 8, 42);
        assert_eq!(a.next_block(20), b.next_block(20));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WorkloadGen::new(Workload::KvStore { keyspace: 100 }, 8, 1);
        let mut b = WorkloadGen::new(Workload::KvStore { keyspace: 100 }, 8, 2);
        assert_ne!(a.next_block(20), b.next_block(20));
    }

    #[test]
    fn every_workload_produces_valid_executable_txs() {
        let executor = Executor::new(Arc::new(blockbench_registry()));
        for workload in [
            Workload::DoNothing,
            Workload::CpuHeavy { size: 64 },
            Workload::IoHeavy { batch: 4 },
            Workload::KvStore { keyspace: 16 },
            Workload::SmallBank { customers: 16 },
        ] {
            let mut gen = WorkloadGen::new(workload, 4, 7);
            let txs = gen.next_block(16);
            for tx in &txs {
                tx.verify()
                    .unwrap_or_else(|e| panic!("{}: invalid generated tx: {e}", workload.label()));
            }
            let calls: Vec<_> = txs.iter().map(|t| t.call.clone()).collect();
            let exec = executor.execute_block(&InMemoryState::new(), &calls);
            assert_eq!(
                exec.committed(),
                16,
                "{}: all generated txs must commit",
                workload.label()
            );
        }
    }

    #[test]
    fn nonces_are_unique() {
        let mut gen = WorkloadGen::new(Workload::DoNothing, 2, 3);
        let txs = gen.next_block(50);
        let mut nonces: Vec<u64> = txs.iter().map(|t| t.nonce).collect();
        nonces.sort_unstable();
        nonces.dedup();
        assert_eq!(nonces.len(), 50);
    }

    #[test]
    fn labels_and_contracts_are_consistent() {
        for w in Workload::paper_defaults() {
            assert!(!w.label().is_empty());
            assert!(!w.contract().is_empty());
        }
    }
}
