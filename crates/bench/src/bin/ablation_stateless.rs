//! Ablation: DCert's **stateless** enclave (Algorithm 1/2) vs. the
//! **naive** full-state-in-enclave design the paper dismisses in
//! Section 4.1.
//!
//! The naive ECall marshals the complete pre-block state, so its cost
//! grows linearly with state size and falls off a cliff once the request
//! exceeds the EPC budget (paging). The stateless ECall marshals only the
//! read/write sets and their Merkle proofs, so its cost is (near-)constant
//! in state size. The EPC budget is reduced to 4 MB here so the paging
//! cliff is visible at laptop-scale state sizes — at the real 93 MB
//! budget the same cliff sits at roughly a million accounts, which is
//! exactly the paper's Ethereum-scale argument (920 GB of state).
//!
//! Run with: `cargo run --release -p dcert-bench --bin ablation_stateless`

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use dcert_bench::naive::{NaiveCertProgram, NaiveRequest, Response};
use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_bytes, fmt_duration};
use dcert_bench::shape;
use dcert_chain::{FullNode, GenesisBuilder, ProofOfAuthority};
use dcert_core::{BlockInput, CertProgram, EcallRequest, EcallResponse};
use dcert_obs::Registry;
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::Address;
use dcert_primitives::keys::Keypair;
use dcert_sgx::{AttestationService, CostModel, Enclave};
use dcert_vm::Executor;
use dcert_workloads::{blockbench_registry, Workload};

/// Reduced EPC budget making the paging cliff visible at bench scale.
const EPC_BUDGET: usize = 4 * 1024 * 1024;

fn cost_model() -> CostModel {
    CostModel {
        epc_budget_bytes: EPC_BUDGET,
        ..CostModel::calibrated()
    }
}

fn main() {
    banner(
        "Ablation: stateless enclave (DCert) vs naive full-state-in-enclave",
        "naive cost linear in state size with an EPC paging cliff; stateless near-constant",
    );
    println!(
        "{:>9} | {:>10} {:>12} | {:>10} {:>12} | {:>7}",
        "state", "SL request", "SL ecall", "naive req", "naive ecall", "ratio"
    );
    println!("{}", "-".repeat(72));

    let obs = Registry::new();
    let sizes = [1_000u64, 5_000, 20_000, 60_000].map(scaled);
    let mut naive_bytes = Vec::new();
    for entries in sizes {
        // Genesis pre-populated with `entries` KV records.
        let mut genesis_builder = GenesisBuilder::new();
        for i in 0..entries {
            genesis_builder = genesis_builder.allocate(dcert_bench::kv_key(i), vec![0xAB; 64]);
        }
        let (genesis, state) = genesis_builder.build();

        let sealer = Keypair::from_seed([0x5e; 32]);
        let engine = Arc::new(ProofOfAuthority::new_sealer(vec![sealer.public()], sealer));
        let executor = Executor::new(Arc::new(blockbench_registry()));
        let ias = AttestationService::with_seed([0xA5; 32]);
        let miner = FullNode::new(
            &genesis,
            state.clone(),
            executor.clone(),
            engine.clone(),
            Address::from_seed(1),
        );

        // One block of KV traffic over the existing keyspace.
        let mut gen =
            dcert_workloads::WorkloadGen::new(Workload::KvStore { keyspace: entries }, 64, 42);
        let block = miner.propose(gen.next_block(32), 1).expect("proposes");

        // Stateless request (Algorithm 1 pre-processing).
        let execution = executor.execute_block(&state, &{
            block.txs.iter().map(|t| t.call.clone()).collect::<Vec<_>>()
        });
        let stateless_req = EcallRequest::SigGen(BlockInput {
            prev_header: genesis.header.clone(),
            prev_cert: None,
            block: block.clone(),
            reads: execution
                .reads
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            state_proof: state.prove(&execution.touched_keys()),
        })
        .to_encoded_bytes();

        // Naive request (full state).
        let naive_req = NaiveRequest {
            prev_header: genesis.header.clone(),
            prev_cert: None,
            block: block.clone(),
            state: state.dump_entries(),
        }
        .to_encoded_bytes();

        // Stateless enclave.
        let stateless_enclave = Enclave::launch(
            CertProgram::new(
                genesis.hash(),
                ias.public_key(),
                executor.clone(),
                engine.clone(),
                Vec::new(),
            ),
            cost_model(),
        );
        stateless_enclave.attach_obs(&obs);
        stateless_enclave.ecall(&EcallRequest::Init.to_encoded_bytes());
        let started = Instant::now();
        let resp = stateless_enclave.ecall(&stateless_req);
        let stateless_time = started.elapsed();
        assert!(matches!(
            EcallResponse::decode_all(&resp).unwrap(),
            EcallResponse::Signature(_)
        ));

        // Naive enclave.
        let naive_enclave = Enclave::launch(
            NaiveCertProgram::new(
                genesis.hash(),
                ias.public_key(),
                executor.clone(),
                engine.clone(),
            ),
            cost_model(),
        );
        naive_enclave.attach_obs(&obs);
        naive_enclave.ecall(&[]);
        let started = Instant::now();
        let resp = naive_enclave.ecall(&naive_req);
        let naive_time = started.elapsed();
        assert!(matches!(
            Response::decode_all(&resp).unwrap(),
            Response::Signature(_)
        ));

        let ratio = naive_time.as_secs_f64() / stateless_time.as_secs_f64();
        let paged = naive_enclave.stats().paged_bytes > 0;
        println!(
            "{:>9} | {:>10} {:>12} | {:>10} {:>12} | {:>6.1}x{}",
            entries,
            fmt_bytes(stateless_req.len()),
            fmt_duration(stateless_time),
            fmt_bytes(naive_req.len()),
            fmt_duration(naive_time),
            ratio,
            if paged { "  (paged!)" } else { "" },
        );
        // Section 4.1's argument: the stateless request never outgrows the
        // EPC, the naive one is the whole state and pages once it does.
        assert_eq!(stateless_enclave.stats().paged_bytes, 0, "stateless paged");
        assert!(
            paged || naive_req.len() <= EPC_BUDGET,
            "{entries} entries: a naive request over the EPC budget must page"
        );
        naive_bytes.push(naive_req.len());
    }
    shape::grows_with("naive request bytes", &sizes, &naive_bytes);
    println!();
    println!(
        "(EPC budget reduced to {} for a visible paging cliff)",
        fmt_bytes(EPC_BUDGET)
    );
    shape::recorded(&obs, &["enclave.ecalls", "enclave.bytes_in"], &[]);
}
