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
//! Each repetition of a row boots fresh enclaves for one call each; the
//! ratio is of the two medians. After the table, the last row's last
//! stateless enclave lives on and is sent its request again and
//! again: EPC residency is what the program retains plus the crossing in
//! flight, so however many calls cross, a stateless enclave never pages.
//!
//! Run with: `cargo run --release -p dcert-bench --bin ablation_stateless`

#![forbid(unsafe_code)]

use dcert::world::naive::{NaiveCertProgram, NaiveRequest, Response};
use dcert::world::{kv_key, Setup, World, PLATFORM_SEED};
use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_bytes};
use dcert_bench::shape;
use dcert_bench::timing;
use dcert_core::{BatchLink, CertProgram, EcallRequest, EcallResponse};
use dcert_obs::Registry;
use dcert_primitives::codec::{Decode, Encode};
use dcert_sgx::cost::timed;
use dcert_sgx::{CostModel, Enclave};
use dcert_workloads::{Workload, WorkloadGen};

/// Reduced EPC budget making the paging cliff visible at bench scale.
const EPC_BUDGET: usize = 4 * 1024 * 1024;

/// Further ECalls sent to the long-lived stateless enclave (scaled).
const LONG_LIVED_ECALLS: u64 = 1_000;

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
        "{:>9} | {:>10} {:>31} | {:>10} {:>31} | {:>7}",
        "state", "SL request", "SL ecall", "naive req", "naive ecall", "ratio"
    );
    println!("{}", "-".repeat(110));

    let obs = Registry::new();
    let sizes = [1_000u64, 5_000, 20_000, 60_000].map(scaled);
    let mut naive_bytes = Vec::new();
    let mut last_stateless = None;
    for entries in sizes {
        // Genesis pre-populated with `entries` KV records.
        let World {
            genesis,
            genesis_state: state,
            executor,
            engine,
            ias,
            miner,
            ..
        } = World::new(Setup {
            genesis_entries: (0..entries).map(|i| (kv_key(i), vec![0xAB; 64])).collect(),
            ..Setup::poa(cost_model())
        });

        // One block of KV traffic over the existing keyspace.
        let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: entries }, 64, 42);
        let block = miner.propose(gen.next_block(32), 1).expect("proposes");

        // Stateless request (Algorithm 1 pre-processing).
        let execution = executor.execute_block(&state, &{
            block.txs.iter().map(|t| t.call.clone()).collect::<Vec<_>>()
        });
        let stateless_req = EcallRequest::Certify {
            prev_header: genesis.header.clone(),
            prev_cert: None,
            links: vec![BatchLink {
                block: block.clone(),
                state_proof: state.prove(&execution.touched_keys()),
                reads: execution.reads.into_iter().collect(),
            }],
            indexes: Vec::new(),
        }
        .to_encoded_bytes();

        // Naive request (full state).
        let naive_req = NaiveRequest {
            prev_header: genesis.header.clone(),
            prev_cert: None,
            block: block.clone(),
            state: state.dump_entries(),
        }
        .to_encoded_bytes();

        // Fresh enclaves per repetition: the watermark refuses height 1
        // twice. The last stateless one is kept for the long-lived run.
        let sides = timing::rounds("paged bytes", 2, |side| {
            if side == 0 {
                let enclave = Enclave::launch_with_platform_seed(
                    CertProgram::new(
                        genesis.hash(),
                        ias.public_key(),
                        executor.clone(),
                        engine.clone(),
                        Vec::new(),
                    ),
                    cost_model(),
                    PLATFORM_SEED,
                );
                enclave.attach_obs(&obs);
                enclave.ecall(&EcallRequest::Init.to_encoded_bytes());
                let (resp, time) = timed(|| enclave.ecall(&stateless_req));
                assert!(matches!(
                    EcallResponse::decode_all(&resp).unwrap(),
                    EcallResponse::Signatures(_)
                ));
                let paged = enclave.stats().paged_bytes;
                last_stateless = Some((enclave, stateless_req.clone()));
                ([time], paged)
            } else {
                let enclave = Enclave::launch_with_platform_seed(
                    NaiveCertProgram::new(
                        genesis.hash(),
                        ias.public_key(),
                        executor.clone(),
                        engine.clone(),
                    ),
                    cost_model(),
                    PLATFORM_SEED,
                );
                enclave.attach_obs(&obs);
                enclave.ecall(&[]);
                let (resp, time) = timed(|| enclave.ecall(&naive_req));
                assert!(matches!(
                    Response::decode_all(&resp).unwrap(),
                    Response::Signature(_)
                ));
                ([time], enclave.stats().paged_bytes)
            }
        });
        let ([stateless_time], stateless_paged) = sides[0];
        let ([naive_time], naive_paged) = sides[1];

        let ratio = naive_time.median.as_secs_f64() / stateless_time.median.as_secs_f64();
        let paged = naive_paged > 0;
        println!(
            "{:>9} | {:>10} {stateless_time:>31} | {:>10} {naive_time:>31} | {:>6.1}x{}",
            entries,
            fmt_bytes(stateless_req.len()),
            fmt_bytes(naive_req.len()),
            ratio,
            if paged { "  (paged!)" } else { "" },
        );
        // Section 4.1's argument: the stateless request never outgrows the
        // EPC, the naive one is the whole state and pages once it does.
        assert_eq!(stateless_paged, 0, "stateless paged");
        assert!(
            paged || naive_req.len() <= EPC_BUDGET,
            "{entries} entries: a naive request over the EPC budget must page"
        );
        naive_bytes.push(naive_req.len());
    }
    shape::grows_with("naive request bytes", &sizes, &naive_bytes);

    // One long-lived stateless enclave: the last row's, sent its request
    // again (only the first call signed; the rest are refused at the
    // watermark, and every one crosses both ways).
    let (enclave, request) = last_stateless.expect("at least one row");
    for _ in 0..scaled(LONG_LIVED_ECALLS) {
        enclave.ecall(&request);
    }
    let stats = enclave.stats();
    let crossed = usize::try_from(stats.bytes_in + stats.bytes_out).unwrap_or(usize::MAX);
    println!();
    println!(
        "long-lived stateless enclave: {} ECalls, {} crossed, {} paged, peak EPC residency {}",
        stats.ecalls,
        fmt_bytes(crossed),
        fmt_bytes(usize::try_from(stats.paged_bytes).unwrap_or(usize::MAX)),
        fmt_bytes(usize::try_from(enclave.epc_resident_bytes()).unwrap_or(usize::MAX)),
    );
    assert_eq!(stats.paged_bytes, 0, "long-lived stateless enclave paged");
    timing::note();
    println!(
        "(EPC budget reduced to {} for a visible paging cliff)",
        fmt_bytes(EPC_BUDGET)
    );
    shape::recorded(&obs, &["enclave.ecalls", "enclave.bytes_in"], &[]);
}
