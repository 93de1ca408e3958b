//! The simulated EPC charges for what a trusted program keeps, not for
//! everything that has ever crossed (DESIGN.md §1, the paper's §4.1).
//!
//! Residency is the bytes the program retains between ECalls plus the
//! one crossing in flight. DCert's stateless program keeps its key, its
//! watermark and a bounded memo, so any number of requests that each fit
//! the EPC page nothing; a naive request that carries more state than the
//! EPC holds pages on its own crossing.

use dcert::core::{BatchLink, CertProgram, EcallRequest, EcallResponse};
use dcert::primitives::codec::{Decode, Encode};
use dcert::primitives::hash::{hash_bytes, Hash};
use dcert::primitives::keys::Signature;
use dcert::sgx::enclave::Sealable;
use dcert::sgx::{CostModel, Enclave, TrustedApp};
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::naive::{NaiveCertProgram, NaiveRequest};
use dcert::world::{kv_key, Setup, World, PLATFORM_SEED};

/// The stateless ablation's reduced EPC budget.
const EPC_BUDGET: usize = 4 * 1024 * 1024;

/// Stateless ECalls sent to one enclave.
const ECALLS: usize = 1_000;

/// Transactions in the block every ECall carries: enough that the
/// [`ECALLS`] requests together cross several EPCs' worth of bytes.
const TXS: usize = 48;

/// The ablation's budget with every time charge at zero: the paging
/// accounting is what is under test, not the clock.
fn cost() -> CostModel {
    CostModel {
        epc_budget_bytes: EPC_BUDGET,
        ..CostModel::zero()
    }
}

#[test]
fn a_thousand_stateless_ecalls_page_nothing_and_an_over_budget_naive_request_pages() {
    const KEYS: u64 = 256;
    let World {
        genesis,
        genesis_state: state,
        executor,
        engine,
        ias,
        miner,
        ..
    } = World::new(Setup {
        genesis_entries: (0..KEYS).map(|i| (kv_key(i), vec![0xAB; 64])).collect(),
        ..Setup::poa(cost())
    });
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: KEYS }, 64, 42);
    let block = miner.propose(gen.next_block(TXS), 1).expect("proposes");
    let calls: Vec<_> = block.txs.iter().map(|t| t.call.clone()).collect();
    let execution = executor.execute_block(&state, &calls);
    let request = EcallRequest::Certify {
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

    let program = || {
        CertProgram::new(
            genesis.hash(),
            ias.public_key(),
            executor.clone(),
            engine.clone(),
            Vec::new(),
        )
    };

    // What the program retains: its sealable state plus its memo (here
    // the one certificate it signed at its watermark).
    let mut bare = program();
    assert_eq!(bare.retained_bytes(), 0);
    bare.call(&EcallRequest::Init.to_encoded_bytes());
    assert_eq!(bare.retained_bytes(), bare.export_state().len() as u64);
    bare.call(&request);
    let retained = bare.export_state().len() + Hash::LEN + Signature::LEN;
    assert_eq!(bare.retained_bytes(), retained as u64);

    // One enclave, a thousand requests: only the first signs and the rest
    // are refused at the watermark, but every one crosses both ways.
    let enclave = Enclave::launch_with_platform_seed(program(), cost(), PLATFORM_SEED);
    enclave.ecall(&EcallRequest::Init.to_encoded_bytes());
    for call in 0..ECALLS {
        let response = EcallResponse::decode_all(&enclave.ecall(&request)).expect("decodes");
        assert_eq!(
            matches!(response, EcallResponse::Signatures(_)),
            call == 0,
            "call {call}: {response:?}"
        );
    }
    let stats = enclave.stats();
    assert_eq!(stats.ecalls, ECALLS as u64 + 1);
    assert!(
        stats.bytes_in + stats.bytes_out > 3 * EPC_BUDGET as u64,
        "together the calls cross several EPCs' worth: {stats:?}"
    );
    assert_eq!(stats.paged_bytes, 0, "a stateless enclave paged");
    assert_eq!(
        enclave.epc_resident_bytes(),
        (retained + request.len()) as u64,
        "peak residency is the retained bytes plus one request"
    );

    // One naive request carrying more state than the EPC holds pages on
    // its inbound crossing alone, whatever the program answers.
    let naive_request = NaiveRequest {
        prev_header: genesis.header.clone(),
        prev_cert: None,
        block,
        state: (0..60_000u64)
            .map(|i| (hash_bytes(i.to_be_bytes()), vec![0xAB; 64]))
            .collect(),
    }
    .to_encoded_bytes();
    assert!(naive_request.len() > EPC_BUDGET);
    let naive = Enclave::launch_with_platform_seed(
        NaiveCertProgram::new(genesis.hash(), ias.public_key(), executor, engine),
        cost(),
        PLATFORM_SEED,
    );
    naive.ecall(&naive_request);
    assert_eq!(
        naive.stats().paged_bytes,
        (naive_request.len() - EPC_BUDGET) as u64
    );
}
