//! Micro-timings of the stand-in primitives and of the transaction
//! generator, taken in the traced run. They move `setup_s` and nothing
//! else; their purpose is calibration — with them, a layer's share can be
//! rescaled to the real crates' speed before those are vendored.

use dcert_primitives::hash::hash_bytes;
use dcert_primitives::keys::Keypair;
use dcert_sgx::cost::timed;
use dcert_workloads::{Workload, WorkloadGen};

use crate::blocks::{self, Flavour};
use crate::metrics::{put, Readings};
use crate::world::SENDER_ACCOUNTS;

const HASHED_BYTES: usize = 4 << 20;
const SIGNATURES: u64 = 200;
const GENERATED_BLOCKS: u64 = 16;

/// The generator each workload's set-up draws its transactions from.
fn generator_of(workload: &str) -> (Workload, usize) {
    match workload {
        "blocks_kv" => (Flavour::Kv.workload(), blocks::TXS_PER_BLOCK),
        "blocks_io" => (Flavour::Io.workload(), blocks::TXS_PER_BLOCK),
        "fleet_sb" => (crate::fleet::WORKLOAD, crate::fleet::TXS_PER_BLOCK),
        _ => (crate::indexed::WORKLOAD, crate::indexed::TXS_PER_BLOCK),
    }
}

pub fn primitives(workload: &str, out: &mut Readings) {
    let data = vec![0x5au8; HASHED_BYTES];
    let (digest, took) = timed(|| hash_bytes(&data));
    std::hint::black_box(digest);
    let blocks = (HASHED_BYTES / 64) as u64;
    put(
        out,
        "primitives.sha256_block_ns",
        took.as_nanos() as f64 / blocks as f64,
        blocks,
    );

    let key = Keypair::from_seed([0x42; 32]);
    let public = key.public();
    let messages: Vec<[u8; 32]> = (0..SIGNATURES).map(|i| [i as u8; 32]).collect();
    let (signatures, took) = timed(|| messages.iter().map(|m| key.sign(m)).collect::<Vec<_>>());
    put(
        out,
        "primitives.sig_sign_us",
        took.as_secs_f64() * 1e6 / SIGNATURES as f64,
        SIGNATURES,
    );
    let (accepted, took) = timed(|| {
        messages
            .iter()
            .zip(&signatures)
            .filter(|(m, s)| public.verify(*m, s).is_ok())
            .count()
    });
    assert_eq!(accepted as u64, SIGNATURES, "calibration signatures verify");
    put(
        out,
        "primitives.sig_verify_us",
        took.as_secs_f64() * 1e6 / SIGNATURES as f64,
        SIGNATURES,
    );

    let (kind, txs_per_block) = generator_of(workload);
    let mut generator = WorkloadGen::new(kind, SENDER_ACCOUNTS, 1);
    let (generated, took) = timed(|| {
        (0..GENERATED_BLOCKS)
            .map(|_| generator.next_block(txs_per_block).len())
            .sum::<usize>()
    });
    std::hint::black_box(generated);
    put(
        out,
        "workloads.gen_us",
        took.as_secs_f64() * 1e6 / GENERATED_BLOCKS as f64,
        GENERATED_BLOCKS,
    );
}
