//! Hash budgets, counted in SHA-256 blocks: what a client's
//! `verify_history` compresses for one query, split by what it checks
//! (DESIGN.md §9), and the floor of the SMT walk the enclave runs on every
//! block's state proof.
//!
//! The history query's parts:
//!
//! - **upper**: the upper tree's walk, from the key's leaf to the
//!   certified index digest;
//! - **binding**: `H(lower root)`, the value the upper tree binds;
//! - **window**: the window program's node hashes, up to the lower root;
//! - **rows**: one digest per claimed version, over its canonical
//!   encoding.
//!
//! Each part is recomputed on its own, with the proof's parts read off
//! the wire in the order its table declares them, and the four must add
//! up to exactly what `verify_history` compresses as a whole: a check
//! repeated, or a row re-encoded through a second preimage, shows up as a
//! mismatch.
//!
//! Its own binary, and each `#[test]` holds [`COUNTING`] throughout: the
//! stand-in `sha2`'s counter is process-wide, so nothing else may hash
//! while one reads it.

use std::sync::{Mutex, PoisonError};

use dcert::merkle::{MbOpProof, SmtProof, SparseMerkleTree};
use dcert::primitives::codec::{decode_seq, Decode, Encode, Reader};
use dcert::primitives::hash::{hash_bytes, hash_encoded, Hash};
use dcert::query::history::{verify_history, Version};
use dcert::query::sp::IndexKind;
use dcert::serve::encode_history_payload;
use dcert::vm::StateKey;
use dcert::workloads::Workload;
use dcert::world::{Scheme, World};
use dcert_testkit::smt_frames;

/// Certified SmallBank blocks behind the SP (two customers, so their
/// balances are written in most blocks).
const BLOCKS: u64 = 40;
/// The window asked: it opens part of the key's version tree and prunes
/// the rest.
const WINDOW: (u64, u64) = (5, 34);
/// Versions of customer 0's checking balance inside [`WINDOW`].
const ROWS: usize = 26;

/// SHA-256 blocks per part of one history verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Budget {
    upper: u64,
    binding: u64,
    window: u64,
    rows: u64,
}

impl Budget {
    fn total(self) -> u64 {
        self.upper + self.binding + self.window + self.rows
    }
}

/// The query's budget. The upper walk climbs an SMT of four keys (two
/// customers' two balances); a 32-byte lower root is one block; the
/// window program hashes the nodes it opens (a full leaf of 16
/// timestamped digests alone is 11 blocks); each claimed version (a tag,
/// a length and an 8-byte balance) is one.
const BUDGET: Budget = Budget {
    upper: 4,
    binding: 1,
    window: 28,
    rows: ROWS as u64,
};

/// Held by each test while it counts.
static COUNTING: Mutex<()> = Mutex::new(());

/// The SHA-256 blocks `f` compresses, and what it returns.
fn blocks<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = sha2::work::sha256_blocks();
    let out = f();
    (sha2::work::sha256_blocks() - before, out)
}

/// Customer `i`'s checking balance.
fn checking(customer: u64) -> StateKey {
    let mut field = b"chk-".to_vec();
    field.extend_from_slice(&customer.to_be_bytes());
    StateKey::new("smallbank", &field)
}

#[test]
fn one_verified_history_query_costs_its_hash_budget() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    sha2::work::set_enabled(true);
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let workload = Workload::SmallBank { customers: 2 };
    world.run(workload, BLOCKS, 4, 1, Scheme::Augmented);
    let (key, (t1, t2)) = (checking(0), WINDOW);
    let digest = world.sp.digest("history").expect("history index");
    let (rows, proof) = world
        .sp
        .serve_history("history", &key, t1, t2)
        .expect("history index");
    assert_eq!(rows.len(), ROWS, "versions in the window");

    // What the client receives, taken apart: the rows, then the proof's
    // upper proof, lower root and window program.
    let payload = encode_history_payload(&rows, &proof);
    let mut r = Reader::new(&payload);
    let claimed: Vec<(u64, Version)> = decode_seq(&mut r).expect("rows");
    let upper = SmtProof::decode(&mut r).expect("upper proof");
    let lower_root = Option::<Hash>::decode(&mut r)
        .expect("root")
        .expect("tracked");
    let lower = Option::<MbOpProof>::decode(&mut r)
        .expect("window program")
        .expect("tracked");
    assert_eq!(r.remaining(), 0, "nothing else on the wire");

    let (whole, verdict) = blocks(|| verify_history(&digest, &key, t1, t2, &claimed, &proof));
    assert_eq!(verdict, Ok(()));

    let (upper, proven) = blocks(|| {
        let verified = upper.verify(&digest).expect("upper proof verifies");
        verified.pre_value_hash(key.as_hash()).expect("key proven")
    });
    let (binding, bound) = blocks(|| hash_bytes(lower_root.as_bytes()));
    assert_eq!(proven, Some(bound), "the upper tree binds the lower root");
    let (rows, digests) = blocks(|| {
        let digests = claimed
            .iter()
            .map(|(ts, version)| (*ts, hash_encoded(version)));
        digests.collect::<Vec<_>>()
    });
    let (window, verdict) = blocks(|| lower.verify(&lower_root, t1, t2, &digests));
    assert_eq!(verdict, Ok(()));

    let parts = Budget {
        upper,
        binding,
        window,
        rows,
    };
    assert_eq!(parts, BUDGET);
    assert_eq!(parts.total(), whole, "the parts are the whole");
}

/// A leaf hash (65 bytes) or a branch hash (99 bytes): two blocks each.
const BLOCKS_PER_NODE: u64 = 2;

/// The SHA-256 of the `smt/blocks_io` golden proof (`golden_vectors`).
const BLOCKS_IO_PROOF: &str = "6ab31b3b847dbcbe4d4c9e96ec015c1133b6c38cce09bf6762647e71c29d3cf6";

/// The tree and the proof behind the `smt/blocks_io` golden row, built as
/// `golden_vectors::smt_computed` builds them: 4 128 records, and 32
/// ranges of 32 adjacent record numbers, two running past the last.
fn blocks_io_proof() -> (SparseMerkleTree, SmtProof) {
    let record = |i: u64| hash_bytes(format!("rec-{i}"));
    let mut records = SparseMerkleTree::new();
    for i in 0..4128u64 {
        records.insert(record(i), i.to_be_bytes().to_vec());
    }
    let mut touched = Vec::new();
    for range in 0..32u64 {
        let start = match range {
            30 => 4110,
            31 => 4127,
            _ => range * 2_654_435_761 % 4096,
        };
        touched.extend((start..start + 32).map(record));
    }
    let proof = records.prove(&touched);
    (records, proof)
}

/// The first bit at which `a` and `b` differ (256 if they are equal).
fn parting(a: &Hash, b: &Hash) -> usize {
    (0..256).find(|&i| a.bit(i) != b.bit(i)).unwrap_or(256)
}

/// The SMT walk hashes only what the proof cannot send as a hash: each
/// present covered key's leaf, each leaf or branch header disclosed beside
/// an empty side, and one branch per step at which two live sides meet.
/// Those steps are one fewer than the live subtrees the walk starts from —
/// the present keys' leaves and every evidence item but an empty run — so
/// the floor is read off the wire. No disclosed leaf sits beside a live
/// side: where one is shown, no record parts from it at the depth the
/// covered keys do.
#[test]
fn the_blocks_io_state_proof_costs_its_hash_floor() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    sha2::work::set_enabled(true);
    let (records, proof) = blocks_io_proof();
    let frame = proof.to_encoded_bytes();
    assert_eq!(hash_bytes(&frame).to_string(), BLOCKS_IO_PROOF);

    let mut r = Reader::new(&frame);
    let covered: Vec<Hash> = decode_seq(&mut r).expect("keys");
    let pre: Vec<Option<Hash>> = decode_seq(&mut r).expect("pre-state");
    let present = pre.iter().flatten().count() as u64;
    // Evidence items by tag: empty run, leaf, hash, header.
    let mut items = [0u64; 4];
    for chunk in smt_frames::chunks(&frame) {
        let tag = frame[chunk.start];
        items[usize::from(tag)] += 1;
        if tag == 1 {
            let leaf = Hash::decode(&mut Reader::new(&frame[chunk.start + 1..])).expect("key");
            let depth = covered.iter().map(|key| parting(&leaf, key)).max();
            let beside = records
                .iter()
                .find(|(key, _)| Some(parting(&leaf, key)) == depth);
            assert_eq!(beside, None, "leaf {leaf} beside a live side");
        }
    }
    let [_, leaves, hashes, headers] = items;
    let steps = (present + leaves + hashes + headers).saturating_sub(1);
    let floor = BLOCKS_PER_NODE * (present + leaves + headers + steps);

    let (spent, verdict) = blocks(|| proof.verify(&records.root()).map(drop));
    assert_eq!(verdict, Ok(()));
    assert_eq!(spent, floor, "{present} present keys, evidence {items:?}");
}
