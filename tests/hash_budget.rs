//! The hash budget of one verified history query: every SHA-256 block a
//! client's `verify_history` compresses, split by what it checks
//! (DESIGN.md §9).
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
//! One `#[test]` in its own binary: the stand-in `sha2`'s counter is
//! process-wide, so nothing else may hash while it reads it.

use dcert::merkle::{MbOpProof, SmtProof};
use dcert::primitives::codec::{decode_seq, Decode, Reader};
use dcert::primitives::hash::{hash_bytes, hash_encoded, Hash};
use dcert::query::history::{verify_history, Version};
use dcert::query::sp::IndexKind;
use dcert::serve::encode_history_payload;
use dcert::vm::StateKey;
use dcert::workloads::Workload;
use dcert::world::{Scheme, World};

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
