//! Format-aware mutators for sparse-Merkle-tree proof frames: the first
//! family of the verifier mutation battery, lies about *where a subtree
//! belongs*.
//!
//! They work on the wire and know the frame's layout but no hash rule — the
//! caller hands in its tree's two ([`Rules`]) — so this crate still depends
//! on nothing, the forgeries are not built by the prover they are meant to
//! get past, and every crate that verifies such a frame behind a format of
//! its own (a query proof, an index update) tests against the same family.
//!
//! The frame: a `u32` count and the covered keys; a `u32` count and their
//! pre-state value hashes, each behind an `Option` tag byte; a `u32` count
//! and the evidence chunks — tag 0 and a `u16` run of empty subtrees, tag 1
//! and a leaf's key and value hash, tag 2 and a subtree's hash, tag 3 and a
//! branch header: the `u16` bit its keys part at, the bits they share above
//! it, its left and right side. Integers are big-endian. A lone key's
//! evidence is one subtree per level: its left siblings from the top down,
//! then its right siblings from the bottom up.

use std::ops::Range;

/// A key or a hash.
pub type Digest = [u8; 32];

/// The hash rules of the tree whose frames are forged.
#[derive(Clone, Copy)]
pub struct Rules {
    /// A leaf's hash from its key and value hash.
    pub leaf: fn(&Digest, &Digest) -> Digest,
    /// A branch's hash from the bit its keys part at, any key beneath it,
    /// and its left and right side.
    pub branch: fn(u16, &Digest, &Digest, &Digest) -> Digest,
}

/// What a verifier that holds evidence to its position answers a lie with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Refusal {
    /// A disclosed leaf that does not belong where it is shown.
    LeafMisplaced,
    /// A disclosed branch header that does not belong where it is shown.
    BranchMisplaced,
    /// A bare hash beside an empty side: nothing says where it belongs.
    SubtreeUnplaced,
    /// A header that is not the one encoding of a branch.
    HeaderMalformed,
    /// Evidence that is where it belongs and commits to another tree.
    RootMismatch,
}

/// One untouched subtree, as a frame shows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Empty,
    Leaf(Digest, Digest),
    Node(Digest),
    Branch(u16, Digest, Digest, Digest),
}

impl Item {
    fn hash(&self, rules: Rules) -> Digest {
        match self {
            Item::Empty => [0; 32],
            Item::Leaf(key, value_hash) => (rules.leaf)(key, value_hash),
            Item::Node(hash) => *hash,
            Item::Branch(bit, shared, left, right) => (rules.branch)(*bit, shared, left, right),
        }
    }

    /// Its chunk; an empty subtree is a run of one.
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Item::Empty => out.extend([0, 0, 1]),
            Item::Leaf(key, value_hash) => out.extend([&[1][..], key, value_hash].concat()),
            Item::Node(hash) => out.extend([&[2][..], hash].concat()),
            Item::Branch(bit, shared, left, right) => {
                out.extend([&[3][..], &bit.to_be_bytes(), shared, left, right].concat());
            }
        }
    }
}

fn digest(frame: &[u8], at: usize) -> Digest {
    frame[at..at + 32].try_into().expect("32 bytes")
}

fn count(frame: &[u8], at: usize) -> usize {
    u32::from_be_bytes(frame[at..at + 4].try_into().expect("4 bytes")) as usize
}

fn bit_of(key: &Digest, bit: usize) -> bool {
    key[bit / 8] & (0x80 >> (bit % 8)) != 0
}

/// Where each evidence chunk of `frame` lies.
pub fn chunks(frame: &[u8]) -> Vec<Range<usize>> {
    let mut at = 4 + 32 * count(frame, 0);
    let pre = count(frame, at);
    at += 4;
    for _ in 0..pre {
        at += if frame[at] == 0 { 1 } else { 33 };
    }
    let mut chunks = Vec::with_capacity(count(frame, at));
    at += 4;
    while chunks.len() < chunks.capacity() {
        let len = [3, 65, 33, 99][usize::from(frame[at])];
        chunks.push(at..at + len);
        at += len;
    }
    chunks
}

/// The subtrees the chunk at `at` shows: a run of empty ones, or one.
fn items_at(frame: &[u8], at: usize) -> Vec<Item> {
    let short = || u16::from_be_bytes([frame[at + 1], frame[at + 2]]);
    match frame[at] {
        // No path is longer than the key space, whatever a run claims.
        0 => vec![Item::Empty; usize::from(short()).min(256)],
        1 => vec![Item::Leaf(digest(frame, at + 1), digest(frame, at + 33))],
        2 => vec![Item::Node(digest(frame, at + 1))],
        _ => {
            let [shared, left, right] = [3, 35, 67].map(|field| digest(frame, at + field));
            vec![Item::Branch(short(), shared, left, right)]
        }
    }
}

/// `frame` with its evidence chunks replaced by `evidence`, one run per
/// empty subtree: a decoder merges them.
fn reframe(frame: &[u8], evidence: &[Item]) -> Vec<u8> {
    let start = chunks(frame)
        .first()
        .map_or(frame.len(), |chunk| chunk.start);
    let mut out = frame[..start - 4].to_vec();
    out.extend((evidence.len() as u32).to_be_bytes());
    evidence.iter().for_each(|item| item.put(&mut out));
    out
}

/// Every proof of absence a prover can forge for the *present* key that
/// `frame`, an honest proof of it alone, covers — with the refusal each
/// meets, and the root all of them commit to when nothing they show is held
/// to its position (the honest proof's own).
///
/// Each is the honest path down to some depth, where the whole subtree
/// holding the key is handed over on the side the key does not take and the
/// key's side is shown empty to the bottom: one level high (where that
/// subtree's own sides part), one level low (right below where it hangs) and
/// at the bottom; as a bare hash, and disclosed as the leaf or the branch it
/// is.
pub fn forged_absences(frame: &[u8], rules: Rules) -> (Vec<(Vec<u8>, Refusal)>, Digest) {
    assert_eq!(frame[..4], [0, 0, 0, 1], "one covered key");
    assert_eq!(frame[36..41], [0, 0, 0, 1, 1], "and it is present");
    let (key, value_hash) = (digest(frame, 4), digest(frame, 41));
    let order: Vec<Item> = chunks(frame)
        .into_iter()
        .flat_map(|chunk| items_at(frame, chunk.start))
        .collect();
    assert_eq!(order.len(), 256, "one sibling per level");
    // Where the sibling at each depth sits in that order.
    let mut ones = 0;
    let slot: Vec<usize> = (0..256)
        .map(|t| {
            let left = bit_of(&key, t);
            ones += usize::from(left);
            if left {
                ones - 1
            } else {
                255 - (t - ones)
            }
        })
        .collect();
    let path: Vec<Item> = slot.iter().map(|at| order[*at]).collect();

    // `holding[t]`: the subtree holding the key as it hangs at depth `t`,
    // the way an honest prover discloses a subtree beside an empty side.
    let mut holding = vec![Item::Leaf(key, value_hash); 257];
    for t in (0..256).rev() {
        holding[t] = holding[t + 1];
        if path[t] != Item::Empty {
            let (mine, other) = (holding[t + 1].hash(rules), path[t].hash(rules));
            let (left, right) = if bit_of(&key, t) {
                (other, mine)
            } else {
                (mine, other)
            };
            let mut shared = key;
            shared[t / 8] &= !(0xff >> (t % 8));
            shared[t / 8 + 1..].fill(0);
            holding[t] = Item::Branch(t as u16, shared, left, right);
        }
    }

    let mut lies = Vec::new();
    let splits = |t: usize| path[t] != Item::Empty;
    for t in (0..256).filter(|t| *t == 0 || *t == 255 || splits(*t) || splits(*t - 1)) {
        let disclosed = match holding[t] {
            Item::Branch(..) => Refusal::BranchMisplaced,
            _ => Refusal::LeafMisplaced,
        };
        let bare = Item::Node(holding[t].hash(rules));
        for (hidden, refusal) in [(bare, Refusal::SubtreeUnplaced), (holding[t], disclosed)] {
            let mut order = vec![Item::Empty; 256];
            (0..t).for_each(|above| order[slot[above]] = path[above]);
            order[slot[t]] = hidden;
            let mut lie = reframe(frame, &order);
            lie[40] = 0; // `pre = [None]`
            lie.drain(41..73);
            lies.push((lie, refusal));
        }
    }
    (lies, holding[0].hash(rules))
}

/// Every one-field lie about each branch header `frame` carries, with the
/// refusal it meets. An honest proof carries a header only beside an empty
/// side, so its bit lies below the depth it is shown at: never bit 0.
pub fn header_lies(frame: &[u8], rules: Rules) -> Vec<(Vec<u8>, Refusal)> {
    let mut lies = Vec::new();
    for chunk in chunks(frame) {
        let at = chunk.start;
        let [Item::Branch(bit, shared, left, right)] = items_at(frame, at)[..] else {
            continue;
        };
        let mut lie = |item: Item, refusal: Refusal| {
            let mut chunk_bytes = Vec::new();
            item.put(&mut chunk_bytes);
            lies.push((
                [&frame[..at], &chunk_bytes, &frame[chunk.end..]].concat(),
                refusal,
            ));
        };
        let sharing = |flip: u16| {
            let mut shared = shared;
            shared[usize::from(flip / 8)] ^= 0x80 >> (flip % 8);
            shared
        };
        lie(
            Item::Node((rules.branch)(bit, &shared, &left, &right)),
            Refusal::SubtreeUnplaced,
        );
        // A wrong bit: too high for where the walk stands, one too low —
        // inside the key space or not — and far outside it.
        lie(
            Item::Branch(0, shared, left, right),
            Refusal::BranchMisplaced,
        );
        let one_low = match bit {
            255 => Refusal::HeaderMalformed,
            _ => Refusal::RootMismatch,
        };
        lie(Item::Branch(bit + 1, shared, left, right), one_low);
        lie(
            Item::Branch(u16::MAX, shared, left, right),
            Refusal::HeaderMalformed,
        );
        // A wrong prefix: parting from the covered keys elsewhere, or with
        // bits set at and below where its own keys part.
        lie(
            Item::Branch(bit, sharing(0), left, right),
            Refusal::BranchMisplaced,
        );
        lie(
            Item::Branch(bit, sharing(bit), left, right),
            Refusal::HeaderMalformed,
        );
        lie(
            Item::Branch(bit, sharing(255), left, right),
            Refusal::HeaderMalformed,
        );
        lie(
            Item::Branch(bit, shared, right, left),
            Refusal::RootMismatch,
        );
    }
    lies
}
