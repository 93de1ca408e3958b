//! SHA-256 digests and domain-separated hashing helpers.
//!
//! All hashing in the workspace funnels through the zero-allocation
//! [`Hasher`] kernel: callers stream slices into the compression function
//! directly instead of concatenating them into intermediate `Vec`s.

use std::cell::RefCell;
use std::fmt;

use serde::{Deserialize, Serialize};
use sha2::{Digest, Sha256};

use crate::codec::{Decode, Encode, Reader};
use crate::error::CodecError;
use crate::hex;

/// A 32-byte SHA-256 digest.
///
/// `Hash` is the universal commitment type of the framework: block digests,
/// Merkle roots, enclave measurements, and certificate digests are all
/// `Hash`es.
///
/// ```
/// use dcert_primitives::hash::hash_bytes;
///
/// let h = hash_bytes(b"abc");
/// assert_eq!(
///     h.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Hash([u8; 32]);

impl Hash {
    /// The all-zero digest, used as the "absent" marker (e.g. empty subtree).
    pub const ZERO: Hash = Hash([0u8; 32]);

    /// Number of bytes in a digest.
    pub const LEN: usize = 32;

    /// Wraps raw digest bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash(bytes)
    }

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Returns the raw digest array.
    pub const fn to_array(self) -> [u8; 32] {
        self.0
    }

    /// Returns `true` if this is the all-zero "absent" digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Returns bit `i mod 256` (0 = most significant bit of byte 0).
    ///
    /// Used by the sparse Merkle tree to turn a hashed key into a path.
    /// The index is masked into range rather than asserted, so the SMT
    /// verifier path stays panic-free on adversarial input; callers always
    /// pass `i < 256` (a digest has exactly 256 bits), making the mask a
    /// no-op in practice.
    pub fn bit(&self, i: usize) -> bool {
        let i = i % 256;
        // After the mask, `i / 8 < 32`, so the lookup never misses.
        let byte = self.0.get(i / 8).copied().unwrap_or(0);
        (byte >> (7 - i % 8)) & 1 == 1
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::encode(self.0))
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let full = hex::encode(self.0);
        write!(f, "Hash({}..)", full.get(..12).unwrap_or(&full))
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash {
    fn from(bytes: [u8; 32]) -> Self {
        Hash(bytes)
    }
}

/// Hand-written, not a `wire!` table: a digest is 32 raw bytes, no prefix.
impl Encode for Hash {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn encoded_len(&self) -> usize {
        Hash::LEN
    }
}

impl Decode for Hash {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(bytes);
        Ok(Hash(out))
    }
}

/// Hand-written: the exact `encoded_len` of a run of fixed-width digests.
impl Encode for Vec<Hash> {
    fn encode(&self, out: &mut Vec<u8>) {
        crate::codec::encode_seq(self, out);
    }
    fn encoded_len(&self) -> usize {
        4 + Hash::LEN * self.len()
    }
}

impl Decode for Vec<Hash> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        crate::codec::decode_seq(r)
    }
}

/// A 20-byte account address, in the style of Ethereum addresses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Address([u8; 20]);

impl Address {
    /// Number of bytes in an address.
    pub const LEN: usize = 20;

    /// Wraps raw address bytes.
    pub const fn from_bytes(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }

    /// Derives an address deterministically from a 64-bit seed.
    ///
    /// Convenient for workload generators that need many distinct accounts.
    pub fn from_seed(seed: u64) -> Self {
        let h = hash_bytes(seed.to_be_bytes());
        let mut out = [0u8; 20];
        for (dst, src) in out.iter_mut().zip(h.as_bytes()) {
            *dst = *src;
        }
        Address(out)
    }

    /// Returns the address as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", hex::encode(self.0))
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let full = hex::encode(self.0);
        write!(f, "Address(0x{}..)", full.get(..8).unwrap_or(&full))
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 20]> for Address {
    fn from(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }
}

/// Hand-written, not a `wire!` table: an address is 20 raw bytes, no prefix.
impl Encode for Address {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn encoded_len(&self) -> usize {
        Address::LEN
    }
}

impl Decode for Address {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take(20)?;
        let mut out = [0u8; 20];
        out.copy_from_slice(bytes);
        Ok(Address(out))
    }
}

/// Zero-allocation streaming SHA-256 kernel with built-in domain separation.
///
/// Every digest in the workspace is produced by streaming slices into this
/// kernel — no intermediate concatenation buffers. The free functions below
/// ([`hash_bytes`], [`hash_pair`], [`hash_concat`], [`hash_domain`],
/// [`hash_encoded`]) are thin wrappers; hot loops that hash many values can
/// hold one `Hasher` and use [`Hasher::finalize_reset`] to avoid
/// re-initialising the state per digest.
///
/// ```
/// use dcert_primitives::hash::{hash_domain, Hasher};
///
/// let streamed = Hasher::with_domain(7).chain(b"payload").finalize();
/// assert_eq!(streamed, hash_domain(7, b"payload"));
/// ```
#[derive(Clone, Default)]
pub struct Hasher(Sha256);

impl Hasher {
    /// Creates a fresh kernel with no input absorbed.
    pub fn new() -> Self {
        Hasher(Sha256::new())
    }

    /// Creates a kernel with a one-byte domain-separation tag already
    /// absorbed: subsequent input is hashed as `H(domain || ...)`.
    pub fn with_domain(domain: u8) -> Self {
        let mut hasher = Sha256::new();
        hasher.update([domain]);
        Hasher(hasher)
    }

    /// Absorbs `bytes` into the state. Returns `&mut self` for loop-style
    /// chaining.
    pub fn update(&mut self, bytes: impl AsRef<[u8]>) -> &mut Self {
        self.0.update(bytes.as_ref());
        self
    }

    /// Absorbs `bytes` and returns the kernel by value, for
    /// expression-style chaining into [`Hasher::finalize`].
    #[must_use]
    pub fn chain(mut self, bytes: impl AsRef<[u8]>) -> Self {
        self.0.update(bytes.as_ref());
        self
    }

    /// Consumes the kernel and returns the digest.
    #[must_use]
    pub fn finalize(self) -> Hash {
        Hash(self.0.finalize())
    }

    /// Returns the digest and resets the state to empty, keeping the
    /// kernel alive for the next value — the amortised path for loops.
    pub fn finalize_reset(&mut self) -> Hash {
        Hash(self.0.finalize_reset())
    }
}

impl fmt::Debug for Hasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Hasher(..)")
    }
}

/// Hashes a byte string with SHA-256.
pub fn hash_bytes(bytes: impl AsRef<[u8]>) -> Hash {
    Hasher::new().chain(bytes).finalize()
}

/// Hashes the concatenation `left || right` — the Merkle inner-node rule
/// `h = H(h_l || h_r)` from the paper (Fig. 1).
pub fn hash_pair(left: &Hash, right: &Hash) -> Hash {
    Hasher::new().chain(left).chain(right).finalize()
}

/// Hashes the concatenation of an arbitrary number of byte strings.
pub fn hash_concat<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Hash {
    let mut hasher = Hasher::new();
    for part in parts {
        hasher.update(part);
    }
    hasher.finalize()
}

thread_local! {
    /// Reusable preimage buffer for [`hash_built`] (and so
    /// [`hash_encoded`]): the canonical byte image is built once per
    /// thread and reused across calls, so steady-state structural hashing
    /// allocates nothing.
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Hashes the bytes `build` writes into the thread's reusable preimage
/// buffer: a preimage assembled from parts costs no allocation of its
/// own once the buffer has grown to it.
pub fn hash_built(build: impl FnOnce(&mut Vec<u8>)) -> Hash {
    ENCODE_SCRATCH.with(|cell| {
        // `take`/`replace` instead of `borrow_mut` so a re-entrant
        // `build` (one that itself hashes this way) simply sees a fresh
        // empty buffer instead of panicking.
        let mut buf = cell.take();
        buf.clear();
        build(&mut buf);
        let digest = hash_bytes(&buf);
        buf.clear();
        cell.replace(buf);
        digest
    })
}

/// Hashes a value through its canonical [`Encode`] representation.
///
/// All structural digests in the framework (`H(hdr)`, transaction ids,
/// state-leaf hashes, ...) are computed this way so that hashing is
/// deterministic across processes. The encode buffer is a thread-local
/// scratch vector ([`hash_built`]), so repeated calls do not allocate.
pub fn hash_encoded<T: Encode + ?Sized>(value: &T) -> Hash {
    hash_built(|buf| value.encode(buf))
}

/// Domain-separated hash: `H(domain_tag || payload)`.
///
/// Distinct Merkle structures use distinct domains so that, e.g., an SMT
/// leaf can never be confused with an MB-tree node.
pub fn hash_domain(domain: u8, payload: &[u8]) -> Hash {
    Hasher::with_domain(domain).chain(payload).finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_known_vector() {
        // NIST test vector for "abc".
        assert_eq!(
            hash_bytes(b"abc").to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn hash_pair_is_concatenation() {
        let a = hash_bytes(b"a");
        let b = hash_bytes(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        assert_eq!(hash_pair(&a, &b), hash_bytes(&concat));
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0b1000_0001;
        let h = Hash::from_bytes(bytes);
        assert!(h.bit(0));
        assert!(!h.bit(1));
        assert!(h.bit(7));
        assert!(!h.bit(8));
    }

    #[test]
    fn hex_round_trip() {
        let h = hash_bytes(b"round trip");
        assert_eq!(hex::decode(&h.to_string()).unwrap(), h.as_bytes());
    }

    #[test]
    fn domain_separation_changes_digest() {
        assert_ne!(hash_domain(0, b"x"), hash_domain(1, b"x"));
    }

    #[test]
    fn address_from_seed_is_deterministic_and_distinct() {
        assert_eq!(Address::from_seed(7), Address::from_seed(7));
        assert_ne!(Address::from_seed(7), Address::from_seed(8));
    }

    #[test]
    fn zero_hash_is_zero() {
        assert!(Hash::ZERO.is_zero());
        assert!(!hash_bytes(b"x").is_zero());
    }

    #[test]
    fn bit_out_of_range_is_masked_not_panicking() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0b1000_0001;
        let h = Hash::from_bytes(bytes);
        // 256 wraps to 0, 263 wraps to 7, usize::MAX wraps to MAX % 256.
        assert_eq!(h.bit(256), h.bit(0));
        assert_eq!(h.bit(263), h.bit(7));
        assert_eq!(h.bit(usize::MAX), h.bit(usize::MAX % 256));
    }

    #[test]
    fn hasher_streaming_matches_one_shot() {
        let one_shot = hash_bytes(b"hello world");
        let mut streamed = Hasher::new();
        streamed.update(b"hello").update(b" ").update(b"world");
        assert_eq!(streamed.finalize(), one_shot);
        assert_eq!(
            Hasher::new().chain(b"hello ").chain(b"world").finalize(),
            one_shot
        );
    }

    #[test]
    fn hasher_with_domain_matches_hash_domain() {
        assert_eq!(
            Hasher::with_domain(9).chain(b"payload").finalize(),
            hash_domain(9, b"payload")
        );
    }

    #[test]
    fn hasher_finalize_reset_is_a_fresh_state() {
        let mut hasher = Hasher::new();
        hasher.update(b"first");
        assert_eq!(hasher.finalize_reset(), hash_bytes(b"first"));
        hasher.update(b"second");
        assert_eq!(hasher.finalize_reset(), hash_bytes(b"second"));
    }

    #[test]
    fn hash_concat_matches_manual_concatenation() {
        let parts: [&[u8]; 3] = [b"a", b"bc", b"def"];
        assert_eq!(hash_concat(parts), hash_bytes(b"abcdef"));
    }

    #[test]
    fn hash_encoded_scratch_reuse_is_observationally_pure() {
        // Interleaved calls with different types/lengths must all match
        // the naive allocate-per-call formulation.
        for round in 0..3u8 {
            let v: Vec<u8> = vec![round; 100];
            assert_eq!(hash_encoded(&v), hash_bytes(v.to_encoded_bytes()));
            let x = u64::from(round) * 7;
            assert_eq!(hash_encoded(&x), hash_bytes(x.to_encoded_bytes()));
        }
    }

    #[test]
    fn encoded_len_overrides_match_bytes() {
        let h = hash_bytes(b"len");
        assert_eq!(h.encoded_len(), h.to_encoded_bytes().len());
        let a = Address::from_seed(3);
        assert_eq!(a.encoded_len(), a.to_encoded_bytes().len());
        let v = vec![h, Hash::ZERO, hash_bytes(b"more")];
        assert_eq!(v.encoded_len(), v.to_encoded_bytes().len());
        let empty: Vec<Hash> = Vec::new();
        assert_eq!(empty.encoded_len(), empty.to_encoded_bytes().len());
    }
}
