//! Certification error types.

use std::borrow::Cow;
use std::fmt;

use dcert_chain::ChainError;
use dcert_merkle::ProofError;
use dcert_primitives::error::CodecError;
use dcert_sgx::SgxError;
use dcert_store::StoreError;

/// Why a certificate failed to construct or verify.
///
/// Every arm of Algorithms 2–5 that can reject maps to a variant, so tests
/// can assert *which* check caught a forgery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The attestation report failed IAS-signature verification.
    Attestation(SgxError),
    /// The report's measurement is not the expected certificate program.
    WrongMeasurement,
    /// The report does not bind the certificate's `pk_enc`.
    KeyBindingMismatch,
    /// The certificate signature does not verify under `pk_enc`.
    BadSignature,
    /// The certificate digest does not match the presented header/index.
    DigestMismatch,
    /// A non-genesis parent was presented without a certificate.
    MissingPrevCert,
    /// The claimed parent of the genesis block did not match the
    /// hard-coded genesis digest.
    GenesisMismatch,
    /// Header-level validation failed (linkage, height, consensus, tx root,
    /// tx signatures).
    Chain(ChainError),
    /// A Merkle proof failed.
    Proof(ProofError),
    /// The supplied read set disagrees with its authenticated proof.
    ReadSetMismatch,
    /// Replayed execution did not reproduce the block's state root.
    StateRootMismatch,
    /// The claimed index digest does not match the recomputed one.
    IndexDigestMismatch,
    /// No verifier is registered for the named index type.
    UnknownIndexType(String),
    /// An index update's auxiliary data failed to decode or apply.
    BadIndexUpdate(Cow<'static, str>),
    /// The enclave has not completed key initialization.
    NotInitialized,
    /// A request or response failed to (de)serialize at the ECall boundary.
    Codec(CodecError),
    /// The certification pipeline has stopped accepting work (it was
    /// killed, or its issuer thread died).
    PipelineClosed,
    /// The presented header violates the chain-selection rule
    /// (Algorithm 3, line 8).
    ChainSelection {
        /// Height the client already trusts.
        current: u64,
        /// Height that was offered.
        offered: u64,
    },
    /// The certificate validated, but fewer than the client's threshold
    /// of trust domains have certified its digest so far.
    BelowThreshold {
        /// Distinct domains that certified the digest, this one included.
        have: usize,
        /// The client's threshold.
        need: usize,
    },
    /// A client threshold of zero, or above its number of trust domains.
    BadThreshold {
        /// The threshold asked for.
        threshold: usize,
        /// The number of trust domains given.
        domains: usize,
    },
    /// The enclave refused to sign at or below a height it already
    /// signed — the monotonicity guard that makes a restarted CI unable
    /// to double-issue (sealed state carries the watermark).
    HeightRegression {
        /// Highest block height the enclave has signed.
        last_signed: u64,
        /// Height that was requested.
        offered: u64,
    },
    /// A batch, range or fold request carried no blocks/ranges.
    EmptyRange,
    /// Height arithmetic on a range span overflowed `u64`.
    HeightOverflow,
    /// A range certificate's declared span does not match the number of
    /// header digests it carries.
    RangeLengthMismatch,
    /// A folded range's anchor digest does not equal the digest of the
    /// preceding range's last header (or the fold anchor).
    RangeAnchorMismatch,
    /// Folded ranges are not height-contiguous.
    RangeDiscontinuity {
        /// Height the next range was expected to start at.
        expected: u64,
        /// Height it actually declared.
        found: u64,
    },
    /// The sharded fleet failed outside the enclave boundary.
    Shard(ShardError),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Attestation(e) => write!(f, "attestation failed: {e}"),
            CertError::WrongMeasurement => write!(f, "unexpected enclave measurement"),
            CertError::KeyBindingMismatch => {
                write!(f, "attestation report does not bind pk_enc")
            }
            CertError::BadSignature => write!(f, "certificate signature invalid"),
            CertError::DigestMismatch => write!(f, "certificate digest mismatch"),
            CertError::MissingPrevCert => write!(f, "missing previous certificate"),
            CertError::GenesisMismatch => write!(f, "genesis digest mismatch"),
            CertError::Chain(e) => write!(f, "block validation failed: {e}"),
            CertError::Proof(e) => write!(f, "merkle proof failed: {e}"),
            CertError::ReadSetMismatch => {
                write!(f, "read set disagrees with its authenticated proof")
            }
            CertError::StateRootMismatch => {
                write!(
                    f,
                    "replayed execution does not reach the claimed state root"
                )
            }
            CertError::IndexDigestMismatch => write!(f, "index digest mismatch"),
            CertError::UnknownIndexType(name) => write!(f, "unknown index type: {name}"),
            CertError::BadIndexUpdate(why) => write!(f, "bad index update: {why}"),
            CertError::NotInitialized => write!(f, "enclave key not initialized"),
            CertError::Codec(e) => write!(f, "ecall boundary codec error: {e}"),
            CertError::PipelineClosed => write!(f, "certification pipeline closed"),
            CertError::ChainSelection { current, offered } => write!(
                f,
                "chain selection violated: have height {current}, offered {offered}"
            ),
            CertError::BelowThreshold { have, need } => {
                write!(
                    f,
                    "certified by {have} of the {need} trust domains required"
                )
            }
            CertError::BadThreshold { threshold, domains } => {
                write!(
                    f,
                    "threshold {threshold} is not within 1..={domains} trust domains"
                )
            }
            CertError::HeightRegression {
                last_signed,
                offered,
            } => write!(
                f,
                "height regression: already signed {last_signed}, offered {offered}"
            ),
            CertError::EmptyRange => write!(f, "range request carries no blocks"),
            CertError::HeightOverflow => write!(f, "range height arithmetic overflowed"),
            CertError::RangeLengthMismatch => {
                write!(f, "range span disagrees with its digest count")
            }
            CertError::RangeAnchorMismatch => {
                write!(f, "range certificate anchored at the wrong digest")
            }
            CertError::RangeDiscontinuity { expected, found } => write!(
                f,
                "range discontinuity: expected first height {expected}, found {found}"
            ),
            CertError::Shard(e) => write!(f, "shard fleet failed: {e}"),
        }
    }
}

impl std::error::Error for CertError {}

// One tag byte per variant, then its fields: a refusal crosses the ECall as
// itself. Every host-only variant — one the trusted program never builds —
// encodes as 0xff, which the decoder refuses: a host error can never pass
// for an enclave refusal.
dcert_primitives::wire! {
    enum CertError {
        0 => Attestation(e),
        1 => WrongMeasurement,
        2 => KeyBindingMismatch,
        3 => BadSignature,
        4 => DigestMismatch,
        5 => MissingPrevCert,
        6 => GenesisMismatch,
        7 => Chain(e),
        8 => Proof(e),
        9 => ReadSetMismatch,
        10 => StateRootMismatch,
        11 => IndexDigestMismatch,
        12 => UnknownIndexType(name),
        13 => BadIndexUpdate(why),
        14 => NotInitialized,
        15 => Codec(e),
        16 => HeightRegression { last_signed, offered },
        17 => EmptyRange,
        18 => HeightOverflow,
        19 => RangeLengthMismatch,
        20 => RangeAnchorMismatch,
        21 => RangeDiscontinuity { expected, found },
        host_only 0xff => PipelineClosed | ChainSelection | BelowThreshold | BadThreshold | Shard,
    }
}

/// Untrusted-side failures of the sharded certification fleet: plan
/// construction and durable-state plumbing. Enclave-side refusals surface
/// as ordinary [`CertError`] variants instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard plan was requested over an empty height span.
    EmptySpan {
        /// First height of the requested span.
        first: u64,
        /// Last height of the requested span.
        last: u64,
    },
    /// A shard plan was requested with zero shards.
    ZeroShards,
    /// A fleet was configured with a zero chunk size.
    ZeroChunk,
    /// Height arithmetic on the plan overflowed `u64`.
    HeightOverflow,
    /// A block required by the plan was not offered by the caller.
    MissingBlock {
        /// Height of the missing block.
        height: u64,
    },
    /// The durable store rejected a watermark or seal write.
    Store(StoreError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::EmptySpan { first, last } => {
                write!(f, "empty shard span: first {first}, last {last}")
            }
            ShardError::ZeroShards => write!(f, "shard plan needs at least one shard"),
            ShardError::ZeroChunk => write!(f, "shard fleet needs a non-zero chunk size"),
            ShardError::HeightOverflow => write!(f, "shard plan height arithmetic overflowed"),
            ShardError::MissingBlock { height } => {
                write!(f, "block at height {height} missing from offered chain")
            }
            ShardError::Store(e) => write!(f, "shard store write failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ShardError> for CertError {
    fn from(e: ShardError) -> Self {
        CertError::Shard(e)
    }
}

impl From<SgxError> for CertError {
    fn from(e: SgxError) -> Self {
        CertError::Attestation(e)
    }
}

impl From<ChainError> for CertError {
    fn from(e: ChainError) -> Self {
        CertError::Chain(e)
    }
}

impl From<ProofError> for CertError {
    fn from(e: ProofError) -> Self {
        CertError::Proof(e)
    }
}

impl From<CodecError> for CertError {
    fn from(e: CodecError) -> Self {
        CertError::Codec(e)
    }
}
