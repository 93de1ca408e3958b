//! Certification error types.

use std::fmt;

use dcert_chain::ChainError;
use dcert_merkle::ProofError;
use dcert_primitives::error::CodecError;
use dcert_sgx::SgxError;

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
    BadIndexUpdate(&'static str),
    /// The enclave has not completed key initialization.
    NotInitialized,
    /// A request or response failed to (de)serialize at the ECall boundary.
    Codec(CodecError),
    /// The enclave rejected the request; the reason string is the trusted
    /// program's error rendered across the byte-level boundary.
    EnclaveRejected(String),
    /// The certification pipeline has stopped accepting work
    /// (shutdown in progress or a stage died).
    PipelineClosed,
    /// The presented header violates the chain-selection rule
    /// (Algorithm 3, line 8).
    ChainSelection {
        /// Height the client already trusts.
        current: u64,
        /// Height that was offered.
        offered: u64,
    },
    /// The publisher could not confirm delivery of a certificate within
    /// its retry budget; the message went to the dead-letter report.
    PublishFailed {
        /// Publish attempts made (initial try + retries).
        attempts: u32,
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
    /// A range certification or fold request carried no blocks/ranges.
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
            CertError::EnclaveRejected(reason) => write!(f, "enclave rejected: {reason}"),
            CertError::PipelineClosed => write!(f, "certification pipeline closed"),
            CertError::ChainSelection { current, offered } => write!(
                f,
                "chain selection violated: have height {current}, offered {offered}"
            ),
            CertError::PublishFailed { attempts } => {
                write!(f, "publish unconfirmed after {attempts} attempts")
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

/// Untrusted-side failures of the sharded certification fleet: plan
/// construction, worker threads, and durable-state plumbing. Enclave-side
/// refusals surface as ordinary [`CertError`] variants instead.
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
    /// A shard worker thread failed; the reason is the worker's error
    /// rendered to a string (thread boundaries erase the concrete type).
    Worker {
        /// Index of the failed shard.
        shard: usize,
        /// Rendered failure reason.
        reason: String,
    },
    /// The failure plan killed this shard before it finished its ranges.
    Killed {
        /// Index of the killed shard.
        shard: usize,
    },
    /// The durable store rejected a watermark or seal write.
    Store(String),
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
            ShardError::Worker { shard, reason } => {
                write!(f, "shard {shard} worker failed: {reason}")
            }
            ShardError::Killed { shard } => write!(f, "shard {shard} killed by failure plan"),
            ShardError::Store(reason) => write!(f, "shard store write failed: {reason}"),
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
