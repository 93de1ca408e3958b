//! Query verification errors, and the SP's certificate refusals.

use std::fmt;

use dcert_core::CertError;
use dcert_merkle::ProofError;
use dcert_primitives::error::CodecError;

/// Why a query result failed verification on the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An underlying Merkle proof failed.
    Proof(ProofError),
    /// The proof authenticates an index state inconsistent with the
    /// certified digest.
    DigestMismatch,
    /// The claimed results disagree with the authenticated index content.
    ResultMismatch(&'static str),
    /// The proof payload failed to decode.
    Codec(CodecError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Proof(e) => write!(f, "proof verification failed: {e}"),
            QueryError::DigestMismatch => write!(f, "certified digest mismatch"),
            QueryError::ResultMismatch(what) => write!(f, "result mismatch: {what}"),
            QueryError::Codec(e) => write!(f, "proof decoding failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ProofError> for QueryError {
    fn from(e: ProofError) -> Self {
        QueryError::Proof(e)
    }
}

impl From<CodecError> for QueryError {
    fn from(e: CodecError) -> Self {
        QueryError::Codec(e)
    }
}

/// Why [`ServiceProvider::advance`](crate::ServiceProvider::advance)
/// refused a block's certificates. The SP is left as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpError {
    /// `got` certificates for `expected` indexes.
    CertCount { expected: usize, got: usize },
    /// The certificate in `index`'s place does not certify `H(header ‖
    /// digest)` of the staged block and that index (`DigestMismatch`), or,
    /// on a store-backed SP, fails verification under its trust anchors.
    Cert { index: String, error: CertError },
}

impl fmt::Display for SpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpError::CertCount { expected, got } => write!(f, "{got} certs, {expected} indexes"),
            SpError::Cert { index, error } => write!(f, "certificate for {index}: {error}"),
        }
    }
}

impl std::error::Error for SpError {}
