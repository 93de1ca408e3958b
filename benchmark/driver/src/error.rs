//! The driver's error type.

use std::fmt;

use dcert_chain::ChainError;
use dcert_core::{CertError, RecoverError};
use dcert_store::StoreError;

use crate::json::ParseError;

#[derive(Debug)]
pub enum BenchError {
    /// Bad command line.
    Usage(String),
    /// A correctness check of the benchmark failed; the message says
    /// which output was wrong.
    Gate(String),
    Cert(CertError),
    Chain(ChainError),
    Store(StoreError),
    Recover(RecoverError),
    Io(std::io::Error),
    Json(ParseError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Gate(msg) => write!(f, "correctness gate: {msg}"),
            BenchError::Cert(e) => write!(f, "certification: {e}"),
            BenchError::Chain(e) => write!(f, "chain: {e}"),
            BenchError::Store(e) => write!(f, "store: {e}"),
            BenchError::Recover(e) => write!(f, "recovery: {e}"),
            BenchError::Io(e) => write!(f, "i/o: {e}"),
            BenchError::Json(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BenchError {}

macro_rules! from_error {
    ($($source:ty => $variant:ident),*) => {$(
        impl From<$source> for BenchError {
            fn from(e: $source) -> Self {
                BenchError::$variant(e)
            }
        }
    )*};
}

from_error!(CertError => Cert, ChainError => Chain, StoreError => Store,
            RecoverError => Recover, std::io::Error => Io, ParseError => Json);

/// Fails the correctness gate unless `condition` holds.
pub fn gate(condition: bool, message: impl FnOnce() -> String) -> Result<(), BenchError> {
    if condition {
        Ok(())
    } else {
        Err(BenchError::Gate(message()))
    }
}
