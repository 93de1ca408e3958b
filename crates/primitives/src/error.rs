//! Error types for the primitives crate.

use std::borrow::Cow;
use std::fmt;

/// An error produced while decoding canonical binary data.
///
/// Returned by [`crate::Decode::decode`] implementations when the input is
/// truncated, malformed, or violates a canonicality rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was fully decoded.
    UnexpectedEof {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A length prefix exceeded the configured sanity limit.
    LengthOverflow(u64),
    /// A tag byte (e.g. for `Option` or an enum) was not a legal value.
    InvalidTag(u8),
    /// A `bool` byte was neither 0 nor 1.
    InvalidBool(u8),
    /// String data was not valid UTF-8.
    InvalidUtf8,
    /// Extra bytes remained after a value that must consume its whole input.
    TrailingBytes(usize),
    /// A domain-specific invariant failed while decoding.
    Invalid(Cow<'static, str>),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} bytes, {remaining} remaining"
            ),
            CodecError::LengthOverflow(len) => write!(f, "length prefix {len} exceeds limit"),
            CodecError::InvalidTag(tag) => write!(f, "invalid tag byte {tag:#04x}"),
            CodecError::InvalidBool(b) => write!(f, "invalid bool byte {b:#04x}"),
            CodecError::InvalidUtf8 => write!(f, "string data was not valid UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// One tag byte per variant, then its fields: a refusal crosses the ECall as itself.
crate::wire! {
    enum CodecError {
        0 => UnexpectedEof { needed, remaining },
        1 => LengthOverflow(len),
        2 => InvalidTag(tag),
        3 => InvalidBool(byte),
        4 => InvalidUtf8,
        5 => TrailingBytes(count),
        6 => Invalid(what),
    }
}

/// An error produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature failed to verify against the given public key and message.
    BadSignature,
    /// Key material had the wrong length or was otherwise malformed.
    MalformedKey,
    /// Signature bytes had the wrong length or were otherwise malformed.
    MalformedSignature,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::MalformedKey => write!(f, "malformed key material"),
            CryptoError::MalformedSignature => write!(f, "malformed signature bytes"),
        }
    }
}

impl std::error::Error for CryptoError {}
