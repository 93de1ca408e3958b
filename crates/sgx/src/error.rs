//! SGX simulation error types.

use std::fmt;

use dcert_primitives::codec::{Decode, Encode, Reader};
use dcert_primitives::CodecError;

/// An error in the attestation flow or the enclave lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// The quote's platform key is not registered with the attestation
    /// service (an unprovisioned or spoofed "CPU").
    UntrustedPlatform,
    /// The quote's platform signature failed to verify.
    BadQuote,
    /// The attestation report's IAS signature failed to verify.
    BadReport,
    /// A sealed blob failed to unseal: wrong platform, wrong enclave
    /// measurement, or tampered ciphertext.
    BadSeal,
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::UntrustedPlatform => write!(f, "platform key not registered with the IAS"),
            SgxError::BadQuote => write!(f, "quote signature invalid"),
            SgxError::BadReport => write!(f, "attestation report signature invalid"),
            SgxError::BadSeal => write!(f, "sealed blob cannot be recovered here"),
        }
    }
}

impl std::error::Error for SgxError {}

/// One tag byte per variant, then its fields: a refusal crosses the ECall as itself.
impl Encode for SgxError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SgxError::UntrustedPlatform => out.push(0),
            SgxError::BadQuote => out.push(1),
            SgxError::BadReport => out.push(2),
            SgxError::BadSeal => out.push(3),
        }
    }
}

impl Decode for SgxError {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.take_byte()? {
            0 => SgxError::UntrustedPlatform,
            1 => SgxError::BadQuote,
            2 => SgxError::BadReport,
            3 => SgxError::BadSeal,
            other => return Err(CodecError::InvalidTag(other)),
        })
    }
}
