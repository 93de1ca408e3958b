//! SGX simulation error types.

use std::fmt;

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

// One tag byte per variant, then its fields: a refusal crosses the ECall as itself.
dcert_primitives::wire! {
    enum SgxError {
        0 => UntrustedPlatform,
        1 => BadQuote,
        2 => BadReport,
        3 => BadSeal,
    }
}
