//! Software SGX enclave simulator.
//!
//! The paper's prototype runs its certificate-signing program inside a real
//! Intel SGX enclave via the Apache Teaclave SDK. No SGX hardware is
//! available here, so this crate reproduces — in software — exactly the
//! properties DCert's algorithms and measurements rely on:
//!
//! 1. **Trust boundary** ([`enclave::Enclave`]): the trusted program and
//!    its secrets live behind an opaque byte-level ECall interface; nothing
//!    outside the enclave can observe or forge its internal state. The
//!    enclave key `sk_enc` is generated inside and never crosses the
//!    boundary.
//! 2. **Measurement & attestation** ([`attestation`]): the enclave's code
//!    identity is hashed into a *measurement*; quotes over
//!    (measurement ‖ report-data) are signed by a simulated per-platform
//!    key, and a simulated Intel Attestation Service verifies quotes from
//!    registered platforms and countersigns *attestation reports* that
//!    anyone can check against the well-known IAS root key. This mirrors
//!    the EPID/IAS flow in Section 2.2 of the paper.
//! 3. **Cost model** ([`cost::CostModel`]): ECall/OCall transitions and
//!    cross-boundary data marshalling are charged wall-clock time
//!    (busy-wait calibrated to published SGX numbers: a few μs per
//!    transition, ~1 ns per byte copied+encrypted, and a steep paging
//!    penalty past the 93 MB EPC budget). This is what makes the
//!    enclave-overhead curves of Figures 8–10 reproducible in simulation.
//!
//! # Example
//!
//! ```
//! use dcert_sgx::{AttestationService, CostModel, Enclave, TrustedApp};
//! use dcert_primitives::hash::{hash_bytes, Hash};
//!
//! struct Echo;
//! impl TrustedApp for Echo {
//!     fn code_identity(&self) -> &[u8] { b"echo-v1" }
//!     fn call(&mut self, input: &[u8]) -> Vec<u8> { input.to_vec() }
//!     fn retained_bytes(&self) -> u64 { 0 }
//! }
//!
//! let mut ias = AttestationService::with_seed([7; 32]);
//! let enclave = Enclave::launch_with_platform_seed(Echo, CostModel::zero(), [1; 32]);
//! ias.register_platform(enclave.platform_key());
//!
//! let report = ias.attest(&enclave.quote(hash_bytes(b"pk_enc")))?;
//! report.verify(&ias.public_key())?;
//! assert_eq!(report.measurement, enclave.measurement());
//! assert_eq!(enclave.ecall(b"ping"), b"ping");
//! # Ok::<(), dcert_sgx::SgxError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod attestation;
pub mod cost;
pub mod enclave;
pub mod error;
pub mod sealing;

pub use attestation::{AttestationReport, AttestationService, Quote};
pub use cost::{CostModel, CrossingCharge};
pub use enclave::{Enclave, EnclaveStats, TrustedApp};
pub use error::SgxError;
pub use sealing::SealedBlob;
