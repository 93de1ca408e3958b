//! Foundational primitives shared by every DCert crate.
//!
//! This crate provides the building blocks on which the whole DCert
//! reproduction is assembled:
//!
//! - [`struct@Hash`]: a 32-byte SHA-256 digest newtype together with domain-separated
//!   hashing helpers ([`hash::hash_bytes`], [`hash::hash_pair`], ...),
//! - [`Address`]: a 20-byte account identifier,
//! - [`codec`]: a small canonical binary serialization framework used both for
//!   hashing structures deterministically and for accounting the *exact* byte
//!   sizes the paper reports (e.g. the 2.97 KB superlight-client state),
//! - [`keys`]: Ed25519 key pairs and signatures wrapping `ed25519-dalek`,
//!   used for the enclave key, the simulated platform key, and the simulated
//!   Intel Attestation Service root key,
//! - [`hex`]: minimal hexadecimal encoding/decoding (implemented from
//!   scratch; no extra dependency).
//!
//! # Example
//!
//! ```
//! use dcert_primitives::{hash::hash_bytes, keys::Keypair};
//!
//! let digest = hash_bytes(b"hello dcert");
//! let kp = Keypair::from_seed([7; 32]);
//! let sig = kp.sign(digest.as_bytes());
//! assert!(kp.public().verify(digest.as_bytes(), &sig).is_ok());
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

pub mod codec;
pub mod error;
pub mod hash;
pub mod hex;
pub mod keys;

pub use codec::{Decode, Encode};
pub use error::{CodecError, CryptoError};
pub use hash::{Address, Hash, Hasher};
pub use keys::{Keypair, PublicKey, Signature};
