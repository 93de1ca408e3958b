//! dcert-lint fixture (r5 through re-exports): a verifier entry point
//! whose helpers it reaches only through another crate's `pub use` items,
//! one a rename and one a re-export from a third crate. Analyzed as
//! `crates/core/src/superlight.rs`.

use dcert_chain::locate;

pub struct Client;

impl Client {
    pub fn verify_header(&self, raw: &[u8]) -> u64 {
        locate(raw) + dcert_chain::frame_len(raw)
    }
}
