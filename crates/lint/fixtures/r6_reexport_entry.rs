//! dcert-lint fixture (r6 through re-exports): a trusted function hands a
//! secret to helpers it reaches only through another crate's `pub use`
//! items, one a rename and one a re-export from a third crate. Analyzed as
//! `crates/sgx/src/keyops.rs`.

use dcert_chain::locate;

pub fn leak(platform_secret: &[u8]) -> usize {
    locate(platform_secret) + dcert_chain::frame_len(platform_secret)
}
