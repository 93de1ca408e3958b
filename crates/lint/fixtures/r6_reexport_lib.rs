//! dcert-lint fixture (r6 through re-exports): a crate root that defines
//! no function and re-exports two. Analyzed as `crates/chain/src/lib.rs`.

pub mod helpers;

pub use dcert_vm::frames::frame_len;
pub use helpers::find_header as locate;
