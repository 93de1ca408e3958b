//! dcert-lint fixture (r6, macros): a `macro_rules!` body is one node, so
//! R6 scans a template written in a trusted module; a `wire!` table
//! implements the codec traits of the types it declares, so a call on one
//! resolves. Analyzed as `crates/sgx/src/keyops.rs`.

use dcert_primitives::codec::{Decode, Reader};

pub struct Key(u64);

dcert_primitives::wire! {
    struct Key(height)
}

macro_rules! trace_key {
    ($secret:expr) => {
        println!("{:?}", $secret)
    };
}

pub fn open(secret_bytes: &[u8]) -> Option<Key> {
    Key::decode(&mut Reader(secret_bytes))
}
