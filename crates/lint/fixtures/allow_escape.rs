//! Fixture: the allow escape hatch — a documented escape suppresses
//! and is counted; a reasonless escape suppresses nothing and is
//! itself reported as malformed.
#![allow(unused)]
fn head(bytes: &[u8]) -> u8 {
    // dcert-lint: allow(r5-panic-reachability, reason = "length checked on entry")
    bytes[0]
}

// dcert-lint: allow(r5-panic-reachability)
fn tail(bytes: &[u8]) -> u8 { bytes[bytes.len() - 1] }
