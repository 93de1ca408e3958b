//! Fixture: the allow escape hatch — a documented escape suppresses
//! and is counted; a reasonless escape suppresses nothing and is
//! itself reported as malformed.
#![allow(unused)]
// dcert-lint: allow(r4-error-hygiene, reason = "a test double's message")
fn head(bytes: &[u8]) -> Result<u8, String> {
    bytes.first().copied().ok_or_else(String::new)
}

// dcert-lint: allow(r4-error-hygiene)
fn tail(bytes: &[u8]) -> Result<u8, String> { bytes.last().copied().ok_or_else(String::new) }
