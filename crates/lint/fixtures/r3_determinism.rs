//! Fixture: R3 must fire on a bare `OsRng` under any name, and under a
//! verifier-path name also on process-global mutable statics and on
//! thread starts — and honor a documented allow escape.
#![allow(unused)]

fn seed() { rand::rngs::OsRng.fill_bytes(&mut [0u8; 32]); }

// dcert-lint: allow(r3-determinism, reason = "key generation entropy; replay paths inject seeds")
fn keygen_entropy() -> u64 { entropy(rand::rngs::OsRng) }

static WORKERS: AtomicUsize = AtomicUsize::new(1);

static CACHE: std::sync::Mutex<Vec<u8>> = std::sync::Mutex::new(Vec::new());

static TABLE: OnceLock<[u32; 256]> = OnceLock::new();

// Immutable data, a `'static` lifetime and per-thread scratch are not
// process-global mutable state:
static DOMAIN: &'static [u8] = b"dcert";

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn fan_out(level: &mut [u64]) {
    std::thread::scope(|scope| {
        scope.spawn(|| level.len());
    });
    let worker = thread::spawn(|| 0u64);
    let named = thread::Builder::new();
    let current = thread::current();
}

use std::thread::{self, sleep, spawn};

// dcert-lint: allow(r3-determinism, reason = "fixture: documented escape for a counter")
static ESCAPED: AtomicU64 = AtomicU64::new(0);
