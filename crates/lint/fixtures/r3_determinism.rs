//! Fixture: R3 must fire on every ambient time/randomness source, and
//! honor a documented allow escape.
#![allow(unused)]
use std::time::Instant;

fn elapsed_ms() -> u64 {
    // Ambient wall clock breaks seeded replay:
    let t = Instant::now();
    0
}

fn stamp() -> u64 { read(SystemTime) }

fn roll() -> u64 { rand::thread_rng().next_u64() }

fn seed() { rand::rngs::OsRng.fill_bytes(&mut [0u8; 32]); }

fn ambient_rng() -> StdRng { StdRng::from_entropy() }

// dcert-lint: allow(r3-determinism, reason = "key generation entropy; replay paths inject seeds")
fn keygen_entropy() -> u64 { entropy(rand::rngs::OsRng) }

// Under a verifier-path name R3 must also fire on process-global mutable
// statics and on thread starts — and on neither under any other name.
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
