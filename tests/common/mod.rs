//! The persistence and chaos suites' scratch directories. The cast they
//! drive comes from `dcert::world`.

/// Creates a unique, empty temp directory for an integration test.
/// Uniqueness comes from the process id plus a counter — no ambient
/// randomness, so test runs stay fully seed-determined.
pub fn temp_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dcert-it-{}-{}-{label}", std::process::id(), n));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale temp dir removable");
    }
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}
