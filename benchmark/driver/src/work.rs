//! Hardware-independent work counters: SHA-256 compressions and
//! signature operations counted inside the stand-in crypto crates, and
//! heap allocations counted by this process's allocator.
//!
//! One runtime switch gates all of them ([`set_counting`]); only the
//! traced run turns it on, so the run that end-to-end metrics come from
//! pays a relaxed load per event and nothing else. The crypto counters
//! exist only in the stand-ins under `benchmark/vendor/`: when the real
//! crates replace those, this module keeps the allocator counts and
//! drops the rest (see README.md, "Moving to the real crates").

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two relaxed counters.
pub struct CountingAllocator;

#[inline]
fn count(bytes: usize) {
    if sha2::work::enabled() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one more trip to the allocator.
        count(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is non-zero and valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns every work counter on or off.
pub fn set_counting(on: bool) {
    sha2::work::set_enabled(on);
}

/// A reading of every counter; subtract two to get the work between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub sha256_blocks: u64,
    pub sig_signs: u64,
    pub sig_verifies: u64,
    pub allocations: u64,
    pub allocated_bytes: u64,
}

impl Work {
    pub fn read() -> Work {
        Work {
            sha256_blocks: sha2::work::sha256_blocks(),
            // dcert-lint: allow(r1-enclave-secrecy, reason = "reads the stand-in's public work counters, no key material")
            sig_signs: ed25519_dalek::work::signs(),
            // dcert-lint: allow(r1-enclave-secrecy, reason = "reads the stand-in's public work counters, no key material")
            sig_verifies: ed25519_dalek::work::verifies(),
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: Work) -> Work {
        Work {
            sha256_blocks: self.sha256_blocks - earlier.sha256_blocks,
            sig_signs: self.sig_signs - earlier.sig_signs,
            sig_verifies: self.sig_verifies - earlier.sig_verifies,
            allocations: self.allocations - earlier.allocations,
            allocated_bytes: self.allocated_bytes - earlier.allocated_bytes,
        }
    }
}
