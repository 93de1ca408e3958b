//! Floors: what an unmeasured cost center pays, as exact counts.
//!
//! A disabled `dcert-obs` registry is meant to cost nothing: its handles
//! hold nothing, so recording into them touches no atomic and allocates
//! nothing. This suite pins that where it matters most, on the serving
//! front's cache hit (two map lookups and an `Arc` clone), and pins that
//! an enabled registry still sees every hit.
//!
//! Allocations are counted by a global allocator that tallies per thread,
//! so the tests `cargo test` runs in parallel cannot pollute each other:
//! each count covers exactly the calls its closure makes on its own
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use dcert::obs::{Registry, Snapshot};
use dcert::serve::{
    QuerySpec, ServeConfig, ServeFront, ServeMetrics, ServeRequest, ServeWire, Submitted,
};
use dcert::workloads::Workload;
use dcert::world::{certify_into, kv_key, World, SERVE_INDEXES};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread tally of allocations and bytes.
struct PerThreadCounting;

#[global_allocator]
static ALLOCATOR: PerThreadCounting = PerThreadCounting;

fn tally(bytes: usize) {
    // `try_with`: an allocation made while the thread's locals are torn
    // down goes uncounted instead of aborting.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only `const`-
// initialised thread-locals without destructors and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
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
        tally(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is non-zero and valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` this thread makes while running `f`, beside
/// what `f` returns.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let read = || (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    let before = read();
    let value = f();
    let after = read();
    (value, (after.0 - before.0, after.1 - before.1))
}

/// One query of each kind the front serves.
fn specs() -> [QuerySpec; 3] {
    [
        QuerySpec::History {
            index: "history".to_owned(),
            key: kv_key(1),
            t1: 1,
            t2: 2,
        },
        QuerySpec::Keywords {
            index: "inverted".to_owned(),
            keywords: vec!["kvstore".to_owned()],
        },
        QuerySpec::Aggregate {
            index: "agg".to_owned(),
            key: kv_key(1),
            t1: 1,
            t2: 2,
        },
    ]
}

/// A front over two certified kvstore blocks whose cache holds every
/// [`specs`] answer, with client 7's token bucket already created: the
/// next `submit` of a spec by client 7 is a pure cache hit.
fn warmed_front(registry: &Registry) -> ServeFront {
    let mut world = World::pow(&SERVE_INDEXES);
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: 4 }, 2, 4, 1);
    let mut front = ServeFront::new(world.sp, ServeConfig::default());
    front.attach_obs(registry);
    for block in &blocks {
        certify_into(&mut world.ci, &mut front, block);
    }
    for (id, query) in (0..).zip(specs()) {
        let submitted = front.submit(
            0,
            ServeRequest {
                client: 7,
                id,
                query,
            },
        );
        assert_eq!(submitted, Ok(Submitted::Enqueued { coalesced: false }));
    }
    for (_, wire) in front.pump(1, usize::MAX) {
        assert!(matches!(wire, ServeWire::Response(_)), "{wire:?}");
    }
    assert_eq!(front.cached_entries(), 3);
    front
}

/// Client 7's requests for every [`specs`] query, built before counting.
fn hits() -> Vec<ServeRequest> {
    (100..)
        .zip(specs())
        .map(|(id, query)| ServeRequest {
            client: 7,
            id,
            query,
        })
        .collect()
}

#[test]
fn serve_metrics_on_a_disabled_registry_allocate_nothing() {
    let (_metrics, cost) = counted(ServeMetrics::disabled);
    assert_eq!(cost, (0, 0), "allocations, bytes");
}

#[test]
fn a_cache_hit_on_a_disabled_registry_allocates_nothing() {
    let mut front = warmed_front(&Registry::disabled());
    let requests = hits();
    let (outcomes, cost) = counted(|| {
        requests
            .into_iter()
            .map(|request| front.submit(2, request))
            .fold(0, |answered, outcome| {
                answered + usize::from(matches!(outcome, Ok(Submitted::CacheHit(_))))
            })
    });
    assert_eq!(outcomes, 3, "every request is a hit");
    assert_eq!(cost, (0, 0), "allocations, bytes over three hits");
}

/// Every counter's value and every histogram's observation count.
fn tallies(snapshot: &Snapshot) -> BTreeMap<String, u64> {
    let histograms = snapshot.histograms.iter().map(|(name, h)| (name, h.count));
    snapshot
        .counters
        .iter()
        .map(|(name, value)| (name, *value))
        .chain(histograms)
        .map(|(name, value)| (name.clone(), value))
        .collect()
}

#[test]
fn a_cache_hit_on_an_enabled_registry_moves_each_hit_metric_by_one() {
    let registry = Registry::new();
    let mut front = warmed_front(&registry);
    let before = tallies(&registry.snapshot());
    let request = hits().swap_remove(0);
    assert!(matches!(
        front.submit(2, request),
        Ok(Submitted::CacheHit(_))
    ));
    let after = tallies(&registry.snapshot());

    let moved: BTreeMap<&str, u64> = after
        .iter()
        .filter_map(|(name, value)| {
            let delta = value - before.get(name).copied().unwrap_or(0);
            (delta != 0).then_some((name.as_str(), delta))
        })
        .collect();
    let expected: BTreeMap<&str, u64> = [
        "serve.cache_hits",
        "serve.payload_bytes",
        "serve.requests",
        "serve.wait_ticks",
    ]
    .into_iter()
    .map(|name| (name, 1))
    .collect();
    assert_eq!(moved, expected);
}
