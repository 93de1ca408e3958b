//! Floors: what an unmeasured cost center pays, as exact counts.
//!
//! A disabled `dcert-obs` registry is meant to cost nothing: its handles
//! hold nothing, so recording into them touches no atomic and allocates
//! nothing. This suite pins that where it matters most, on the serving
//! front's cache hit (two map lookups and an `Arc` clone), and pins that
//! an enabled registry still sees every hit.
//!
//! The read path's floor is pinned the same way: what one cold history
//! and one cold aggregate query allocate through `submit` + `pump`, then
//! in the client's decode and verify (DESIGN.md §9). A payload copied
//! twice, a version re-encoded, or a claim rebuilt as bytes shows up as a
//! count that moved.
//!
//! Allocations are counted by a global allocator that tallies per thread,
//! so the tests `cargo test` runs in parallel cannot pollute each other:
//! each count covers exactly the calls its closure makes on its own
//! thread. The same allocator follows the thread's live heap, so the peak
//! a verifier reaches over a window is read the same way (ROADMAP item
//! 9's measurement: EXPERIMENTS.md, "What a cold query costs"). It also
//! bounds what a lying count prefix can make a decoder reserve.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use dcert::merkle::{SmtProof, SparseMerkleTree};
use dcert::obs::{Registry, Snapshot};
use dcert::primitives::codec::{Decode, MAX_LEN};
use dcert::primitives::hash::{hash_bytes, Hash};
use dcert::query::aggregate::verify_aggregate;
use dcert::query::history::verify_history;
use dcert::query::{AggregateIndex, HistoryIndex};
use dcert::serve::{
    decode_aggregate_payload, decode_history_payload, QuerySpec, ServeConfig, ServeFront,
    ServeMetrics, ServeRequest, ServeWire, Submitted,
};
use dcert::vm::StateKey;
use dcert::workloads::Workload;
use dcert::world::{certify_into, kv_key, World, SERVE_INDEXES};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed (negative when it
    /// frees what another thread allocated), and the highest it reached.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread tally of allocations and bytes,
/// and of the live heap.
struct PerThreadCounting;

#[global_allocator]
static ALLOCATOR: PerThreadCounting = PerThreadCounting;

fn tally(bytes: usize) {
    // `try_with`: an allocation made while the thread's locals are torn
    // down goes uncounted instead of aborting.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

/// Moves this thread's live heap by `delta` bytes, raising its peak.
fn live(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only `const`-
// initialised thread-locals without destructors and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        live(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one more trip to the allocator.
        tally(new_size);
        live(new_size as i64 - layout.size() as i64);
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

/// The highest this thread's live heap rises above where it stood while
/// `f` runs, in bytes, beside what `f` returns.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let value = f();
    let peak = PEAK_BYTES.with(Cell::get);
    (value, u64::try_from(peak - start).unwrap_or(0))
}

/// What `f` leaves allocated on this thread once it returns, in bytes,
/// beside what it returns.
fn held<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE_BYTES.with(Cell::get);
    let value = f();
    let end = LIVE_BYTES.with(Cell::get);
    (value, u64::try_from(end - start).unwrap_or(0))
}

/// One query of each kind the front serves.
fn specs() -> [QuerySpec; 3] {
    [
        QuerySpec::History {
            index: "history".into(),
            key: kv_key(1),
            t1: 1,
            t2: 2,
        },
        QuerySpec::Keywords {
            index: "inverted".into(),
            keywords: vec!["kvstore".to_owned()],
        },
        QuerySpec::Aggregate {
            index: "agg".into(),
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

// --- the read path: one cold query, stage by stage ---------------------------

/// Certified SmallBank blocks behind the cold front.
const COLD_BLOCKS: u64 = 40;

/// Customer `i`'s checking balance: the key the cold queries ask about.
fn checking(customer: u64) -> StateKey {
    let mut field = b"chk-".to_vec();
    field.extend_from_slice(&customer.to_be_bytes());
    StateKey::new("smallbank", &field)
}

/// A front over [`COLD_BLOCKS`] certified SmallBank blocks (two customers,
/// so their balances are written in most blocks) on a disabled registry,
/// that has already answered a history and an aggregate query on customer
/// 1 for client 7: its maps hold their first entries and client 7 has a
/// bucket, so what a next, distinct query costs is the cold read path
/// alone.
fn cold_front() -> ServeFront {
    let mut world = World::pow(&SERVE_INDEXES);
    let blocks = world.mine_blocks(
        Workload::SmallBank { customers: 2 },
        COLD_BLOCKS as usize,
        4,
        1,
    );
    let mut front = ServeFront::new(world.sp, ServeConfig::default());
    for block in &blocks {
        certify_into(&mut world.ci, &mut front, block);
    }
    for (id, query) in [history(1), aggregate(1)].into_iter().enumerate() {
        let served = serve(&mut front, id as u64, query);
        assert!(!served.is_empty());
    }
    front
}

/// The history query on customer `i`'s checking balance over a window
/// that opens some of its lower tree and prunes the rest.
fn history(customer: u64) -> QuerySpec {
    history_of(checking(customer))
}

/// [`history`] over a key already built.
fn history_of(key: StateKey) -> QuerySpec {
    QuerySpec::History {
        index: "history".into(),
        key,
        t1: 5,
        t2: 34,
    }
}

/// The aggregate query over the same window.
fn aggregate(customer: u64) -> QuerySpec {
    aggregate_of(checking(customer))
}

/// [`aggregate`] over a key already built.
fn aggregate_of(key: StateKey) -> QuerySpec {
    QuerySpec::Aggregate {
        index: "agg".into(),
        key,
        t1: 5,
        t2: 34,
    }
}

#[test]
fn a_statically_named_spec_allocates_nothing_to_build_clone_or_drop() {
    let key = checking(1);
    let ((), cost) = counted(|| {
        for spec in [history_of(key), aggregate_of(key)] {
            let queued = spec.clone();
            let ordered = queued.clone();
            assert_eq!(ordered, spec);
        }
    });
    assert_eq!(cost, (0, 0), "allocations, bytes");
}

/// One fresh backend call through `submit` + `pump`: the served payload.
fn serve(front: &mut ServeFront, id: u64, query: QuerySpec) -> Arc<[u8]> {
    let request = ServeRequest {
        client: 7,
        id,
        query,
    };
    let submitted = front.submit(id, request);
    assert_eq!(submitted, Ok(Submitted::Enqueued { coalesced: false }));
    match front.pump(id, 1).pop() {
        Some((7, ServeWire::Response(response))) => response.payload,
        other => panic!("query {id} was answered with {other:?}"),
    }
}

/// What one cold query allocates: on the SP (`submit` + `pump`, the
/// backend call and the payload included), then on the client (decode the
/// payload, verify it against the certified digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColdCost {
    serve: u64,
    decode: u64,
    verify: u64,
}

/// One cold history query of 26 versions. The SP's share is one buffer
/// per version (each leaves the tree as its stored encoding, in the
/// buffer it was cloned into), the proof's, one payload and the front's
/// bookkeeping; the decoder's is one buffer per version plus the proof's;
/// the verifier's is one `Vec` of claimed digests, one of proven digests,
/// and the executed program's nodes. The spec names its index statically,
/// so building it and its two clones (the arrival queue's, the cache's
/// insertion order's) cost nothing: 3 fewer than when the name was a
/// `String`. The window walk counts its rows and ops before it takes
/// them, so the answer and the program are each allocated once: 5 fewer
/// than when both grew by doubling.
const HISTORY_FLOOR: ColdCost = ColdCost {
    serve: 41,
    decode: 36,
    verify: 8,
};

/// One cold aggregate query: no versions travel, so every stage is its
/// proof's (the spec's name costs nothing, as in [`HISTORY_FLOOR`]; the
/// program is sized before it is written, 2 fewer than by doubling).
const AGGREGATE_FLOOR: ColdCost = ColdCost {
    serve: 12,
    decode: 7,
    verify: 6,
};

#[test]
fn a_cold_history_query_allocates_its_floor() {
    let mut front = cold_front();
    let digest = front.sp().digest("history").expect("history index");
    let (payload, (serve, _)) = counted(|| serve(&mut front, 10, history(0)));
    let ((rows, proof), (decode, _)) =
        counted(|| decode_history_payload(&payload).expect("payload decodes"));
    let (verdict, (verify, _)) =
        counted(|| verify_history(&digest, &checking(0), 5, 34, &rows, &proof));
    assert_eq!(verdict, Ok(()));
    assert_eq!(rows.len(), 26, "versions in the window");
    let cost = ColdCost {
        serve,
        decode,
        verify,
    };
    assert_eq!(cost, HISTORY_FLOOR);
}

#[test]
fn a_cold_aggregate_query_allocates_its_floor() {
    let mut front = cold_front();
    let digest = front.sp().digest("agg").expect("aggregate index");
    let (payload, (serve, _)) = counted(|| serve(&mut front, 10, aggregate(0)));
    let ((total, proof), (decode, _)) =
        counted(|| decode_aggregate_payload(&payload).expect("payload decodes"));
    let (verdict, (verify, _)) =
        counted(|| verify_aggregate(&digest, &checking(0), 5, 34, &total, &proof));
    assert_eq!(verdict, Ok(()));
    assert_eq!(total.count, 26, "versions in the window");
    let cost = ColdCost {
        serve,
        decode,
        verify,
    };
    assert_eq!(cost, AGGREGATE_FLOOR);
}

// --- the verifier's live heap over a widening window -------------------------

/// `(w, history, aggregate)`: the peak live heap, in bytes, that
/// `verify_history` and `verify_aggregate` reach over a window of `w`
/// consecutive versions of one key, for four widths, on trees of 4 096
/// versions. A history claim and its proven rows take 40 bytes a row
/// each; the rest is the executed program (one node per pushed shape)
/// and the verifier walk, and it grows with the window too: the verifier
/// holds the whole executed tree until its walk is done. An aggregate's
/// program is logarithmic in the tree, whatever the window (ROADMAP item
/// 9, EXPERIMENTS.md "What a cold query costs").
const VERIFY_PEAKS: [(u64, u64, u64); 4] = [
    (8, 2_296, 2_760),
    (64, 6_776, 2_760),
    (512, 44_856, 2_760),
    (4096, 352_104, 5_080),
];

#[test]
fn verifier_peak_heap_by_window() {
    let key = checking(0);
    let mut history = HistoryIndex::new();
    let mut aggregate = AggregateIndex::new();
    for height in 1..=4096u64 {
        let writes = [(key, Some(height.to_be_bytes().to_vec()))];
        history.apply_block(height, &writes);
        aggregate.apply_block(height, &writes);
    }
    let (history_digest, aggregate_digest) = (history.digest(), aggregate.digest());
    let peaks: Vec<(u64, u64, u64)> = VERIFY_PEAKS
        .iter()
        .map(|&(window, _, _)| {
            let (rows, proof) = history.query(&key, 1, window);
            assert_eq!(rows.len() as u64, window);
            let rows_check = || verify_history(&history_digest, &key, 1, window, &rows, &proof);
            let (total, agg_proof) = aggregate.query(&key, 1, window);
            assert_eq!(total.count, window);
            let total_check =
                || verify_aggregate(&aggregate_digest, &key, 1, window, &total, &agg_proof);
            // Once before measuring, so the thread's hashing scratch has
            // grown to this window's largest preimage.
            assert_eq!((rows_check(), total_check()), (Ok(()), Ok(())));
            let (verdict, rows_peak) = peak_heap(rows_check);
            assert_eq!(verdict, Ok(()));
            let (verdict, total_peak) = peak_heap(total_check);
            assert_eq!(verdict, Ok(()));
            (window, rows_peak, total_peak)
        })
        .collect();
    assert_eq!(peaks, VERIFY_PEAKS);
}

/// The decoders that presize from a wire count, the codec's `decode_seq`
/// and `SmtProof`'s evidence list, reserve what the unread input could
/// hold (`Reader::presize_cap`), not what the count claims: here
/// `MAX_LEN`, the most `take_len` admits, over 64 bytes.
#[test]
fn a_lying_count_reserves_what_its_input_holds() {
    let bomb = |prefix: &[u8]| {
        let mut bytes = prefix.to_vec();
        bytes.extend_from_slice(&u32::try_from(MAX_LEN).unwrap().to_be_bytes());
        bytes.extend_from_slice(&[0xEE; 64]);
        bytes
    };
    let hashes = bomb(&[]);
    let (decoded, peak) = peak_heap(|| Vec::<Hash>::decode_all(&hashes));
    assert!(decoded.is_err());
    assert_eq!(peak, 64 * std::mem::size_of::<Hash>() as u64);
    // No keys, no pre-values, then the evidence count.
    let proof = bomb(&[0; 8]);
    let (decoded, peak) = peak_heap(|| SmtProof::decode_all(&proof));
    assert!(decoded.is_err());
    assert!(peak < 4096, "{peak} bytes reserved");
}

// --- the state tree's heap ---------------------------------------------------

/// Keys in the floor's state tree, and each value's length: about the
/// `blocks_io` state (4 121 keys of 28-byte records at eight seconds).
const STATE_KEYS: u64 = 4096;
const VALUE_LEN: usize = 28;

/// The heap a tree of [`STATE_KEYS`] keys holds, in bytes. Per key one
/// leaf (key, value hash, leaf hash and the value's `Vec`: 120 bytes) and
/// its value (28); per key but one a branch (bit, two sides and hash: 72).
/// 219.98 bytes a key, against ≈ 350 when every node was one 104-byte enum,
/// a branch carried a copy of a leaf key and a hash map held every key a
/// second time beside its value.
const STATE_TREE_HEAP: u64 = 4096 * (120 + 28) + 4095 * 72;

fn state_key(i: u64) -> Hash {
    hash_bytes(i.to_be_bytes())
}

/// The [`STATE_KEYS`]-key tree, built one insert at a time.
fn state_tree() -> SparseMerkleTree {
    let mut tree = SparseMerkleTree::new();
    for i in 0..STATE_KEYS {
        tree.insert(state_key(i), vec![i as u8; VALUE_LEN]);
    }
    tree
}

#[test]
fn the_state_tree_holds_each_key_once() {
    let (tree, bytes) = held(state_tree);
    assert_eq!(tree.len() as u64, STATE_KEYS);
    assert_eq!(bytes, STATE_TREE_HEAP);
    assert!(bytes <= 233 * STATE_KEYS, "{bytes} bytes");
}

#[test]
fn updating_held_keys_allocates_no_node() {
    let mut tree = state_tree();
    let update = |i: u64| (state_key(i), Some(vec![!(i as u8); VALUE_LEN]));
    // One key: its leaf takes the new value in place and hands back the
    // old one, in the buffer the write came in.
    let one = vec![update(7)];
    let ((displaced, bytes), cost) = counted(|| held(|| tree.commit(one)));
    assert_eq!(displaced, [(state_key(7), Some(vec![7; VALUE_LEN]))]);
    assert_eq!((cost, bytes), ((0, 0), 0), "(allocations, bytes), held");
    // Every key: only the sort's scratch, freed before the commit returns.
    let every: Vec<_> = (0..STATE_KEYS).map(update).collect();
    let root = tree.root();
    let ((displaced, bytes), (allocations, _)) = counted(|| held(|| tree.commit(every)));
    assert_eq!(displaced.len() as u64, STATE_KEYS);
    assert_eq!((allocations, bytes), (1, 0), "allocations, bytes held");
    assert_ne!(tree.root(), root);
}
