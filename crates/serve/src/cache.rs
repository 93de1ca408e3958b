//! Generation-keyed proof cache.
//!
//! Entries are keyed by the [`QuerySpec`] itself — a hit is one lookup of
//! the request's own spec — and are valid only for the **generation**
//! they were inserted under. The front-end bumps the generation whenever
//! anything that can change an answer moves — only `stage_block` and
//! `rewind`, which move the live indexes every answer comes from — and a
//! bump clears the cache wholesale. That makes "no stale proof survives a
//! height advance" a structural property rather than a bookkeeping
//! discipline: there is no code path that can return a pre-advance entry
//! afterwards, because no pre-advance entry exists.
//!
//! Clients choose the keys, yet the lookup hashes with the front's keyed
//! [`FoldHasher`](crate::hasher::FoldHasher), not std's SipHash: the
//! table never holds more than `capacity` specs, so even a client who
//! learned the seeds could make one lookup compare against at most
//! `capacity` of them — the same order of cost as the cold answer it
//! could ask for instead. [`crate::hasher`] states the rule.
//!
//! Eviction is deterministic: entries carry an insertion sequence number
//! and the oldest insertion is evicted first (FIFO). No wall-clock, no
//! access-time LRU — the replay suites compare hit/miss counters across
//! same-seed runs byte-for-byte.

use std::collections::{HashMap, VecDeque};

use crate::hasher::FoldState;
use crate::wire::{QuerySpec, ServeResponse};

/// A fixed-capacity FIFO cache of canonical response payloads.
#[derive(Debug)]
pub struct ProofCache {
    capacity: usize,
    generation: u64,
    entries: HashMap<QuerySpec, ServeResponse, FoldState>,
    insertion_order: VecDeque<QuerySpec>,
}

impl ProofCache {
    /// Creates a cache holding at most `capacity` entries (0 disables
    /// caching entirely — every lookup misses), hashed under `hasher`'s
    /// seeds (a front shares one draw with its coalescing table).
    pub fn new(capacity: usize, hasher: FoldState) -> Self {
        ProofCache {
            capacity,
            generation: 0,
            entries: HashMap::with_hasher(hasher),
            insertion_order: VecDeque::new(),
        }
    }

    /// The current generation (bumped by [`ProofCache::invalidate`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the cached response for a spec. The `id` of the returned
    /// response is the *original* requester's; callers re-stamp it with
    /// the current request id.
    pub fn get(&self, spec: &QuerySpec) -> Option<&ServeResponse> {
        self.entries.get(spec)
    }

    /// Inserts a response under `spec`, evicting the oldest insertion if
    /// the cache is full. Specs already present keep their original
    /// insertion rank (the payload for a spec cannot change within a
    /// generation, so a re-insert is a no-op in value terms).
    pub fn insert(&mut self, spec: QuerySpec, response: ServeResponse) {
        if self.capacity == 0 || self.entries.contains_key(&spec) {
            return;
        }
        while self.entries.len() >= self.capacity {
            match self.insertion_order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
        self.insertion_order.push_back(spec.clone());
        self.entries.insert(spec, response);
    }

    /// Clears every entry and bumps the generation: nothing cached before
    /// this call can ever be served after it.
    pub fn invalidate(&mut self) {
        self.generation = self.generation.saturating_add(1);
        self.entries.clear();
        self.insertion_order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(height: u64, byte: u8) -> ServeResponse {
        ServeResponse {
            id: 0,
            certified_height: height,
            payload: vec![byte].into(),
        }
    }

    /// A distinct spec per name.
    fn spec(name: &str) -> QuerySpec {
        QuerySpec::Keywords {
            index: "inverted".into(),
            keywords: vec![name.into()],
        }
    }

    #[test]
    fn fifo_eviction_is_deterministic() {
        let mut cache = ProofCache::new(2, FoldState::new());
        cache.insert(spec("a"), response(1, 0xA));
        cache.insert(spec("b"), response(1, 0xB));
        cache.insert(spec("c"), response(1, 0xC));
        assert!(cache.get(&spec("a")).is_none(), "oldest insertion evicted");
        assert!(cache.get(&spec("b")).is_some());
        assert!(cache.get(&spec("c")).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_clears_everything_and_bumps_generation() {
        let mut cache = ProofCache::new(4, FoldState::new());
        cache.insert(spec("a"), response(1, 0xA));
        let before = cache.generation();
        cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(cache.generation(), before + 1);
        assert!(cache.get(&spec("a")).is_none());
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut cache = ProofCache::new(0, FoldState::new());
        cache.insert(spec("a"), response(1, 0xA));
        assert!(cache.get(&spec("a")).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn reinsert_keeps_first_value_and_rank() {
        let mut cache = ProofCache::new(2, FoldState::new());
        cache.insert(spec("a"), response(1, 0xA));
        cache.insert(spec("a"), response(9, 0xF));
        assert_eq!(cache.get(&spec("a")).map(|r| r.certified_height), Some(1));
        assert_eq!(cache.len(), 1);
    }
}
