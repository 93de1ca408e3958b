//! The serving front-end: one deterministic scheduler in front of the SP.
//!
//! [`ServeFront`] owns a [`ServiceProvider`] and turns the one-caller-
//! at-a-time `serve_*` methods into a multi-client admission pipeline:
//!
//! 1. **Admission** ([`ServeFront::submit`]): a per-client token bucket
//!    on the virtual clock sheds abusive clients, then the proof cache
//!    answers hot queries without touching the queue, then the request
//!    either *coalesces* onto an identical in-flight query or claims a
//!    new slot in the fixed-capacity queue. Every shed is a typed
//!    [`ServeRefusal`] returned synchronously — never a silent drop.
//! 2. **Execution** ([`ServeFront::pump`]): the caller drains the queue
//!    at its own pace. Each distinct query costs exactly one backend
//!    call regardless of how many waiters coalesced onto it; the
//!    canonical payload is fanned out to every waiter and inserted into
//!    the cache.
//! 3. **Invalidation**: the chain-advancing passthroughs
//!    ([`ServeFront::stage_block`], [`ServeFront::record_certs`],
//!    [`ServeFront::advance_staged`]) bump the cache generation and
//!    clear it wholesale, so no pre-advance proof can survive a height
//!    advance by construction.
//!
//! The front is intentionally synchronous and single-threaded: all
//! scheduling is driven by explicit virtual-clock ticks the caller reads
//! off `SimNet::now` (or any deterministic clock), which is what makes
//! the chaos suite's replay-stability assertions possible. The only
//! wall-clock measurement is the `serve.serve_ns` timer around backend
//! calls, taken through `dcert_sgx::cost::timed` (the workspace's one
//! sanctioned clock) and stripped from replay comparisons by naming
//! convention.

use std::collections::{HashMap, VecDeque};

use dcert_chain::{Block, ChainError};
use dcert_core::{Certificate, IndexInput};
use dcert_obs::Registry;
use dcert_query::ServiceProvider;
use dcert_sgx::cost::timed;

use dcert_vm::StateKey;

use crate::admission::{RateLimit, TokenBuckets, TokenGrant};
use crate::cache::ProofCache;
use crate::metrics::ServeMetrics;
use crate::wire::{
    decode_history_payload, encode_aggregate_payload, encode_history_payload,
    encode_keyword_payload, QuerySpec, RefusalReason, ServeRefusal, ServeRequest, ServeResponse,
    ServeWire,
};

/// Capacity and rate-limit policy for a [`ServeFront`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum distinct queries pending at once (the coalescing makes
    /// this a bound on *backend work*, not on client count).
    pub queue_capacity: usize,
    /// Maximum waiters parked across all pending queries.
    pub max_waiters: usize,
    /// Proof-cache entries retained per certified-height generation.
    pub cache_capacity: usize,
    /// Per-client token-bucket policy.
    pub rate_limit: RateLimit,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_waiters: 4096,
            cache_capacity: 1024,
            rate_limit: RateLimit::unlimited(),
        }
    }
}

/// What [`ServeFront::submit`] did with an admitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// Answered immediately from the proof cache.
    CacheHit(ServeResponse),
    /// Parked; the response arrives from a later [`ServeFront::pump`].
    Enqueued {
        /// True when the request attached to an already-pending
        /// identical query instead of claiming a new queue slot.
        coalesced: bool,
    },
}

#[derive(Debug, Clone)]
struct Waiter {
    client: u64,
    id: u64,
    admitted_at: u64,
}

#[derive(Debug)]
struct PendingEntry {
    spec: QuerySpec,
    waiters: Vec<Waiter>,
}

/// One [`QuerySpec::HistoryOp`] window the cache holds an answer for. A
/// later `HistoryOp` whose window is *contained* in this one is answered
/// by narrowing the cached answer: the proof for `[t1, t2]` verifies any
/// sub-window, so only the result rows need filtering — no backend call,
/// no new proof. Narrowing is keyed to this one kind: the record list is
/// scanned linearly on every miss, a cost `History` traffic — in practice
/// whole-history windows, which never narrow — does not pay. (Aggregate
/// answers cannot be narrowed at all: their proofs prune `Inside`
/// subtrees to bare annotations, which do not re-verify for a narrower
/// window.)
#[derive(Debug, Clone)]
struct OpWindow {
    index: String,
    key: StateKey,
    t1: u64,
    t2: u64,
    /// The cache key the covering answer lives under.
    spec_key: Vec<u8>,
}

/// The request scheduler. See the module docs for the pipeline shape.
#[derive(Debug)]
pub struct ServeFront {
    sp: ServiceProvider,
    config: ServeConfig,
    cache: ProofCache,
    buckets: TokenBuckets,
    /// Arrival order of pending spec keys. May contain stale keys whose
    /// entry was released by waiter abandonment; [`ServeFront::pump`]
    /// skips those.
    arrival_order: VecDeque<Vec<u8>>,
    pending: HashMap<Vec<u8>, PendingEntry>,
    parked_waiters: usize,
    /// Windows of `HistoryOp` answers in the cache, in insertion order.
    /// Cleared wholesale with every cache invalidation: a window entry
    /// must never outlive the generation its answer was served in.
    op_windows: Vec<OpWindow>,
    metrics: ServeMetrics,
}

impl ServeFront {
    /// Wraps `sp` under `config` with detached metrics (call
    /// [`ServeFront::attach_obs`] to register `serve.*`).
    pub fn new(sp: ServiceProvider, config: ServeConfig) -> Self {
        ServeFront {
            sp,
            config,
            cache: ProofCache::new(config.cache_capacity),
            buckets: TokenBuckets::new(config.rate_limit),
            arrival_order: VecDeque::new(),
            pending: HashMap::new(),
            parked_waiters: 0,
            op_windows: Vec::new(),
            metrics: ServeMetrics::disabled(),
        }
    }

    /// Registers the `serve.*` metrics in `registry`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.metrics = ServeMetrics::register(registry);
    }

    /// The wrapped Service Provider (read-only: mutations must go
    /// through the invalidating passthroughs).
    pub fn sp(&self) -> &ServiceProvider {
        &self.sp
    }

    /// Unwraps the front, returning the Service Provider.
    pub fn into_sp(self) -> ServiceProvider {
        self.sp
    }

    /// The configured capacities and rate limit.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Distinct queries currently pending (live coalescing entries).
    pub fn inflight_entries(&self) -> usize {
        self.pending.len()
    }

    /// Waiters currently parked across all pending queries.
    pub fn parked_waiters(&self) -> usize {
        self.parked_waiters
    }

    /// Cached responses live in the current generation.
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// The cache generation (bumps on every invalidating passthrough).
    pub fn cache_generation(&self) -> u64 {
        self.cache.generation()
    }

    // -----------------------------------------------------------------
    // Admission.
    // -----------------------------------------------------------------

    /// Submits one request at virtual time `now`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeRefusal`] when the request is shed by the
    /// rate limiter, a full queue, or a full waiter table. Refusals are
    /// terminal: the request holds no slot and produces no later reply.
    pub fn submit(&mut self, now: u64, request: ServeRequest) -> Result<Submitted, ServeRefusal> {
        self.metrics.requests.inc();

        if let TokenGrant::Refused { retry_after_ticks } = self.buckets.take(request.client, now) {
            self.metrics.shed_rate_limited.inc();
            return Err(ServeRefusal {
                id: request.id,
                reason: RefusalReason::RateLimited { retry_after_ticks },
            });
        }

        let spec_key = request.query.cache_key();
        if let Some(cached) = self.cache.get(&spec_key) {
            self.metrics.cache_hits.inc();
            self.metrics.wait_ticks.observe(0);
            self.metrics
                .payload_bytes
                .observe(cached.payload.len() as u64);
            return Ok(Submitted::CacheHit(ServeResponse {
                id: request.id,
                certified_height: cached.certified_height,
                payload: cached.payload.clone(),
            }));
        }

        if let QuerySpec::HistoryOp { index, key, t1, t2 } = &request.query {
            if let Some(narrowed) = self.answer_from_covering_window(index, key, *t1, *t2) {
                self.metrics.window_hits.inc();
                self.metrics.wait_ticks.observe(0);
                self.metrics
                    .payload_bytes
                    .observe(narrowed.payload.len() as u64);
                // The narrowed answer is a first-class cache entry: the
                // next identical request hits it directly.
                self.cache.insert(spec_key, narrowed.clone());
                return Ok(Submitted::CacheHit(ServeResponse {
                    id: request.id,
                    certified_height: narrowed.certified_height,
                    payload: narrowed.payload,
                }));
            }
        }

        if self.parked_waiters >= self.config.max_waiters {
            self.metrics.shed_backlogged.inc();
            return Err(ServeRefusal {
                id: request.id,
                reason: RefusalReason::Backlogged {
                    waiters: self.parked_waiters as u64,
                },
            });
        }

        let waiter = Waiter {
            client: request.client,
            id: request.id,
            admitted_at: now,
        };
        if let Some(entry) = self.pending.get_mut(&spec_key) {
            entry.waiters.push(waiter);
            self.parked_waiters += 1;
            self.metrics.coalesce_hits.inc();
            self.record_occupancy();
            return Ok(Submitted::Enqueued { coalesced: true });
        }

        if self.pending.len() >= self.config.queue_capacity {
            self.metrics.shed_queue_full.inc();
            return Err(ServeRefusal {
                id: request.id,
                reason: RefusalReason::QueueFull {
                    depth: self.pending.len() as u64,
                },
            });
        }

        self.pending.insert(
            spec_key.clone(),
            PendingEntry {
                spec: request.query,
                waiters: vec![waiter],
            },
        );
        self.arrival_order.push_back(spec_key);
        self.parked_waiters += 1;
        self.record_occupancy();
        Ok(Submitted::Enqueued { coalesced: false })
    }

    /// Removes one parked waiter (a client abandoning its request — the
    /// slow-loris case). When the last waiter leaves, the whole pending
    /// entry is released immediately: its queue slot frees for admission
    /// and [`ServeFront::pump`] will never spend a backend call on it.
    /// Returns true when the waiter was found.
    pub fn cancel(&mut self, client: u64, id: u64) -> bool {
        let mut hit: Option<(Vec<u8>, bool)> = None;
        for (key, entry) in &mut self.pending {
            if let Some(pos) = entry
                .waiters
                .iter()
                .position(|w| w.client == client && w.id == id)
            {
                entry.waiters.remove(pos);
                hit = Some((key.clone(), entry.waiters.is_empty()));
                break;
            }
        }
        let Some((key, emptied)) = hit else {
            return false;
        };
        self.parked_waiters -= 1;
        if emptied {
            self.pending.remove(&key);
            self.metrics.waiters_released.inc();
        }
        self.record_occupancy();
        true
    }

    /// Removes every parked waiter belonging to `client` (a dropped
    /// connection). Returns how many waiters were removed.
    pub fn disconnect(&mut self, client: u64) -> usize {
        let mut removed = 0;
        let mut released: Vec<Vec<u8>> = Vec::new();
        for (key, entry) in &mut self.pending {
            let before = entry.waiters.len();
            entry.waiters.retain(|w| w.client != client);
            removed += before - entry.waiters.len();
            if before > 0 && entry.waiters.is_empty() {
                released.push(key.clone());
            }
        }
        self.parked_waiters -= removed;
        for key in released {
            self.pending.remove(&key);
            self.metrics.waiters_released.inc();
        }
        if removed > 0 {
            self.record_occupancy();
        }
        removed
    }

    // -----------------------------------------------------------------
    // Execution.
    // -----------------------------------------------------------------

    /// Executes up to `max_queries` distinct pending queries in arrival
    /// order at virtual time `now`, returning every reply to deliver:
    /// one [`ServeWire::Response`] per waiter of an answered query, or
    /// one [`ServeWire::Refusal`] per waiter of a query naming an
    /// unknown index.
    pub fn pump(&mut self, now: u64, max_queries: usize) -> Vec<(u64, ServeWire)> {
        let mut deliveries = Vec::new();
        let mut executed = 0;
        while executed < max_queries {
            let Some(key) = self.arrival_order.pop_front() else {
                break;
            };
            // Stale key: its entry was released by waiter abandonment.
            let Some(entry) = self.pending.remove(&key) else {
                continue;
            };
            self.parked_waiters -= entry.waiters.len();
            executed += 1;

            let (answer, took) = timed(|| self.execute(&entry.spec));
            self.metrics.serve_ns.record(took);
            match answer {
                Some(payload) => {
                    self.metrics.backend_calls.inc();
                    let certified_height = self.sp.index_height();
                    self.metrics.payload_bytes.observe(payload.len() as u64);
                    if let QuerySpec::HistoryOp {
                        index,
                        key: state_key,
                        t1,
                        t2,
                    } = &entry.spec
                    {
                        // A window record is only useful while its answer
                        // is cached; with no cache there is nothing to
                        // narrow from (and nothing to evict).
                        if self.config.cache_capacity > 0 {
                            if self.op_windows.len() >= self.config.cache_capacity {
                                self.op_windows.remove(0);
                            }
                            self.op_windows.push(OpWindow {
                                index: index.clone(),
                                key: *state_key,
                                t1: *t1,
                                t2: *t2,
                                spec_key: key.clone(),
                            });
                        }
                    }
                    self.cache.insert(
                        key,
                        ServeResponse {
                            id: 0,
                            certified_height,
                            payload: payload.clone(),
                        },
                    );
                    for waiter in &entry.waiters {
                        self.metrics
                            .wait_ticks
                            .observe(now.saturating_sub(waiter.admitted_at));
                        self.metrics.fanout.inc();
                        deliveries.push((
                            waiter.client,
                            ServeWire::Response(ServeResponse {
                                id: waiter.id,
                                certified_height,
                                payload: payload.clone(),
                            }),
                        ));
                    }
                }
                None => {
                    for waiter in &entry.waiters {
                        self.metrics.shed_unknown_index.inc();
                        deliveries.push((
                            waiter.client,
                            ServeWire::Refusal(ServeRefusal {
                                id: waiter.id,
                                reason: RefusalReason::UnknownIndex,
                            }),
                        ));
                    }
                }
            }
        }
        self.record_occupancy();
        deliveries
    }

    fn execute(&self, spec: &QuerySpec) -> Option<Vec<u8>> {
        match spec {
            QuerySpec::History { index, key, t1, t2 }
            | QuerySpec::HistoryOp { index, key, t1, t2 } => self
                .sp
                .serve_history(index, key, *t1, *t2)
                .map(|(results, proof)| encode_history_payload(&results, &proof)),
            QuerySpec::Keywords { index, keywords } => {
                let words: Vec<&str> = keywords.iter().map(String::as_str).collect();
                self.sp
                    .serve_keywords(index, &words)
                    .map(|(results, proof)| encode_keyword_payload(&results, &proof))
            }
            QuerySpec::Aggregate { index, key, t1, t2 }
            | QuerySpec::AggregateOp { index, key, t1, t2 } => self
                .sp
                .serve_aggregate(index, key, *t1, *t2)
                .map(|(aggregate, proof)| encode_aggregate_payload(&aggregate, &proof)),
        }
    }

    /// Answers a `HistoryOp` window from a cached answer whose window
    /// contains it, if one is alive in the current cache generation.
    /// Result rows are filtered to the requested window — byte-identical
    /// to what a direct backend call would return — and the covering
    /// proof is reused as-is (it verifies every sub-window).
    fn answer_from_covering_window(
        &self,
        index: &str,
        key: &StateKey,
        t1: u64,
        t2: u64,
    ) -> Option<ServeResponse> {
        for window in &self.op_windows {
            if window.index != index || window.key != *key || window.t1 > t1 || window.t2 < t2 {
                continue;
            }
            let Some(cached) = self.cache.get(&window.spec_key) else {
                continue; // evicted: the window record outlived its answer
            };
            let Ok((results, proof)) = decode_history_payload(&cached.payload) else {
                continue; // never narrow what we cannot re-derive
            };
            let narrowed: Vec<_> = results
                .into_iter()
                .filter(|(ts, _)| t1 <= *ts && *ts <= t2)
                .collect();
            return Some(ServeResponse {
                id: 0,
                certified_height: cached.certified_height,
                payload: encode_history_payload(&narrowed, &proof),
            });
        }
        None
    }

    // -----------------------------------------------------------------
    // Invalidating passthroughs.
    // -----------------------------------------------------------------

    /// Stages a block into the SP (advancing the index height) and
    /// invalidates the proof cache.
    ///
    /// # Errors
    ///
    /// Propagates block-validation errors; the cache is only invalidated
    /// when the block was actually applied.
    pub fn stage_block(&mut self, block: &Block) -> Result<Vec<IndexInput>, ChainError> {
        let inputs = self.sp.stage_block(block)?;
        self.invalidate();
        Ok(inputs)
    }

    /// Records certificates for the last staged block and invalidates
    /// the proof cache (the certified digests moved).
    pub fn record_certs(&mut self, certs: &[Certificate]) {
        self.sp.record_certs(certs);
        self.invalidate();
    }

    /// Advances the staged digests without certificates (pipelined mode)
    /// and invalidates the proof cache.
    pub fn advance_staged(&mut self) {
        self.sp.advance_staged();
        self.invalidate();
    }

    fn invalidate(&mut self) {
        self.cache.invalidate();
        // The window records index into the invalidated generation; a
        // survivor here would let a pre-advance proof answer a
        // post-advance query.
        self.op_windows.clear();
        self.metrics.invalidations.inc();
    }

    fn record_occupancy(&self) {
        let depth = i64::try_from(self.pending.len()).unwrap_or(i64::MAX);
        let waiters = i64::try_from(self.parked_waiters).unwrap_or(i64::MAX);
        self.metrics.queue_depth.set(depth);
        self.metrics.queue_high_water.record_max(depth);
        self.metrics.waiter_high_water.record_max(waiters);
    }
}
