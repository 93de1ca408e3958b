//! The serving front-end: one deterministic scheduler in front of the SP.
//!
//! [`ServeFront`] owns a [`ServiceProvider`] and turns the one-caller-
//! at-a-time `serve_*` methods into a multi-client admission pipeline:
//!
//! 1. **Admission** ([`ServeFront::submit`]): a per-client token bucket
//!    on the virtual clock sheds abusive clients, then the proof cache
//!    answers a query it holds *exactly* (same kind, index, key and
//!    window) without touching the queue, then the request
//!    either *coalesces* onto an identical in-flight query or claims a
//!    new slot in the fixed-capacity queue. Every shed is a typed
//!    [`ServeRefusal`] returned synchronously — never a silent drop.
//! 2. **Execution** ([`ServeFront::pump`]): the caller drains the queue
//!    at its own pace. Each distinct query costs exactly one backend
//!    call regardless of how many waiters coalesced onto it; the
//!    canonical payload is written once, into a scratch buffer the front
//!    reuses, and becomes one shared buffer of exactly its size (the one
//!    allocation of the answer's bytes), fanned out to every waiter and
//!    inserted into the cache without a copy.
//! 3. **Invalidation**: every answer comes from the SP's live indexes,
//!    which only [`ServeFront::stage_block`] and [`ServeFront::rewind`]
//!    move; each bumps the cache generation and clears it wholesale, so
//!    no proof from before a stage or a rewind can survive it by
//!    construction. [`ServeFront::advance`] settles the staged block's
//!    certificates and changes no answer.
//!
//! The front is intentionally synchronous and single-threaded: all
//! scheduling is driven by explicit virtual-clock ticks the caller reads
//! off `SimNet::now` (or any deterministic clock), which is what makes
//! the chaos suite's replay-stability assertions possible. The only
//! wall-clock measurement is the `serve.serve_ns` timer around backend
//! calls, taken through `dcert_sgx::cost::timed_into` (the workspace's
//! one sanctioned clock, read only when the timer records) and stripped
//! from replay comparisons by naming convention.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dcert_chain::{Block, ChainError};
use dcert_core::{Certificate, IndexInput};
use dcert_obs::Registry;
use dcert_query::{ServiceProvider, SpError};
use dcert_sgx::cost::timed_into;

use crate::admission::{RateLimit, TokenBuckets, TokenGrant};
use crate::cache::ProofCache;
use crate::hasher::FoldState;
use crate::metrics::ServeMetrics;
use crate::wire::{
    put_aggregate_payload, put_history_payload, put_keyword_payload, QuerySpec, RefusalReason,
    ServeRefusal, ServeRequest, ServeResponse, ServeWire,
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

/// The request scheduler. See the module docs for the pipeline shape.
#[derive(Debug)]
pub struct ServeFront {
    sp: ServiceProvider,
    config: ServeConfig,
    cache: ProofCache,
    buckets: TokenBuckets,
    /// Arrival order of pending specs. May contain stale specs whose
    /// entry was released by waiter abandonment; [`ServeFront::pump`]
    /// skips those.
    arrival_order: VecDeque<QuerySpec>,
    /// The waiters parked on each pending spec; at most
    /// `queue_capacity` entries, so keyed like the cache
    /// ([`crate::hasher`]).
    pending: HashMap<QuerySpec, Vec<Waiter>, FoldState>,
    parked_waiters: usize,
    /// The buffer every backend answer's payload is written into before
    /// it becomes the one shared `Arc<[u8]>`; reused across answers.
    scratch: Vec<u8>,
    metrics: ServeMetrics,
}

impl ServeFront {
    /// Wraps `sp` under `config` with inert metrics (call
    /// [`ServeFront::attach_obs`] to register `serve.*`).
    pub fn new(sp: ServiceProvider, config: ServeConfig) -> Self {
        let hasher = FoldState::new();
        ServeFront {
            sp,
            config,
            cache: ProofCache::new(config.cache_capacity, hasher),
            buckets: TokenBuckets::new(config.rate_limit),
            arrival_order: VecDeque::new(),
            pending: HashMap::with_hasher(hasher),
            parked_waiters: 0,
            scratch: Vec::new(),
            metrics: ServeMetrics::disabled(),
        }
    }

    /// Registers the `serve.*` metrics in `registry`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.metrics = ServeMetrics::register(registry);
    }

    /// The wrapped Service Provider (read-only: mutations must go
    /// through the passthroughs).
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

    /// Cached responses live in the current generation. A test accessor:
    /// the cache tests read what a stage or rewind left with it.
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// The cache generation (bumps on every [`ServeFront::stage_block`] and
    /// every [`ServeFront::rewind`] that takes a block back). A test
    /// accessor, as [`ServeFront::cached_entries`] is.
    pub fn cache_generation(&self) -> u64 {
        self.cache.generation()
    }

    // -----------------------------------------------------------------
    // Admission.
    // -----------------------------------------------------------------

    /// Submits one request at virtual time `now`.
    ///
    /// Admission checks run in one order: the client's token bucket, the
    /// proof cache, the waiter table, the queue. So a request refused
    /// [`RefusalReason::Backlogged`] or [`RefusalReason::QueueFull`] has
    /// already spent its admission token. That is the policy: a token
    /// meters what a client offers, not what the front accepts, so a
    /// client retrying into a saturated front is throttled like any other
    /// and cannot probe it for free.
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

        if let Some(cached) = self.cache.get(&request.query) {
            self.metrics.cache_hits.inc();
            self.metrics.wait_ticks.observe(0);
            self.metrics
                .payload_bytes
                .observe(cached.payload.len() as u64);
            return Ok(Submitted::CacheHit(ServeResponse {
                id: request.id,
                certified_height: cached.certified_height,
                payload: Arc::clone(&cached.payload),
            }));
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
        let depth = self.pending.len();
        let coalesced = match self.pending.entry(request.query) {
            Entry::Occupied(mut pending) => {
                pending.get_mut().push(waiter);
                self.metrics.coalesce_hits.inc();
                true
            }
            Entry::Vacant(_) if depth >= self.config.queue_capacity => {
                self.metrics.shed_queue_full.inc();
                return Err(ServeRefusal {
                    id: request.id,
                    reason: RefusalReason::QueueFull {
                        depth: depth as u64,
                    },
                });
            }
            Entry::Vacant(slot) => {
                self.arrival_order.push_back(slot.key().clone());
                slot.insert(vec![waiter]);
                false
            }
        };
        self.parked_waiters += 1;
        self.record_occupancy();
        Ok(Submitted::Enqueued { coalesced })
    }

    /// Removes one parked waiter (a client abandoning its request — the
    /// slow-loris case). When the last waiter leaves, the whole pending
    /// entry is released immediately: its queue slot frees for admission
    /// and [`ServeFront::pump`] will never spend a backend call on it.
    /// A client that reuses `id` across pending specs loses its waiter on
    /// the first-arrived one: the search walks arrival order, never the
    /// table's, whose order follows the front's seeds. Returns true when
    /// the waiter was found.
    pub fn cancel(&mut self, client: u64, id: u64) -> bool {
        let pending = &mut self.pending;
        let emptied = self.arrival_order.iter().find_map(|spec| {
            let waiters = pending.get_mut(spec)?;
            let pos = waiters
                .iter()
                .position(|w| w.client == client && w.id == id)?;
            waiters.remove(pos);
            let emptied = waiters.is_empty();
            if emptied {
                pending.remove(spec);
            }
            Some(emptied)
        });
        let Some(emptied) = emptied else {
            return false;
        };
        self.parked_waiters -= 1;
        if emptied {
            self.metrics.waiters_released.inc();
        }
        self.record_occupancy();
        true
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
            let Some(spec) = self.arrival_order.pop_front() else {
                break;
            };
            // Stale spec: its entry was released by waiter abandonment.
            let Some(waiters) = self.pending.remove(&spec) else {
                continue;
            };
            self.parked_waiters -= waiters.len();
            executed += 1;

            let answered = timed_into(&self.metrics.serve_ns, || {
                put_answer(&self.sp, &spec, &mut self.scratch)
            });
            match answered {
                Some(()) => {
                    self.metrics.backend_calls.inc();
                    let payload: Arc<[u8]> = Arc::from(self.scratch.as_slice());
                    let certified_height = self.sp.height();
                    self.metrics.payload_bytes.observe(payload.len() as u64);
                    self.cache.insert(
                        spec,
                        ServeResponse {
                            id: 0,
                            certified_height,
                            payload: Arc::clone(&payload),
                        },
                    );
                    for waiter in &waiters {
                        self.metrics
                            .wait_ticks
                            .observe(now.saturating_sub(waiter.admitted_at));
                        self.metrics.fanout.inc();
                        deliveries.push((
                            waiter.client,
                            ServeWire::Response(ServeResponse {
                                id: waiter.id,
                                certified_height,
                                payload: Arc::clone(&payload),
                            }),
                        ));
                    }
                }
                None => {
                    for waiter in &waiters {
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

    // -----------------------------------------------------------------
    // Chain-advancing passthroughs.
    // -----------------------------------------------------------------

    /// Stages a block into the SP (moving the live indexes every answer
    /// comes from, and the index height) and invalidates the proof cache.
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

    /// Takes back the staged block ([`ServiceProvider::rewind`]) — what
    /// the front does when the CI refuses it — and, if there was one,
    /// invalidates the proof cache: an answer cached since the stage came
    /// from indexes that no longer hold. Returns whether a block was
    /// taken back.
    pub fn rewind(&mut self) -> bool {
        let rewound = self.sp.rewind();
        if rewound {
            self.invalidate();
        }
        rewound
    }

    /// Settles the staged block ([`ServiceProvider::advance`]). No answer
    /// changes — only a stage moves the indexes — so the cache stays.
    pub fn advance(&mut self, certs: Option<&[Certificate]>) -> Result<(), SpError> {
        self.sp.advance(certs)
    }

    /// Compatibility name `benchmark/driver` calls; leaves at ROADMAP
    /// item 4(c).
    pub fn record_certs(&mut self, certs: &[Certificate]) -> Result<(), SpError> {
        self.advance(Some(certs))
    }

    /// Compatibility name `benchmark/driver` calls; leaves at ROADMAP
    /// item 4(c).
    pub fn advance_staged(&mut self) -> Result<(), SpError> {
        self.advance(None)
    }

    fn invalidate(&mut self) {
        self.cache.invalidate();
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

/// Answers `spec` from `sp`, writing its canonical payload into `out`
/// (emptied first); `None`, with `out` empty, when no index of that name
/// is registered.
fn put_answer(sp: &ServiceProvider, spec: &QuerySpec, out: &mut Vec<u8>) -> Option<()> {
    out.clear();
    match spec {
        QuerySpec::History { index, key, t1, t2 } | QuerySpec::HistoryOp { index, key, t1, t2 } => {
            let (results, proof) = sp.serve_history(index, key, *t1, *t2)?;
            put_history_payload(&results, &proof, out);
        }
        QuerySpec::Keywords { index, keywords } => {
            let words: Vec<&str> = keywords.iter().map(String::as_str).collect();
            let (results, proof) = sp.serve_keywords(index, &words)?;
            put_keyword_payload(&results, &proof, out);
        }
        QuerySpec::Aggregate { index, key, t1, t2 }
        | QuerySpec::AggregateOp { index, key, t1, t2 } => {
            let (aggregate, proof) = sp.serve_aggregate(index, key, *t1, *t2)?;
            put_aggregate_payload(&aggregate, &proof, out);
        }
    }
    Some(())
}
