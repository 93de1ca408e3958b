//! `serve.*` metric handles.
//!
//! Everything except `serve.serve_ns` is deterministic for a fixed seed
//! and workload: counters count scheduling decisions the virtual clock
//! fully determines, `serve.wait_ticks` measures *simulated* queueing
//! delay, and the gauges track queue occupancy. `serve.serve_ns` is the
//! one wall-clock series (backend call duration via `dcert_sgx::cost`);
//! `Snapshot::without_wall_clock` strips it by the `_ns` naming
//! convention, so the replay suites compare the rest byte-for-byte.

use dcert_obs::{Buckets, Counter, Gauge, Histogram, Registry};

/// Registered handles for every serve metric.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Requests submitted (admitted or not).
    pub requests: Counter,
    /// Answered straight from the proof cache.
    pub cache_hits: Counter,
    /// Attached as waiters to an already-pending identical query.
    pub coalesce_hits: Counter,
    /// Backend `serve_*` calls actually executed.
    pub backend_calls: Counter,
    /// Responses fanned out to waiters (one per waiter, not per call).
    pub fanout: Counter,
    /// Typed refusals: queue at capacity.
    pub shed_queue_full: Counter,
    /// Typed refusals: client out of tokens.
    pub shed_rate_limited: Counter,
    /// Typed refusals: waiter table at capacity.
    pub shed_backlogged: Counter,
    /// Typed refusals: no such index (delivered at pump time).
    pub shed_unknown_index: Counter,
    /// Pending entries dropped because every waiter had abandoned them.
    pub waiters_released: Counter,
    /// `HistoryOp` queries answered by narrowing a cached covering window
    /// (no backend call, no new proof).
    pub window_hits: Counter,
    /// Cache invalidations (generation bumps).
    pub invalidations: Counter,
    /// Distinct queries pending right now (`_depth`: stripped from
    /// replay comparisons by convention, though it is deterministic
    /// here).
    pub queue_depth: Gauge,
    /// High-water mark of distinct pending queries.
    pub queue_high_water: Gauge,
    /// High-water mark of parked waiters.
    pub waiter_high_water: Gauge,
    /// Simulated ticks a request waited from admission to fanout.
    pub wait_ticks: Histogram,
    /// Canonical payload sizes served (hits and misses alike).
    pub payload_bytes: Histogram,
    /// Wall-clock backend serve time (stripped from replay comparisons).
    pub serve_ns: Histogram,
}

impl ServeMetrics {
    /// Registers every handle in `registry` (or hands out detached
    /// handles when given [`Registry::disabled`]).
    pub fn register(registry: &Registry) -> Self {
        ServeMetrics {
            requests: registry.counter("serve.requests"),
            cache_hits: registry.counter("serve.cache_hits"),
            coalesce_hits: registry.counter("serve.coalesce_hits"),
            backend_calls: registry.counter("serve.backend_calls"),
            fanout: registry.counter("serve.fanout"),
            shed_queue_full: registry.counter("serve.shed_queue_full"),
            shed_rate_limited: registry.counter("serve.shed_rate_limited"),
            shed_backlogged: registry.counter("serve.shed_backlogged"),
            shed_unknown_index: registry.counter("serve.shed_unknown_index"),
            waiters_released: registry.counter("serve.waiters_released"),
            window_hits: registry.counter("serve.window_hits"),
            invalidations: registry.counter("serve.invalidations"),
            queue_depth: registry.gauge("serve.queue_depth"),
            queue_high_water: registry.gauge("serve.queue_high_water"),
            waiter_high_water: registry.gauge("serve.waiter_high_water"),
            wait_ticks: registry.histogram("serve.wait_ticks", Buckets::exponential(1, 2, 16)),
            payload_bytes: registry.histogram("serve.payload_bytes", Buckets::bytes()),
            serve_ns: registry.timer("serve.serve_ns"),
        }
    }

    /// Detached handles: every update is a no-op.
    pub fn disabled() -> Self {
        Self::register(&Registry::disabled())
    }
}
