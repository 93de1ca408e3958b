//! The metric registry and its handle types.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::snapshot::{BucketCount, HistogramSnapshot, Snapshot};

/// A [`Histogram`]'s bucket grid: sorted inclusive upper bounds. A value
/// `v` lands in the first bucket with `v <= bound`; values above every
/// bound land in the implicit overflow bucket.
///
/// A grid is a recipe: the bounds are only laid out when an enabled
/// registry registers the histogram, so handing one to a disabled
/// registry allocates nothing.
#[derive(Debug, Clone)]
pub struct Buckets(Grid);

#[derive(Debug, Clone)]
enum Grid {
    /// Sorted and deduplicated.
    Explicit(Vec<u64>),
    Exponential {
        first: u64,
        factor: u64,
        count: usize,
    },
    Linear {
        start: u64,
        step: u64,
        count: usize,
    },
}

impl Buckets {
    /// Buckets from explicit bounds (sorted and deduplicated). A test
    /// accessor: product histograms use the computed layouts.
    pub fn from_bounds(mut bounds: Vec<u64>) -> Self {
        bounds.sort_unstable();
        bounds.dedup();
        Buckets(Grid::Explicit(bounds))
    }

    /// `count` bounds starting at `first`, each `factor`× the previous.
    pub fn exponential(first: u64, factor: u64, count: usize) -> Self {
        Buckets(Grid::Exponential {
            first,
            factor,
            count,
        })
    }

    /// `count` bounds `start, start+step, start+2·step, …`.
    pub fn linear(start: u64, step: u64, count: usize) -> Self {
        Buckets(Grid::Linear { start, step, count })
    }

    /// Nanosecond latency grid: 1 µs to ~68 s in powers of four. The
    /// default for `*_ns` timers.
    pub fn latency() -> Self {
        Buckets::exponential(1_000, 4, 13)
    }

    /// Byte-size grid: 64 B to 4 GB in powers of four. The default for
    /// payload/proof/certificate size histograms.
    pub fn bytes() -> Self {
        Buckets::exponential(64, 4, 14)
    }

    /// The sorted inclusive upper bounds.
    pub fn bounds(&self) -> Vec<u64> {
        let mut bounds: Vec<u64> = match self.0 {
            Grid::Explicit(ref bounds) => return bounds.clone(),
            Grid::Exponential {
                first,
                factor,
                count,
            } => std::iter::successors(Some(first.max(1)), |bound| {
                Some(bound.saturating_mul(factor.max(2)))
            })
            .take(count)
            .collect(),
            Grid::Linear { start, step, count } => (0..count as u64)
                .map(|i| start.saturating_add(i.saturating_mul(step.max(1))))
                .collect(),
        };
        // Both grids only climb; saturation at `u64::MAX` repeats a bound.
        bounds.dedup();
        bounds
    }
}

/// A monotonically increasing `u64` metric. A handle from a disabled
/// registry (or a kind clash) is inert: it holds nothing, every update is
/// one branch, and it reads 0.
#[derive(Debug, Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 on an inert handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A settable signed metric (queue depths, residency levels). Inert, like
/// [`Counter`], when it comes from a disabled registry or a kind clash.
#[derive(Debug, Clone)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Records `value` if it exceeds the current value (high-water mark).
    pub fn record_max(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value (0 on an inert handle).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Sorted inclusive upper bounds; `counts` has one extra overflow slot.
    /// The observation count is the sum of `counts`.
    bounds: Box<[u64]>,
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new(buckets: &Buckets) -> Self {
        let bounds: Box<[u64]> = buckets.bounds().into();
        let counts: Box<[AtomicU64]> = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        HistogramCore {
            bounds,
            counts,
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<BucketCount> = self
            .bounds
            .iter()
            .map(|bound| Some(*bound))
            .chain([None])
            .zip(self.counts.iter())
            .map(|(le, slot)| BucketCount {
                le,
                count: slot.load(Ordering::Relaxed),
            })
            .collect();
        let count = buckets.iter().map(|bucket| bucket.count).sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: (count > 0).then(|| self.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.max.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// A fixed-bucket distribution metric. Observation is lock-free and
/// allocation-free: one linear scan over the (small, fixed) bound table
/// plus two relaxed atomic updates, and a third only when the value is a
/// new minimum or maximum. Inert, like [`Counter`], when it comes from a
/// disabled registry or a kind clash: no bucket table, and it reads 0.
#[derive(Debug, Clone)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let Some(core) = &self.0 else {
            return;
        };
        let idx = core
            .bounds
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(core.bounds.len());
        if let Some(slot) = core.counts.get(idx) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        core.sum.fetch_add(value, Ordering::Relaxed);
        // `min` only falls and `max` only rises, so a stale load can only
        // send a value to the read-modify-write that settles it.
        if value < core.min.load(Ordering::Relaxed) {
            core.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > core.max.load(Ordering::Relaxed) {
            core.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds (the `*_ns` timer convention).
    pub fn record(&self, duration: Duration) {
        self.observe(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Whether an observation lands anywhere: `false` on an inert handle,
    /// so a caller can skip work done only to observe, such as reading a
    /// clock.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Number of observations (0 on an inert handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |core| {
            core.counts
                .iter()
                .map(|slot| slot.load(Ordering::Relaxed))
                .sum()
        })
    }

    /// Sum of all observed values, wrapping at `u64::MAX` (0 on an inert
    /// handle).
    pub fn sum(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |core| core.sum.load(Ordering::Relaxed))
    }
}

/// A registered metric: always live, since only an enabled registry
/// registers anything.
#[derive(Debug)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

/// A shareable registry of named metrics.
///
/// Cloning is cheap (`Arc`); every clone sees the same metrics. Handles
/// returned by [`Registry::counter`] / [`Registry::gauge`] /
/// [`Registry::histogram`] stay valid for the registry's lifetime and are
/// the hot-path interface — hold them, don't re-look-up names per event.
///
/// Registering the same name twice returns a handle onto the *same*
/// metric (so independently wired subsystems can share a counter); a
/// name re-registered as a different kind yields an inert handle that
/// records nowhere and reads 0, rather than corrupting the original.
#[derive(Debug, Clone)]
pub struct Registry(Option<Arc<Mutex<BTreeMap<String, Metric>>>>);

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Registry(Some(Arc::new(Mutex::new(BTreeMap::new()))))
    }

    /// A disabled registry: holds nothing and exports nothing. Every
    /// handle it hands out is inert — an update is one branch, with no
    /// atomic and no allocation, and a read returns 0 — and neither
    /// building it nor registering on it allocates. The default for
    /// production paths that are not being measured.
    pub fn disabled() -> Self {
        Registry(None)
    }

    /// Whether this registry records and exports anything. A test
    /// accessor: instrumented code never branches on it (a disabled
    /// registry's handles are inert), and the obs tests pin the disabled
    /// state with it.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The cell registered under `name`, created by `create` on first
    /// registration. `None` — an inert handle — on a disabled registry, or
    /// when `name` holds a metric of another kind (`share` refuses it).
    fn register<T>(
        &self,
        name: &str,
        create: impl FnOnce() -> Metric,
        share: impl FnOnce(&Metric) -> Option<T>,
    ) -> Option<T> {
        let mut metrics = self.lock()?;
        share(metrics.entry(name.to_owned()).or_insert_with(create))
    }

    /// The metric table; `None` on a disabled registry.
    fn lock(&self) -> Option<MutexGuard<'_, BTreeMap<String, Metric>>> {
        // A poisoned lock only means another thread panicked mid-insert;
        // the map itself is still structurally sound — keep serving.
        let metrics = self.0.as_ref()?;
        Some(metrics.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Registers (or re-fetches) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.register(
            name,
            || Metric::Counter(Arc::default()),
            |metric| match metric {
                Metric::Counter(cell) => Some(Arc::clone(cell)),
                _ => None,
            },
        ))
    }

    /// Registers (or re-fetches) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.register(
            name,
            || Metric::Gauge(Arc::default()),
            |metric| match metric {
                Metric::Gauge(cell) => Some(Arc::clone(cell)),
                _ => None,
            },
        ))
    }

    /// Registers (or re-fetches) a histogram. `buckets` only takes effect
    /// on first registration; later calls return the existing histogram
    /// unchanged.
    pub fn histogram(&self, name: &str, buckets: Buckets) -> Histogram {
        Histogram(self.register(
            name,
            || Metric::Histogram(Arc::new(HistogramCore::new(&buckets))),
            |metric| match metric {
                Metric::Histogram(core) => Some(Arc::clone(core)),
                _ => None,
            },
        ))
    }

    /// A latency histogram with the default [`Buckets::latency`] grid.
    /// By convention timer names end in `_ns` (wall-clock fields, stripped
    /// by [`Snapshot::without_wall_clock`] for determinism comparisons).
    pub fn timer(&self, name: &str) -> Histogram {
        self.histogram(name, Buckets::latency())
    }

    /// A point-in-time copy of every metric, in name order.
    pub fn snapshot(&self) -> Snapshot {
        let mut snapshot = Snapshot::default();
        let Some(metrics) = self.lock() else {
            return snapshot;
        };
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(cell) => {
                    snapshot
                        .counters
                        .insert(name.clone(), cell.load(Ordering::Relaxed));
                }
                Metric::Gauge(cell) => {
                    snapshot
                        .gauges
                        .insert(name.clone(), cell.load(Ordering::Relaxed));
                }
                Metric::Histogram(core) => {
                    snapshot.histograms.insert(name.clone(), core.snapshot());
                }
            }
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let registry = Registry::new();
        let counter = registry.counter("a.count");
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);
        let gauge = registry.gauge("a.depth");
        gauge.set(7);
        gauge.sub(2);
        gauge.add(1);
        assert_eq!(gauge.get(), 6);
        gauge.record_max(3);
        assert_eq!(gauge.get(), 6, "record_max never lowers");
        gauge.record_max(11);
        assert_eq!(gauge.get(), 11);
    }

    #[test]
    fn same_name_shares_the_metric() {
        let registry = Registry::new();
        registry.counter("shared").add(2);
        registry.counter("shared").add(3);
        assert_eq!(registry.counter("shared").get(), 5);
    }

    #[test]
    fn kind_mismatch_detaches_instead_of_corrupting() {
        let registry = Registry::new();
        registry.counter("name").add(9);
        let gauge = registry.gauge("name");
        gauge.set(-1);
        assert_eq!(registry.counter("name").get(), 9);
        assert_eq!(registry.snapshot().gauges.get("name"), None);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let registry = Registry::new();
        let hist = registry.histogram("h", Buckets::from_bounds(vec![10, 100]));
        hist.observe(0); // first bucket
        hist.observe(10); // exactly on the bound → first bucket
        hist.observe(11); // second bucket
        hist.observe(100); // exactly on the bound → second bucket
        hist.observe(101); // overflow
        hist.observe(u64::MAX); // overflow
        let snap = registry
            .snapshot()
            .histograms
            .remove("h")
            .expect("registered");
        let counts: Vec<u64> = snap.buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![2, 2, 2]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min, Some(0));
        assert_eq!(snap.max, Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_has_no_min_max() {
        let registry = Registry::new();
        registry.timer("t_ns");
        let snap = registry
            .snapshot()
            .histograms
            .remove("t_ns")
            .expect("registered");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, None);
        assert_eq!(snap.max, None);
        assert!(snap.buckets.iter().all(|b| b.count == 0));
    }

    #[test]
    fn bucket_presets_are_sorted_and_nonempty() {
        for buckets in [
            Buckets::latency(),
            Buckets::bytes(),
            Buckets::exponential(1, 2, 8),
            Buckets::linear(0, 5, 4),
        ] {
            assert!(!buckets.bounds().is_empty());
            assert!(buckets.bounds().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn record_converts_durations_to_nanos() {
        let registry = Registry::new();
        let timer = registry.timer("t_ns");
        timer.record(Duration::from_micros(3));
        assert_eq!(timer.sum(), 3_000);
        assert_eq!(timer.count(), 1);
    }

    #[test]
    fn disabled_registry_exports_nothing() {
        let registry = Registry::disabled();
        let counter = registry.counter("x");
        counter.add(100); // harmless: inert
        registry.gauge("y").set(1);
        registry.timer("z_ns").observe(5);
        let snapshot = registry.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.histograms.is_empty());
        assert!(!registry.is_enabled());
    }

    #[test]
    fn inert_handles_read_zero_and_never_reach_a_snapshot() {
        let touch = |counter: &Counter, gauge: &Gauge, hist: &Histogram| {
            counter.add(41);
            counter.inc();
            gauge.set(-7);
            gauge.add(3);
            gauge.record_max(9);
            hist.observe(5);
            hist.record(Duration::from_micros(2));
            assert_eq!(
                (counter.get(), gauge.get(), hist.count(), hist.sum()),
                (0, 0, 0, 0)
            );
        };
        let disabled = Registry::disabled();
        touch(
            &disabled.counter("c"),
            &disabled.gauge("g"),
            &disabled.histogram("h", Buckets::bytes()),
        );
        assert_eq!(disabled.snapshot(), Snapshot::default());

        // Each name is taken by another kind first: every clash is inert.
        let registry = Registry::new();
        registry.gauge("c");
        registry.counter("g");
        registry.counter("h");
        touch(
            &registry.counter("c"),
            &registry.gauge("g"),
            &registry.timer("h"),
        );
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauges.get("c"), Some(&0));
        assert_eq!(snapshot.counters.get("g"), Some(&0));
        assert_eq!(snapshot.counters.get("h"), Some(&0));
        assert!(snapshot.histograms.is_empty());
    }

    #[test]
    fn handles_are_shared_across_clones_and_threads() {
        let registry = Registry::new();
        let counter = registry.counter("threads");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread finishes");
        }
        assert_eq!(registry.clone().counter("threads").get(), 4000);
    }
}
