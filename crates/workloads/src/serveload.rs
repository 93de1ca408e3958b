//! Deterministic serving-load scenario: many clients, few hot keys.
//!
//! Generates the client-side arrival schedule the `dcert-serve` suites
//! and the `fig_serve` bench replay against a `ServeFront`:
//!
//! - **Zipfian keys** — queries from 10⁵ clients concentrate on a small
//!   hot set drawn from a precomputed Zipf CDF (exponent 1.1), the regime
//!   where coalescing and proof caching pay.
//! - **Bursty arrivals** — requests land in bursts of 512 on one virtual
//!   tick, separated by 3 ticks of quiet; a burst larger than the front's
//!   queue exercises typed shedding.
//! - **Slow-loris readers** — a configured fraction of requests is
//!   marked `abandon`: the client parks as a waiter and walks away
//!   before the pump, exercising the coalescing-slot release path.
//!
//! Everything is a pure function of the seed (`StdRng` + IEEE-754 CDF
//! arithmetic, no ambient clock or entropy), so two generators built
//! with the same seed and config emit byte-identical schedules — the
//! replay-stability assertions in `tests/serve_load.rs` depend on it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which query family a [`ServeEvent`] issues. The consumer maps this
/// plus the key index to a concrete `dcert-serve` `QuerySpec`.
/// [`ServeLoadGen`] emits the first three; the `Op` kinds are never drawn
/// and stay only as names `benchmark/driver` matches on (ROADMAP item
/// 4(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeQueryKind {
    /// Time-window history query.
    History,
    /// Conjunctive keyword query.
    Keywords,
    /// Window aggregation query.
    Aggregate,
    /// Alias of [`ServeQueryKind::History`].
    HistoryOp,
    /// Alias of [`ServeQueryKind::Aggregate`].
    AggregateOp,
}

/// One client arrival in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeEvent {
    /// Virtual tick the request arrives on.
    pub tick: u64,
    /// Submitting client id (uniform over the client population).
    pub client: u64,
    /// Query family.
    pub kind: ServeQueryKind,
    /// Zipfian-chosen hot-key index in `0..keyspace`.
    pub key: u64,
    /// Slow-loris marker: the client abandons this request before it is
    /// served (cancels its waiter after admission).
    pub abandon: bool,
}

/// Client population size.
const CLIENTS: u64 = 100_000;
/// Zipf exponent `s` (1.0 ≈ classic web-cache skew; larger = hotter).
const ZIPF_EXPONENT: f64 = 1.1;
/// Requests arriving on each burst tick.
const BURST: u64 = 512;
/// Quiet ticks between bursts.
const GAP_TICKS: u64 = 3;

/// Scenario shape. `Default` is the smoke-scale profile the CI job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeLoadConfig {
    /// Total requests to emit.
    pub requests: u64,
    /// Distinct hot keys.
    pub keyspace: u64,
    /// Per-mille of requests marked as slow-loris abandons.
    pub slow_loris_permille: u64,
}

impl Default for ServeLoadConfig {
    fn default() -> Self {
        ServeLoadConfig {
            requests: 50_000,
            keyspace: 256,
            slow_loris_permille: 20,
        }
    }
}

/// Iterator over the deterministic arrival schedule.
#[derive(Debug)]
pub struct ServeLoadGen {
    config: ServeLoadConfig,
    rng: StdRng,
    /// Cumulative Zipf distribution over `0..keyspace`, normalized to 1.
    cdf: Vec<f64>,
    issued: u64,
    tick: u64,
    in_burst: u64,
}

impl ServeLoadGen {
    /// Builds the schedule generator for `config` under `seed`.
    pub fn new(config: ServeLoadConfig, seed: u64) -> Self {
        let keyspace = usize::try_from(config.keyspace.max(1)).unwrap_or(usize::MAX);
        let mut weights = Vec::with_capacity(keyspace);
        let mut total = 0.0f64;
        for rank in 0..keyspace {
            let w = 1.0 / ((rank as f64) + 1.0).powf(ZIPF_EXPONENT);
            total += w;
            weights.push(total);
        }
        let cdf = weights.iter().map(|w| w / total).collect();
        ServeLoadGen {
            config,
            rng: StdRng::seed_from_u64(seed),
            cdf,
            issued: 0,
            tick: 0,
            in_burst: 0,
        }
    }

    /// The configured scenario shape.
    pub fn config(&self) -> ServeLoadConfig {
        self.config
    }

    /// Draws one key index from the Zipf CDF.
    fn zipf_key(&mut self) -> u64 {
        // Integer draw scaled to [0, 1): float-range sampling differs
        // across rand versions, a plain u64 draw does not.
        let u = (self.rng.gen_range(0..u64::MAX) as f64) / (u64::MAX as f64);
        // Binary search for the first CDF entry >= u.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) as u64
    }
}

impl Iterator for ServeLoadGen {
    type Item = ServeEvent;

    fn next(&mut self) -> Option<ServeEvent> {
        if self.issued >= self.config.requests {
            return None;
        }
        if self.in_burst >= BURST {
            self.in_burst = 0;
            self.tick += 1 + GAP_TICKS;
        }
        self.in_burst += 1;
        self.issued += 1;

        let client = self.rng.gen_range(0..CLIENTS);
        let key = self.zipf_key();
        let kind = match self.rng.gen_range(0..3u8) {
            0 => ServeQueryKind::History,
            1 => ServeQueryKind::Keywords,
            _ => ServeQueryKind::Aggregate,
        };
        let abandon = self.rng.gen_range(0..1000u64) < self.config.slow_loris_permille;
        Some(ServeEvent {
            tick: self.tick,
            client,
            kind,
            key,
            abandon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let config = ServeLoadConfig {
            requests: 2_000,
            ..ServeLoadConfig::default()
        };
        let a: Vec<ServeEvent> = ServeLoadGen::new(config, 42).collect();
        let b: Vec<ServeEvent> = ServeLoadGen::new(config, 42).collect();
        assert_eq!(a, b, "schedules are a pure function of the seed");
        let c: Vec<ServeEvent> = ServeLoadGen::new(config, 43).collect();
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn bursts_share_ticks_with_gaps_between() {
        let config = ServeLoadConfig {
            requests: 3 * BURST,
            ..ServeLoadConfig::default()
        };
        let events: Vec<ServeEvent> = ServeLoadGen::new(config, 7).collect();
        assert_eq!(events.len() as u64, 3 * BURST);
        for (at, burst) in events.chunks(BURST as usize).enumerate() {
            assert!(
                burst.iter().all(|e| e.tick == at as u64 * (GAP_TICKS + 1)),
                "burst {at} lands on one tick, gap + 1 after the last"
            );
        }
        assert!(events.iter().all(|e| e.client < CLIENTS));
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let config = ServeLoadConfig {
            requests: 10_000,
            keyspace: 100,
            ..ServeLoadConfig::default()
        };
        let events: Vec<ServeEvent> = ServeLoadGen::new(config, 1).collect();
        let hot = events.iter().filter(|e| e.key < 10).count();
        assert!(
            hot > events.len() / 2,
            "top-10 keys should draw most traffic, got {hot}/10000"
        );
        assert!(events.iter().all(|e| e.key < 100));
    }

    #[test]
    fn slow_loris_fraction_tracks_config() {
        let config = ServeLoadConfig {
            requests: 10_000,
            slow_loris_permille: 100,
            ..ServeLoadConfig::default()
        };
        let abandons = ServeLoadGen::new(config, 9).filter(|e| e.abandon).count();
        assert!(
            (500..1500).contains(&abandons),
            "~10% of 10k requests should abandon, got {abandons}"
        );
    }
}
