//! Admission control: per-client token buckets on the virtual clock.
//!
//! Buckets are integer-only and refill lazily — a client touched at tick
//! `t` gains `(t - last_refill) * tokens_per_tick` tokens capped at
//! `burst`, so 10⁵ clients cost one `HashMap` entry each and zero work
//! per tick. All arithmetic is saturating: a client parked for 2⁶⁴ ticks
//! is simply full, never wrapped. No wall-clock anywhere (`clippy.toml`
//! bans it): ticks come from the caller, who reads them off `SimNet::now` or
//! any other deterministic clock.

use std::collections::HashMap;

/// Rate-limit policy applied to every client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Tokens granted per virtual tick.
    pub tokens_per_tick: u64,
    /// Bucket capacity: the largest burst a quiet client can send.
    pub burst: u64,
}

impl RateLimit {
    /// A policy that never refuses (useful for tests and as a default).
    pub fn unlimited() -> Self {
        RateLimit {
            tokens_per_tick: u64::MAX,
            burst: u64::MAX,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: u64,
    last_refill: u64,
}

/// Lazily-populated per-client token buckets.
#[derive(Debug)]
pub struct TokenBuckets {
    limit: RateLimit,
    /// std's SipHash on purpose: clients grow this table with the ids
    /// they claim, and no config bounds it ([`crate::hasher`]).
    buckets: HashMap<u64, Bucket>,
}

/// The outcome of asking for one admission token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenGrant {
    /// A token was consumed; the request proceeds.
    Granted,
    /// The bucket is empty; retry after this many virtual ticks.
    Refused {
        /// Ticks until one token accrues (never 0).
        retry_after_ticks: u64,
    },
}

impl TokenBuckets {
    /// Creates the bucket table under one shared policy.
    pub fn new(limit: RateLimit) -> Self {
        TokenBuckets {
            limit,
            buckets: HashMap::new(),
        }
    }

    /// The shared policy.
    pub fn limit(&self) -> RateLimit {
        self.limit
    }

    /// Number of clients that have ever been admitted or refused.
    pub fn tracked_clients(&self) -> usize {
        self.buckets.len()
    }

    /// Takes one token for `client` at virtual time `now`.
    pub fn take(&mut self, client: u64, now: u64) -> TokenGrant {
        let limit = self.limit;
        let bucket = self.buckets.entry(client).or_insert(Bucket {
            tokens: limit.burst,
            last_refill: now,
        });
        // Lazy refill since the last touch; clocks only move forward in
        // the simulation, but saturate anyway so a replayed past tick
        // cannot wrap.
        let elapsed = now.saturating_sub(bucket.last_refill);
        bucket.tokens = bucket
            .tokens
            .saturating_add(elapsed.saturating_mul(limit.tokens_per_tick))
            .min(limit.burst);
        bucket.last_refill = bucket.last_refill.max(now);
        if bucket.tokens == 0 {
            // Ticks until at least one token accrues. tokens_per_tick == 0
            // means "never": report the largest representable wait.
            let retry = if limit.tokens_per_tick == 0 {
                u64::MAX
            } else {
                1
            };
            return TokenGrant::Refused {
                retry_after_ticks: retry,
            };
        }
        bucket.tokens -= 1;
        TokenGrant::Granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_refusal_then_refill() {
        let mut buckets = TokenBuckets::new(RateLimit {
            tokens_per_tick: 1,
            burst: 3,
        });
        for _ in 0..3 {
            assert_eq!(buckets.take(7, 0), TokenGrant::Granted);
        }
        assert!(matches!(buckets.take(7, 0), TokenGrant::Refused { .. }));
        // Two ticks later the bucket has two tokens again.
        assert_eq!(buckets.take(7, 2), TokenGrant::Granted);
        assert_eq!(buckets.take(7, 2), TokenGrant::Granted);
        assert!(matches!(buckets.take(7, 2), TokenGrant::Refused { .. }));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut buckets = TokenBuckets::new(RateLimit {
            tokens_per_tick: 10,
            burst: 2,
        });
        assert_eq!(buckets.take(1, 0), TokenGrant::Granted);
        // A long quiet period still yields only `burst` tokens.
        assert_eq!(buckets.take(1, 1_000_000), TokenGrant::Granted);
        assert_eq!(buckets.take(1, 1_000_000), TokenGrant::Granted);
        assert!(matches!(
            buckets.take(1, 1_000_000),
            TokenGrant::Refused { .. }
        ));
    }

    #[test]
    fn clients_are_independent() {
        let mut buckets = TokenBuckets::new(RateLimit {
            tokens_per_tick: 0,
            burst: 1,
        });
        assert_eq!(buckets.take(1, 5), TokenGrant::Granted);
        assert_eq!(buckets.take(2, 5), TokenGrant::Granted);
        assert!(matches!(buckets.take(1, 5), TokenGrant::Refused { .. }));
        assert_eq!(buckets.tracked_clients(), 2);
    }

    #[test]
    fn zero_rate_reports_unbounded_retry() {
        let mut buckets = TokenBuckets::new(RateLimit {
            tokens_per_tick: 0,
            burst: 1,
        });
        assert_eq!(buckets.take(9, 0), TokenGrant::Granted);
        assert_eq!(
            buckets.take(9, 100),
            TokenGrant::Refused {
                retry_after_ticks: u64::MAX
            }
        );
    }

    #[test]
    fn unlimited_never_refuses() {
        let mut buckets = TokenBuckets::new(RateLimit::unlimited());
        for i in 0..10_000u64 {
            assert_eq!(buckets.take(3, 0), TokenGrant::Granted, "call {i}");
        }
    }
}
