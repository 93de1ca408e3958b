//! Admission control: per-client token buckets on the virtual clock.
//!
//! Buckets are integer-only and refill lazily — a client touched at tick
//! `t` gains `(t - last_refill) * tokens_per_tick` tokens capped at
//! `burst`, so a tick costs no work. All arithmetic is saturating: a client
//! parked for 2⁶⁴ ticks is simply full, never wrapped. No wall-clock
//! anywhere (`clippy.toml` bans it): ticks come from the caller, who reads
//! them off `SimNet::now` or any other deterministic clock.
//!
//! The table holds only buckets that have not refilled. A bucket whose
//! lazy refill has reached `burst` is exactly the bucket a new client
//! gets, so [`TokenBuckets::take`] drops every such bucket whenever a new
//! client's insert would grow the table, then reserves room for as many
//! inserts as buckets survived: each `take` costs amortized O(1), and the
//! table stays within a small multiple of the clients still throttled,
//! however many clients it has seen. With a zero `tokens_per_tick` a bucket
//! never refills, so no bucket that was drawn on is ever dropped.
//!
//! The table keeps one clock: the latest tick any `take` has seen, at
//! which every `take` is charged. A tick earlier than a sweep would
//! otherwise hand a dropped client a full bucket it would not have had.
//! Only a caller whose ticks go backwards sees the difference: no product
//! or benchmark caller of [`ServeFront::submit`](crate::ServeFront::submit)
//! does, and the two tests that do run at an unlimited rate, where every
//! take is granted whichever tick it is charged at.

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

impl Bucket {
    /// The tokens this bucket holds at tick `now`, refill included.
    fn refilled(&self, now: u64, limit: RateLimit) -> u64 {
        let elapsed = now.saturating_sub(self.last_refill);
        self.tokens
            .saturating_add(elapsed.saturating_mul(limit.tokens_per_tick))
            .min(limit.burst)
    }
}

/// Lazily-populated per-client token buckets.
#[derive(Debug)]
pub struct TokenBuckets {
    limit: RateLimit,
    /// The latest tick any `take` has seen: the tick every `take` is
    /// charged at.
    latest: u64,
    /// The buckets that have not refilled to `burst`: a full one is what
    /// a new client gets, so the next sweep drops it (under a zero
    /// `tokens_per_tick`, none that was drawn on ever is). std's SipHash
    /// on purpose: clients choose the ids it is keyed by, and no config
    /// bounds how many are throttled at once ([`crate::hasher`]).
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
            latest: 0,
            buckets: HashMap::new(),
        }
    }

    /// The shared policy.
    pub fn limit(&self) -> RateLimit {
        self.limit
    }

    /// Number of buckets the table holds: every client still throttled,
    /// plus those that have refilled since the last sweep.
    pub fn tracked_clients(&self) -> usize {
        self.buckets.len()
    }

    /// Takes one token for `client` at virtual time `now`, charged at the
    /// latest tick the table has seen if `now` is earlier.
    pub fn take(&mut self, client: u64, now: u64) -> TokenGrant {
        self.latest = self.latest.max(now);
        let (limit, now) = (self.limit, self.latest);
        if self.buckets.len() == self.buckets.capacity() && !self.buckets.contains_key(&client) {
            self.sweep(now);
        }
        let bucket = self.buckets.entry(client).or_insert(Bucket {
            tokens: limit.burst,
            last_refill: now,
        });
        bucket.tokens = bucket.refilled(now, limit);
        bucket.last_refill = now;
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

    /// Drops every bucket that has refilled to `burst` at `now`, then
    /// leaves room for as many inserts as buckets survived.
    fn sweep(&mut self, now: u64) {
        let limit = self.limit;
        self.buckets
            .retain(|_, bucket| bucket.refilled(now, limit) < limit.burst);
        self.buckets.reserve(self.buckets.len());
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

    /// The table before sweeping, written out again: it never forgets a
    /// client and charges each take at the tick it is given.
    struct NeverEvicting {
        limit: RateLimit,
        buckets: HashMap<u64, (u64, u64)>,
    }

    impl NeverEvicting {
        fn take(&mut self, client: u64, now: u64) -> TokenGrant {
            let limit = self.limit;
            let (tokens, last) = self.buckets.entry(client).or_insert((limit.burst, now));
            let elapsed = now.saturating_sub(*last);
            *tokens = tokens
                .saturating_add(elapsed.saturating_mul(limit.tokens_per_tick))
                .min(limit.burst);
            *last = (*last).max(now);
            if *tokens == 0 {
                let retry_after_ticks = if limit.tokens_per_tick == 0 {
                    u64::MAX
                } else {
                    1
                };
                return TokenGrant::Refused { retry_after_ticks };
            }
            *tokens -= 1;
            TokenGrant::Granted
        }
    }

    /// SplitMix64: the test's own seeded stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `serve_mixed`'s policy (`ServeLoadGen` against the default front).
    const SERVE_MIXED: RateLimit = RateLimit {
        tokens_per_tick: 2,
        burst: 8,
    };

    /// The policies the sweep must not change an answer under.
    fn policies() -> [RateLimit; 5] {
        let per_tick = |tokens_per_tick, burst| RateLimit {
            tokens_per_tick,
            burst,
        };
        [
            RateLimit::unlimited(),
            per_tick(0, 3),
            per_tick(1, 0),
            per_tick(1, 1),
            SERVE_MIXED,
        ]
    }

    /// Seeded takes by half hot clients (16, so they are throttled and
    /// refill) and half cold ones (drawn from 10⁵, so new clients keep
    /// filling the table and sweeps keep running), 64 takes a tick on
    /// average. With `replays`, one take in 16 names a tick up to 8 before
    /// the latest. Checks every grant against the never-evicting table
    /// given the latest tick so far: the one clock's rule.
    fn differential(limit: RateLimit, seed: u64, replays: bool) {
        let mut sweeping = TokenBuckets::new(limit);
        let mut reference = NeverEvicting {
            limit,
            buckets: HashMap::new(),
        };
        let (mut state, mut tick, mut latest) = (seed, 0u64, 0u64);
        for step in 0..20_000 {
            let draw = next(&mut state);
            let client = if draw & 1 == 0 {
                draw >> 1 & 15
            } else {
                (draw >> 1) % 100_000
            };
            if draw >> 58 == 0 {
                tick += 1 + (draw >> 40 & 3);
            }
            let now = if replays && draw >> 36 & 15 == 0 {
                tick.saturating_sub(draw >> 32 & 7)
            } else {
                tick
            };
            latest = latest.max(now);
            assert_eq!(
                sweeping.take(client, now),
                reference.take(client, latest),
                "{limit:?}, seed {seed}, step {step}: client {client} at tick {now}"
            );
        }
    }

    #[test]
    fn sweeping_changes_no_grant() {
        for limit in policies() {
            for seed in 0..8 {
                differential(limit, seed, false);
                differential(limit, seed, true);
            }
        }
    }

    /// `ServeLoadGen`'s shape: `BURST` requests on each burst tick, then
    /// `GAP_TICKS` quiet ticks, here by 10⁵ clients that each ask once.
    #[test]
    fn the_table_holds_the_throttled_clients_not_every_client_seen() {
        const BURST: u64 = 512;
        const GAP_TICKS: u64 = 3;
        let mut buckets = TokenBuckets::new(SERVE_MIXED);
        let mut most = 0;
        for client in 0..100_000u64 {
            let tick = client / BURST * (1 + GAP_TICKS);
            assert_eq!(buckets.take(client, tick), TokenGrant::Granted);
            most = most.max(buckets.tracked_clients());
        }
        // A one-request client refills one tick later, so a sweep keeps at
        // most the burst it runs in (under `BURST`) and reserves room for
        // as many again. The map's power-of-two sizing at most doubles a
        // reservation, and the tombstones a sweep leaves can make it grow
        // once more: 3 584 buckets here, against 100 000 without sweeps.
        assert!(most <= 8 * BURST as usize, "{most} buckets at once");
    }

    #[test]
    fn an_earlier_tick_is_charged_at_the_latest() {
        let mut buckets = TokenBuckets::new(RateLimit {
            tokens_per_tick: 1,
            burst: 4,
        });
        for _ in 0..4 {
            assert_eq!(buckets.take(1, 10), TokenGrant::Granted);
        }
        assert_eq!(buckets.take(2, 20), TokenGrant::Granted);
        // Charged at tick 12, client 1 would hold two tokens; at 20, four.
        for _ in 0..4 {
            assert_eq!(buckets.take(1, 12), TokenGrant::Granted);
        }
        assert_eq!(
            buckets.take(1, 12),
            TokenGrant::Refused {
                retry_after_ticks: 1
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
