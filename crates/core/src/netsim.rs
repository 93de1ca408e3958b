//! Seeded, deterministic fault injection for the certification network.
//!
//! The paper's CI/SP/client roles assume certificates travel over a real
//! network, which loses, reorders, duplicates, corrupts, and partitions
//! traffic. [`SimNet`] is a [`Transport`] that injects exactly those
//! faults — per delivery, driven by an explicit RNG seed and a **virtual
//! clock** (one tick per publish), so a failure schedule is a pure
//! function of `(seed, config, publish sequence)` and every run replays
//! bit-for-bit. The chaos suite (`tests/chaos_network.rs`) leans on this:
//! a failing case is reproduced by its seed alone.
//!
//! Fault model, applied independently per (message, endpoint):
//!
//! - **partition**: while a [`Partition`] window is active, deliveries to
//!   its endpoints are lost outright (real partitions drop traffic; the
//!   client-side resync path, not the network, recovers it),
//! - **drop**: lost with probability `drop_rate`,
//! - **duplicate**: delivered twice with probability `duplicate_rate`
//!   (the copies are delayed independently, so they may also reorder),
//! - **corrupt**: with probability `corrupt_rate` the message is
//!   re-encoded ([`NetMessage`]'s canonical wire format) with one random
//!   bit flipped. If the mangled bytes still frame-decode, the forged
//!   message is delivered — the client's certificate checks must reject
//!   it; if they don't decode, the receiver drops it as garbage,
//! - **delay/reorder**: each surviving delivery is postponed by
//!   `0..=reorder_window` ticks, so messages published later can arrive
//!   earlier.
//!
//! Pending deliveries flush as the clock advances; [`SimNet::heal`]
//! disables every fault and flushes the in-flight backlog — "the network
//! heals" — after which the convergence invariant must hold.
//!
//! To add a new fault type: extend [`FaultConfig`], draw its dice inside
//! `SimState::deliveries_for` (order matters — draws must stay in a fixed
//! sequence or seeds stop replaying), and count it in [`NetStats`].

use std::collections::BTreeMap;

use crossbeam::channel::{unbounded, Receiver, Sender};
use dcert_obs::{Counter, Gauge, Registry};
use parking_lot::Mutex;

use dcert_primitives::codec::{Decode, Encode};

use crate::network::{NetMessage, Transport};

/// A scheduled network partition, in virtual-clock ticks (one tick per
/// publish). While `start <= now < end`, deliveries to `endpoints`
/// (indices in join order) are lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// First tick of the partition window.
    pub start: u64,
    /// First tick after the window (exclusive).
    pub end: u64,
    /// Endpoints (join order) cut off during the window.
    pub endpoints: Vec<usize>,
}

impl Partition {
    fn cuts(&self, now: u64, endpoint: usize) -> bool {
        now >= self.start && now < self.end && self.endpoints.contains(&endpoint)
    }
}

/// Fault probabilities and windows for a [`SimNet`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a delivery is silently lost.
    pub drop_rate: f64,
    /// Probability a delivery arrives twice.
    pub duplicate_rate: f64,
    /// Probability a delivery has one wire bit flipped.
    pub corrupt_rate: f64,
    /// Maximum extra ticks a delivery may be postponed (0 = in-order).
    pub reorder_window: u64,
    /// Scheduled partition windows.
    pub partitions: Vec<Partition>,
}

impl FaultConfig {
    /// No faults at all — a `SimNet` with this config behaves like
    /// [`Gossip`](crate::network::Gossip).
    pub fn lossless() -> Self {
        FaultConfig {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            corrupt_rate: 0.0,
            reorder_window: 0,
            partitions: Vec::new(),
        }
    }

    /// The chaos suite's default fault rates: 5% loss, reorder window 4.
    pub fn default_chaos() -> Self {
        FaultConfig {
            drop_rate: 0.05,
            duplicate_rate: 0.02,
            corrupt_rate: 0.0,
            reorder_window: 4,
            partitions: Vec::new(),
        }
    }
}

/// What the simulator did, for assertions and replay diagnostics. Two
/// runs with the same `(seed, config, publish sequence)` produce equal
/// stats — the determinism oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages published into the simulator.
    pub published: u64,
    /// Per-(message, endpoint) delivery attempts — one per endpoint
    /// joined at publish time, before any fault dice. The anchor of the
    /// conservation law [`NetStats::conserves_deliveries`] checks.
    pub attempted: u64,
    /// Per-endpoint deliveries that reached a live channel.
    pub delivered: u64,
    /// Deliveries that came due after their endpoint hung up (the channel
    /// was dropped) — scheduled, never received by anyone.
    pub undeliverable: u64,
    /// Deliveries lost to `drop_rate`.
    pub dropped: u64,
    /// Extra deliveries created by `duplicate_rate`.
    pub duplicated: u64,
    /// Deliveries with a bit flipped that still decoded (and were
    /// delivered as forged messages).
    pub corrupted: u64,
    /// Deliveries whose flipped bit broke the framing (receiver dropped
    /// them as malformed).
    pub garbled: u64,
    /// Deliveries postponed by at least one tick.
    pub delayed: u64,
    /// Deliveries lost to an active partition window.
    pub partitioned: u64,
}

impl NetStats {
    /// The delivery conservation law: every attempt is accounted for
    /// exactly once. Attempts survive into scheduled copies (plus one
    /// extra per duplication) unless they were partitioned, dropped, or
    /// garbled; every scheduled copy is eventually delivered,
    /// undeliverable, or still in flight (`in_flight` =
    /// [`SimNet::in_flight`] at the moment these stats were read).
    ///
    /// `tests/chaos_network.rs` pins this as a property over arbitrary
    /// fault schedules; it is what makes [`NetStats`] a trustworthy
    /// replay oracle rather than a pile of independent counters.
    pub fn conserves_deliveries(&self, in_flight: u64) -> bool {
        self.delivered + self.undeliverable + in_flight
            == self.attempted + self.duplicated - self.partitioned - self.dropped - self.garbled
    }
}

/// A small, self-contained deterministic RNG (SplitMix64 stream): the
/// fault schedule must be stable across platforms and dependency
/// versions, so the simulator does not borrow `rand`'s generators.
#[derive(Debug, Clone)]
struct SimRng(u64);

impl SimRng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixpoint without disturbing other seeds.
        SimRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound]`.
    fn next_upto(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % (bound + 1)
        }
    }
}

/// One scheduled delivery: which endpoint gets which bytes at which tick.
struct Delivery {
    endpoint: usize,
    message: NetMessage,
}

/// Registry handles mirroring [`NetStats`] (see [`SimNet::attach_obs`]).
struct NetObs {
    published: Counter,
    attempted: Counter,
    delivered: Counter,
    undeliverable: Counter,
    dropped: Counter,
    duplicated: Counter,
    corrupted: Counter,
    garbled: Counter,
    delayed: Counter,
    partitioned: Counter,
    in_flight: Gauge,
}

impl NetObs {
    fn register(registry: &Registry) -> Self {
        NetObs {
            published: registry.counter("net.published"),
            attempted: registry.counter("net.attempted"),
            delivered: registry.counter("net.delivered"),
            undeliverable: registry.counter("net.undeliverable"),
            dropped: registry.counter("net.dropped"),
            duplicated: registry.counter("net.duplicated"),
            corrupted: registry.counter("net.corrupted"),
            garbled: registry.counter("net.garbled"),
            delayed: registry.counter("net.delayed"),
            partitioned: registry.counter("net.partitioned"),
            in_flight: registry.gauge("net.in_flight"),
        }
    }
}

struct SimState {
    rng: SimRng,
    config: FaultConfig,
    /// Virtual clock: ticks once per publish.
    now: u64,
    /// Monotone tie-breaker so same-tick deliveries keep a stable order.
    next_id: u64,
    /// Pending deliveries keyed by (due tick, id).
    pending: BTreeMap<(u64, u64), Delivery>,
    endpoints: Vec<Sender<NetMessage>>,
    stats: NetStats,
    obs: Option<NetObs>,
    /// [`NetStats`] as of the last registry sync; the next sync exports
    /// the delta, so the registry counters equal the stats exactly.
    obs_synced: NetStats,
}

impl SimState {
    /// Rolls the fault dice for one (message, endpoint) pair and returns
    /// the deliveries to schedule (0 = lost, 2 = duplicated). Dice order
    /// is part of the replay contract — do not reorder the draws.
    fn deliveries_for(&mut self, message: &NetMessage, endpoint: usize) -> Vec<(u64, NetMessage)> {
        let now = self.now;
        if self.config.partitions.iter().any(|p| p.cuts(now, endpoint)) {
            self.stats.partitioned += 1;
            return Vec::new();
        }
        if self.config.drop_rate > 0.0 && self.rng.next_f64() < self.config.drop_rate {
            self.stats.dropped += 1;
            return Vec::new();
        }
        let copies = if self.config.duplicate_rate > 0.0
            && self.rng.next_f64() < self.config.duplicate_rate
        {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let mut out = Vec::with_capacity(copies);
        for _ in 0..copies {
            let payload = if self.config.corrupt_rate > 0.0
                && self.rng.next_f64() < self.config.corrupt_rate
            {
                match self.corrupt(message) {
                    Some(mangled) => {
                        self.stats.corrupted += 1;
                        mangled
                    }
                    None => {
                        self.stats.garbled += 1;
                        continue;
                    }
                }
            } else {
                message.clone()
            };
            let delay = self.rng.next_upto(self.config.reorder_window);
            if delay > 0 {
                self.stats.delayed += 1;
            }
            out.push((now + delay, payload));
        }
        out
    }

    /// Flips one random bit of the message's wire encoding. Returns the
    /// re-decoded forgery, or `None` if the mangled bytes no longer frame
    /// (the receiver's codec rejects them — counted as garbled).
    fn corrupt(&mut self, message: &NetMessage) -> Option<NetMessage> {
        let mut bytes = message.to_encoded_bytes();
        if bytes.is_empty() {
            return None;
        }
        let bit = self.rng.next_upto((bytes.len() as u64) * 8 - 1);
        if let Some(byte) = bytes.get_mut((bit / 8) as usize) {
            *byte ^= 1 << (bit % 8);
        }
        NetMessage::decode_all(&bytes).ok()
    }

    /// The single delivery path: every scheduled copy that comes due goes
    /// through here and lands in exactly one of `delivered` /
    /// `undeliverable`. (Historically `flush_due` and `flush_all` each
    /// counted deliveries themselves — and neither counted the send-failed
    /// case, so copies to a hung-up endpoint silently vanished from the
    /// books and no conservation law could hold.)
    fn deliver(&mut self, delivery: Delivery) {
        if self
            .endpoints
            .get(delivery.endpoint)
            .is_some_and(|ep| ep.send(delivery.message).is_ok())
        {
            self.stats.delivered += 1;
        } else {
            self.stats.undeliverable += 1;
        }
    }

    /// Delivers every pending message due at or before the current tick.
    fn flush_due(&mut self) {
        let later = self.pending.split_off(&(self.now + 1, 0));
        for (_, delivery) in std::mem::replace(&mut self.pending, later) {
            self.deliver(delivery);
        }
    }

    /// Delivers everything still in flight, regardless of due tick.
    fn flush_all(&mut self) {
        for (_, delivery) in std::mem::take(&mut self.pending) {
            self.deliver(delivery);
        }
    }

    /// Exports the stats delta since the last sync into the attached
    /// registry (no-op when none is attached). Called at the end of every
    /// public entry point, under the same lock as the mutation, so the
    /// registry never lags the stats.
    fn sync_obs(&mut self) {
        if let Some(obs) = &self.obs {
            let cur = self.stats;
            let last = self.obs_synced;
            obs.published.add(cur.published - last.published);
            obs.attempted.add(cur.attempted - last.attempted);
            obs.delivered.add(cur.delivered - last.delivered);
            obs.undeliverable
                .add(cur.undeliverable - last.undeliverable);
            obs.dropped.add(cur.dropped - last.dropped);
            obs.duplicated.add(cur.duplicated - last.duplicated);
            obs.corrupted.add(cur.corrupted - last.corrupted);
            obs.garbled.add(cur.garbled - last.garbled);
            obs.delayed.add(cur.delayed - last.delayed);
            obs.partitioned.add(cur.partitioned - last.partitioned);
            obs.in_flight
                .set(i64::try_from(self.pending.len()).unwrap_or(i64::MAX));
            self.obs_synced = cur;
        }
    }
}

/// A deterministic fault-injecting broadcast network.
///
/// Like [`Gossip`](crate::network::Gossip), every published message is
/// offered to every endpoint — but each delivery rolls the seeded fault
/// dice first. All scheduling state sits behind one lock, so publishes
/// from a single thread (the pipeline's issuer thread) are a
/// deterministic sequence.
pub struct SimNet {
    seed: u64,
    state: Mutex<SimState>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("SimNet")
            .field("seed", &self.seed)
            .field("now", &state.now)
            .field("endpoints", &state.endpoints.len())
            .field("in_flight", &state.pending.len())
            .finish()
    }
}

impl SimNet {
    /// Creates a simulator with the given fault schedule seed.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        SimNet {
            seed,
            state: Mutex::new(SimState {
                rng: SimRng::new(seed),
                config,
                now: 0,
                next_id: 0,
                pending: BTreeMap::new(),
                endpoints: Vec::new(),
                stats: NetStats::default(),
                obs: None,
                obs_synced: NetStats::default(),
            }),
        }
    }

    /// Registers this simulator's counters (`net.*`) in `registry` and
    /// keeps them in lockstep with [`SimNet::stats`] from here on.
    /// Anything already counted is exported immediately.
    pub fn attach_obs(&self, registry: &Registry) {
        let mut state = self.state.lock();
        state.obs = Some(NetObs::register(registry));
        state.obs_synced = NetStats::default();
        state.sync_obs();
    }

    /// Deliveries scheduled but not yet due — the `in_flight` term of
    /// [`NetStats::conserves_deliveries`].
    pub fn in_flight(&self) -> u64 {
        self.state.lock().pending.len() as u64
    }

    /// The replay seed this simulator was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Counters so far (equal across replays of the same seed).
    pub fn stats(&self) -> NetStats {
        self.state.lock().stats
    }

    /// Advances the virtual clock without publishing, releasing deliveries
    /// that were delayed past the last publish.
    pub fn advance(&self, ticks: u64) {
        let mut state = self.state.lock();
        state.now += ticks;
        state.flush_due();
        state.sync_obs();
    }

    /// Heals the network: every fault is disabled (rates zeroed, partition
    /// windows cleared) and the in-flight backlog is delivered. From here
    /// on the simulator behaves losslessly — the precondition of the
    /// chaos suite's convergence invariant.
    pub fn heal(&self) {
        let mut state = self.state.lock();
        state.config = FaultConfig::lossless();
        state.flush_all();
        state.sync_obs();
    }

    /// Delivers everything in flight without disabling faults (a quiet
    /// period long enough for the reorder window to drain).
    pub fn flush(&self) {
        let mut state = self.state.lock();
        state.flush_all();
        state.sync_obs();
    }
}

impl Transport for SimNet {
    fn join(&self) -> Receiver<NetMessage> {
        let (tx, rx) = unbounded();
        self.state.lock().endpoints.push(tx);
        rx
    }

    /// Rolls the fault dice for every endpoint, schedules the surviving
    /// deliveries, ticks the virtual clock, and flushes everything due.
    /// Returns the number of deliveries scheduled (delayed deliveries
    /// count: they will arrive; dropped and partitioned ones do not), so
    /// `0` means the message reached no subscriber and the pipeline
    /// dead-letters it.
    fn publish(&self, message: NetMessage) -> usize {
        let mut state = self.state.lock();
        state.stats.published += 1;
        let mut scheduled = 0usize;
        for endpoint in 0..state.endpoints.len() {
            state.stats.attempted += 1;
            for (due, payload) in state.deliveries_for(&message, endpoint) {
                let id = state.next_id;
                state.next_id += 1;
                state.pending.insert(
                    (due, id),
                    Delivery {
                        endpoint,
                        message: payload,
                    },
                );
                scheduled += 1;
            }
        }
        state.now += 1;
        state.flush_due();
        state.sync_obs();
        scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_chain::{Block, BlockHeader};
    use dcert_primitives::hash::{Address, Hash};

    fn block_msg(height: u64) -> NetMessage {
        NetMessage::Block(Block {
            header: BlockHeader {
                height,
                prev_hash: Hash::ZERO,
                state_root: Hash::ZERO,
                tx_root: Hash::ZERO,
                timestamp: height,
                miner: Address::default(),
                consensus: ConsensusProof::Pow {
                    difficulty_bits: 0,
                    nonce: 0,
                },
            },
            txs: Vec::new(),
        })
    }

    fn drain_heights(rx: &Receiver<NetMessage>) -> Vec<u64> {
        let mut heights = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            heights.push(msg.height().expect("block message"));
        }
        heights
    }

    #[test]
    fn lossless_config_behaves_like_gossip() {
        let net = SimNet::new(7, FaultConfig::lossless());
        let rx = net.join();
        for height in 1..=20 {
            assert_eq!(net.publish(block_msg(height)), 1);
        }
        assert_eq!(drain_heights(&rx), (1..=20).collect::<Vec<_>>());
        let stats = net.stats();
        assert_eq!(stats.delivered, 20);
        assert_eq!(stats.dropped + stats.delayed + stats.duplicated, 0);
    }

    #[test]
    fn same_seed_replays_bit_for_bit() {
        let run = |seed: u64| {
            let net = SimNet::new(
                seed,
                FaultConfig {
                    drop_rate: 0.2,
                    duplicate_rate: 0.2,
                    corrupt_rate: 0.1,
                    reorder_window: 3,
                    partitions: vec![Partition {
                        start: 5,
                        end: 10,
                        endpoints: vec![0],
                    }],
                },
            );
            let rx = net.join();
            let _rx2 = net.join();
            for height in 1..=50 {
                net.publish(block_msg(height));
            }
            net.heal();
            (net.stats(), drain_heights(&rx))
        };
        let (stats_a, seq_a) = run(1234);
        let (stats_b, seq_b) = run(1234);
        assert_eq!(stats_a, stats_b);
        assert_eq!(seq_a, seq_b);
        // And a different seed yields a different schedule.
        let (stats_c, _) = run(1235);
        assert_ne!(stats_a, stats_c);
    }

    #[test]
    fn drops_lose_messages_until_healed() {
        let net = SimNet::new(
            99,
            FaultConfig {
                drop_rate: 1.0,
                ..FaultConfig::lossless()
            },
        );
        let rx = net.join();
        for height in 1..=10 {
            assert_eq!(net.publish(block_msg(height)), 0);
        }
        assert!(drain_heights(&rx).is_empty());
        assert_eq!(net.stats().dropped, 10);
        // Healing stops future losses but cannot resurrect dropped
        // messages — that is the resync path's job.
        net.heal();
        net.publish(block_msg(11));
        assert_eq!(drain_heights(&rx), vec![11]);
    }

    #[test]
    fn reorder_window_shuffles_but_preserves_content() {
        let net = SimNet::new(
            5,
            FaultConfig {
                reorder_window: 4,
                ..FaultConfig::lossless()
            },
        );
        let rx = net.join();
        for height in 1..=30 {
            net.publish(block_msg(height));
        }
        net.flush();
        let mut got = drain_heights(&rx);
        assert_ne!(got, (1..=30).collect::<Vec<_>>(), "seed 5 must reorder");
        got.sort_unstable();
        assert_eq!(got, (1..=30).collect::<Vec<_>>());
    }

    #[test]
    fn partition_cuts_only_its_endpoints_during_its_window() {
        let net = SimNet::new(
            1,
            FaultConfig {
                partitions: vec![Partition {
                    start: 3,
                    end: 6,
                    endpoints: vec![1],
                }],
                ..FaultConfig::lossless()
            },
        );
        let rx0 = net.join();
        let rx1 = net.join();
        for height in 1..=10 {
            net.publish(block_msg(height));
        }
        assert_eq!(drain_heights(&rx0), (1..=10).collect::<Vec<_>>());
        // Ticks 3..6 are publishes 4, 5, 6 (the clock starts at 0).
        assert_eq!(drain_heights(&rx1), vec![1, 2, 3, 7, 8, 9, 10]);
        assert_eq!(net.stats().partitioned, 3);
    }

    #[test]
    fn corruption_forges_or_garbles_but_never_passes_through() {
        let net = SimNet::new(
            42,
            FaultConfig {
                corrupt_rate: 1.0,
                ..FaultConfig::lossless()
            },
        );
        let rx = net.join();
        let original = block_msg(1);
        for _ in 0..40 {
            net.publish(original.clone());
        }
        let stats = net.stats();
        assert_eq!(stats.corrupted + stats.garbled, 40);
        let mut seen = 0;
        while let Ok(msg) = rx.try_recv() {
            assert_ne!(
                msg, original,
                "every delivery must differ from the original"
            );
            seen += 1;
        }
        assert_eq!(seen as u64, stats.corrupted);
    }

    #[test]
    fn conservation_law_holds_mid_flight_and_after_heal() {
        let net = SimNet::new(
            2024,
            FaultConfig {
                drop_rate: 0.2,
                duplicate_rate: 0.15,
                corrupt_rate: 0.1,
                reorder_window: 5,
                partitions: vec![Partition {
                    start: 2,
                    end: 8,
                    endpoints: vec![1],
                }],
            },
        );
        let _rx0 = net.join();
        let _rx1 = net.join();
        for height in 1..=60 {
            net.publish(block_msg(height));
            let stats = net.stats();
            assert!(
                stats.conserves_deliveries(net.in_flight()),
                "mid-flight at height {height}: {stats:?}, in_flight {}",
                net.in_flight()
            );
        }
        net.heal();
        assert_eq!(net.in_flight(), 0);
        let stats = net.stats();
        assert_eq!(stats.attempted, 120, "60 publishes × 2 endpoints");
        assert!(stats.conserves_deliveries(0), "after heal: {stats:?}");
    }

    #[test]
    fn hung_up_endpoint_counts_undeliverable_not_delivered() {
        let net = SimNet::new(3, FaultConfig::lossless());
        let rx = net.join();
        net.publish(block_msg(1));
        drop(rx);
        net.publish(block_msg(2));
        let stats = net.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.undeliverable, 1, "send to a dropped channel");
        assert!(stats.conserves_deliveries(net.in_flight()));
    }

    #[test]
    fn attached_registry_mirrors_stats() {
        let registry = dcert_obs::Registry::new();
        let net = SimNet::new(
            11,
            FaultConfig {
                drop_rate: 0.3,
                duplicate_rate: 0.2,
                reorder_window: 3,
                ..FaultConfig::lossless()
            },
        );
        net.attach_obs(&registry);
        let _rx = net.join();
        for height in 1..=40 {
            net.publish(block_msg(height));
        }
        net.heal();
        let stats = net.stats();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("net.published"), stats.published);
        assert_eq!(snapshot.counter("net.attempted"), stats.attempted);
        assert_eq!(snapshot.counter("net.delivered"), stats.delivered);
        assert_eq!(snapshot.counter("net.dropped"), stats.dropped);
        assert_eq!(snapshot.counter("net.duplicated"), stats.duplicated);
        assert_eq!(snapshot.counter("net.delayed"), stats.delayed);
        assert_eq!(snapshot.gauge("net.in_flight"), 0, "healed net is drained");
        assert!(stats.dropped > 0, "seed 11 at 30% must drop something");
    }

    #[test]
    fn duplicates_add_extra_deliveries() {
        let net = SimNet::new(
            17,
            FaultConfig {
                duplicate_rate: 1.0,
                ..FaultConfig::lossless()
            },
        );
        let rx = net.join();
        for height in 1..=5 {
            assert_eq!(net.publish(block_msg(height)), 2);
        }
        net.flush();
        let mut got = drain_heights(&rx);
        got.sort_unstable();
        assert_eq!(got, vec![1, 1, 2, 2, 3, 3, 4, 4, 5, 5]);
    }
}
