//! The sharded certification fleet: parallel range certification with
//! recursive certificate aggregation.
//!
//! One enclave's sealing rate is the throughput ceiling of the sequential
//! CI. This module partitions the chain into contiguous height ranges
//! ([`ShardPlan`]), certifies every range in parallel on an independent
//! shard enclave (each producing [`RangeCert`]s via the `RangeSigGen`
//! ECall), and folds the ranges through an aggregator enclave
//! (`FoldRanges`) into the per-height [`Certificate`] stream clients
//! already expect.
//!
//! **Byte identity.** Block certificates sign raw header digests with a
//! deterministic (ed25519) key, and the previous certificate is validated
//! but never signed over — so an aggregator booted with the sequential
//! CI's platform/signing seeds emits certificates byte-identical to
//! sequential recursion at every height, for every shard count. Shard
//! enclaves boot with *derived* seeds: their keys never appear in client
//! artifacts, and a shard key cannot forge a final certificate.
//!
//! **Reorgs.** The fleet compares the offered chain against what it last
//! certified, keeps every range certificate entirely below the fork
//! point, and re-certifies only the affected suffix (with
//! generation-bumped shard seeds, since re-signing a height requires a
//! fresh shard identity). The old aggregator's sealed height watermark
//! makes it refuse stale-range folds (`shard.stale_range_refusals`); the
//! fleet then boots a fresh aggregator with the same canonical seeds —
//! signing-only work — and re-folds.
//!
//! **Crash recovery.** After every chunk a shard persists its range
//! certificate, height watermark, and sealed enclave state to the
//! configured [`Store`]; a killed shard restarts via
//! [`Enclave::restore`] with the same key and resumes *above* its durable
//! watermark instead of re-certifying the whole range.

use std::sync::{Arc, Mutex};

use dcert_chain::{Block, BlockHeader, ChainState, ConsensusEngine};
use dcert_obs::{Counter, Histogram, Registry};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::hash_concat;
use dcert_primitives::keys::Signature;
use dcert_sgx::cost::timed;
use dcert_sgx::{AttestationService, CostModel, Enclave, SealedBlob};
use dcert_store::Store;
use dcert_vm::Executor;

use crate::cert::Certificate;
use crate::ci::CertBreakdown;
use crate::engine::{build_links, Attested};
use crate::error::{CertError, ShardError};
use crate::messages::{EcallRequest, SplitRequest};
use crate::program::CertProgram;
use crate::range::RangeCert;

/// A shared handle to the fleet's durable store.
pub type SharedStore = Arc<Mutex<Box<dyn Store + Send>>>;

/// A contiguous, inclusive height range `[first, last]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeightRange {
    /// First height of the range.
    pub first: u64,
    /// Last height of the range.
    pub last: u64,
}

impl HeightRange {
    /// Number of heights the range covers.
    pub fn len(&self) -> u64 {
        self.last.saturating_sub(self.first).saturating_add(1)
    }

    /// Whether the range covers no heights (never true for a plan range).
    pub fn is_empty(&self) -> bool {
        self.last < self.first
    }
}

/// The fleet's partition of a height span into per-shard ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The per-shard ranges, ordered by height, jointly covering the
    /// requested span without gaps or overlap.
    pub ranges: Vec<HeightRange>,
}

impl ShardPlan {
    /// Splits `[first, last]` into at most `shards` contiguous ranges of
    /// near-equal size. All boundary arithmetic is checked: a span that
    /// would overflow `u64` yields a typed error, never a wrapped or
    /// truncated range.
    ///
    /// # Errors
    ///
    /// [`ShardError::ZeroShards`] for `shards == 0`,
    /// [`ShardError::EmptySpan`] for `last < first` or `first == 0`
    /// (height 0 is the genesis trust root, never certified), and
    /// [`ShardError::HeightOverflow`] if the span arithmetic overflows.
    pub fn partition(first: u64, last: u64, shards: usize) -> Result<ShardPlan, ShardError> {
        if shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        if first == 0 || last < first {
            return Err(ShardError::EmptySpan { first, last });
        }
        let span = last
            .checked_sub(first)
            .and_then(|w| w.checked_add(1))
            .ok_or(ShardError::HeightOverflow)?;
        let shards = u64::try_from(shards).map_err(|_| ShardError::HeightOverflow)?;
        let per = span.div_ceil(shards).max(1);
        let mut ranges = Vec::new();
        let mut cursor = first;
        while cursor <= last {
            // Saturation is exact here: if `cursor + per - 1` overflows
            // u64 it certainly exceeds `last`, so clamping to `last`
            // yields the correct final chunk end either way.
            let end = cursor.saturating_add(per - 1).min(last);
            ranges.push(HeightRange {
                first: cursor,
                last: end,
            });
            match end.checked_add(1) {
                Some(next) => cursor = next,
                None => break, // end == u64::MAX == last: span complete
            }
        }
        Ok(ShardPlan { ranges })
    }
}

/// One scheduled shard failure: the worker dies after completing
/// `after_chunks` chunks in a round. Count-based (never wall-clock), so a
/// chaos run replays bit-for-bit from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKill {
    /// Index of the shard to kill.
    pub shard: usize,
    /// Chunks the worker completes (and persists) before dying.
    pub after_chunks: usize,
}

/// A deterministic kill schedule for chaos drills. Each entry fires once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardFailurePlan {
    kills: Vec<ShardKill>,
}

impl ShardFailurePlan {
    /// No scheduled failures.
    pub fn none() -> Self {
        ShardFailurePlan::default()
    }

    /// Schedules `shard` to die after completing `after_chunks` chunks.
    #[must_use]
    pub fn kill(mut self, shard: usize, after_chunks: usize) -> Self {
        self.kills.push(ShardKill {
            shard,
            after_chunks,
        });
        self
    }

    /// Consumes the pending kill for `shard`, if any.
    fn take(&mut self, shard: usize) -> Option<usize> {
        let at = self.kills.iter().position(|k| k.shard == shard)?;
        Some(self.kills.remove(at).after_chunks)
    }
}

/// Configuration of a [`ShardedCertEngine`].
pub struct ShardFleetConfig {
    /// Number of parallel shard enclaves.
    pub shards: usize,
    /// Blocks per `RangeSigGen` ECall (and per durable checkpoint).
    pub chunk: u64,
    /// Metric sink for the `shard.*` family; disabled by default.
    pub registry: Registry,
    /// Durable store for range certificates, watermarks, and shard seals.
    /// Without one, a killed shard re-certifies its whole range.
    pub store: Option<SharedStore>,
    /// Deterministic kill schedule for chaos drills.
    pub failures: ShardFailurePlan,
}

impl ShardFleetConfig {
    /// A fleet of `shards` enclaves certifying `chunk` blocks per ECall,
    /// with no metrics, no store, and no scheduled failures.
    pub fn new(shards: usize, chunk: u64) -> Self {
        ShardFleetConfig {
            shards,
            chunk,
            registry: Registry::disabled(),
            store: None,
            failures: ShardFailurePlan::none(),
        }
    }
}

/// Handles for the `shard.*` metric family.
struct ShardMetrics {
    registry: Registry,
    ranges_certified: Counter,
    blocks_certified: Counter,
    chunks: Counter,
    kills: Counter,
    restarts: Counter,
    resumed_ranges: Counter,
    recert_blocks: Counter,
    stale_range_refusals: Counter,
    agg_folds: Counter,
    agg_signatures: Counter,
    agg_fresh_boots: Counter,
    seal_ns: Histogram,
    fold_ns: Histogram,
}

impl ShardMetrics {
    fn new(registry: &Registry) -> Self {
        ShardMetrics {
            registry: registry.clone(),
            ranges_certified: registry.counter("shard.ranges_certified"),
            blocks_certified: registry.counter("shard.blocks_certified"),
            chunks: registry.counter("shard.chunks"),
            kills: registry.counter("shard.kills"),
            restarts: registry.counter("shard.restarts"),
            resumed_ranges: registry.counter("shard.resumed_ranges"),
            recert_blocks: registry.counter("shard.recert_blocks"),
            stale_range_refusals: registry.counter("shard.stale_range_refusals"),
            agg_folds: registry.counter("shard.agg.folds"),
            agg_signatures: registry.counter("shard.agg.signatures"),
            agg_fresh_boots: registry.counter("shard.agg.fresh_boots"),
            seal_ns: registry.timer("shard.range_seal_ns"),
            fold_ns: registry.timer("shard.agg.fold_ns"),
        }
    }

    fn shard_blocks(&self, shard: usize) -> Counter {
        self.registry
            .counter(&format!("shard.{shard}.blocks_certified"))
    }
}

/// Engine-side state of one shard between worker rounds.
struct ShardSlot {
    range: HeightRange,
    /// Ranges certified so far (durable when a store is configured).
    done: Vec<RangeCert>,
    /// Next height this shard will certify.
    next: u64,
    kill_after: Option<usize>,
    boot: Option<Attested>,
}

/// What one worker round produced for one shard.
struct ShardRun {
    produced: Vec<RangeCert>,
    killed: bool,
}

/// The sharded certification engine.
///
/// Owns the aggregator enclave across calls (extension folds reuse its
/// watermark), the certified chain, and the folded range certificates;
/// shard enclaves are per-run. Construct with
/// [`ShardedCertEngine::new_deterministic`] and drive with
/// [`ShardedCertEngine::certify_chain`].
pub struct ShardedCertEngine {
    platform_seed: [u8; 32],
    signing_seed: [u8; 32],
    genesis: Block,
    genesis_state: ChainState,
    executor: Executor,
    consensus: Arc<dyn ConsensusEngine>,
    cost: CostModel,
    shards: usize,
    chunk: u64,
    store: Option<SharedStore>,
    failures: ShardFailurePlan,
    metrics: ShardMetrics,
    /// The certified chain, heights `1..=tip` (index `h - 1`).
    chain: Vec<Block>,
    /// Folded range certificates covering `1..=tip`.
    ranges: Vec<RangeCert>,
    /// The client-facing certificate stream, heights `1..=tip`.
    certs: Vec<Certificate>,
    aggregator: Option<Attested>,
    /// Bumped on every reorg: re-signing a height needs fresh shard
    /// identities (shard enclaves strictly refuse height regression).
    generation: u64,
}

impl std::fmt::Debug for ShardedCertEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCertEngine")
            .field("shards", &self.shards)
            .field("chunk", &self.chunk)
            .field("tip", &self.chain.len())
            .field("generation", &self.generation)
            .finish()
    }
}

impl ShardedCertEngine {
    /// Builds a fleet whose aggregator boots with the given canonical
    /// seeds — the same seeds a deterministic sequential CI would use, so
    /// the folded certificate stream is byte-identical to sequential
    /// output. Enclaves boot lazily, on the first
    /// [`ShardedCertEngine::certify_chain`].
    ///
    /// # Errors
    ///
    /// [`ShardError::ZeroShards`] / [`ShardError::ZeroChunk`] for a
    /// degenerate configuration.
    #[allow(clippy::too_many_arguments)] // mirrors the CI constructors plus the fleet config
    pub fn new_deterministic(
        platform_seed: [u8; 32],
        signing_seed: [u8; 32],
        genesis: &Block,
        genesis_state: ChainState,
        executor: Executor,
        consensus: Arc<dyn ConsensusEngine>,
        cost: CostModel,
        config: ShardFleetConfig,
    ) -> Result<Self, CertError> {
        if config.shards == 0 {
            return Err(ShardError::ZeroShards.into());
        }
        if config.chunk == 0 {
            return Err(ShardError::ZeroChunk.into());
        }
        let metrics = ShardMetrics::new(&config.registry);
        Ok(ShardedCertEngine {
            platform_seed,
            signing_seed,
            genesis: genesis.clone(),
            genesis_state,
            executor,
            consensus,
            cost,
            shards: config.shards,
            chunk: config.chunk,
            store: config.store,
            failures: config.failures,
            metrics,
            chain: Vec::new(),
            ranges: Vec::new(),
            certs: Vec::new(),
            aggregator: None,
            generation: 0,
        })
    }

    /// The height of the last certified block.
    pub fn tip_height(&self) -> u64 {
        u64::try_from(self.chain.len()).unwrap_or(u64::MAX)
    }

    /// The client-facing certificates issued so far, heights `1..=tip`.
    pub fn certificates(&self) -> &[Certificate] {
        &self.certs
    }

    /// Certifies the offered chain (blocks at heights `1..=n`, extending
    /// this engine's genesis) and returns the certificate for **every**
    /// height — byte-identical, at every height, to what a sequential
    /// deterministic CI with the same seeds would have produced.
    ///
    /// Incremental: unchanged prefixes are never re-certified. If the
    /// offered chain forks from the certified one, only the ranges at or
    /// above the fork are re-certified (fresh shard identities), the old
    /// aggregator's watermark refusal is counted, and a fresh aggregator
    /// re-folds — signing-only work over already-certified digests.
    ///
    /// # Errors
    ///
    /// Shard-plan and worker failures surface as [`CertError::Shard`];
    /// enclave-side refusals keep their typed variants.
    pub fn certify_chain(
        &mut self,
        blocks: &[Block],
        ias: &mut AttestationService,
    ) -> Result<Vec<Certificate>, CertError> {
        if blocks.is_empty() {
            return Err(CertError::EmptyRange);
        }
        for (at, block) in blocks.iter().enumerate() {
            let expected = u64::try_from(at)
                .ok()
                .and_then(|i| i.checked_add(1))
                .ok_or(CertError::HeightOverflow)?;
            if block.header.height != expected {
                return Err(ShardError::MissingBlock { height: expected }.into());
            }
        }
        let tip = u64::try_from(blocks.len()).map_err(|_| CertError::HeightOverflow)?;

        // Fork detection: longest shared prefix with the certified chain.
        let shared = self
            .chain
            .iter()
            .zip(blocks)
            .take_while(|(ours, offered)| ours.header.hash() == offered.header.hash())
            .count();
        let shared_height = u64::try_from(shared).map_err(|_| CertError::HeightOverflow)?;
        if shared == blocks.len() && shared == self.chain.len() {
            return Ok(self.certs.clone()); // nothing new
        }
        let reorg = shared < self.chain.len();

        // Keep every range entirely below the fork; re-certify the rest.
        let kept: Vec<RangeCert> = self
            .ranges
            .iter()
            .filter(|r| r.last <= shared_height)
            .cloned()
            .collect();
        let recert_first = kept.last().map_or(1, |r| r.last.saturating_add(1));
        if reorg {
            self.generation = self
                .generation
                .checked_add(1)
                .ok_or(CertError::HeightOverflow)?;
            let old_tip = u64::try_from(self.chain.len()).map_err(|_| CertError::HeightOverflow)?;
            self.metrics
                .recert_blocks
                .add(old_tip.saturating_sub(recert_first).saturating_add(1));
        }

        let new_ranges = if recert_first <= tip {
            self.run_fleet(blocks, recert_first, tip, ias)?
        } else {
            Vec::new()
        };

        // What to fold, from where, on which aggregator.
        let (agg, anchor, anchor_cert, ranges) = match self.chain.last() {
            // Pure extension: fold only the new ranges, anchored at the
            // certified tip, on the existing aggregator.
            Some(tip) if !reorg => {
                let agg = match self.aggregator.take() {
                    Some(agg) => agg,
                    None => self.boot_aggregator(ias)?,
                };
                (
                    agg,
                    tip.header.clone(),
                    self.certs.last().cloned(),
                    new_ranges,
                )
            }
            // First run or reorg: fold everything from genesis.
            _ => {
                let mut all_ranges = kept;
                all_ranges.extend(new_ranges);
                // After a reorg the old aggregator's sealed watermark sits
                // at the old tip: folding from genesis again is a height
                // regression it must refuse — the stale-range guard. Count
                // the refusal, then boot a fresh aggregator with the same
                // canonical seeds (same key, same client-visible identity).
                if let Some(old) = self.aggregator.take() {
                    if self
                        .fold(&old, &self.genesis.header, None, &all_ranges)
                        .is_err()
                    {
                        self.metrics.stale_range_refusals.inc();
                    }
                }
                let agg = self.boot_aggregator(ias)?;
                (agg, self.genesis.header.clone(), None, all_ranges)
            }
        };
        let first_signed = anchor
            .height
            .checked_add(1)
            .ok_or(CertError::HeightOverflow)?;
        let sigs = self.fold(&agg, &anchor, anchor_cert, &ranges)?;
        self.install(blocks, &ranges, &sigs, first_signed, &agg)?;
        self.aggregator = Some(agg);
        Ok(self.certs.clone())
    }

    /// Rebuilds the engine's certified view from a fold result:
    /// `sigs` covers heights `first_signed..=tip`, one per folded header
    /// digest, signed by `agg`.
    fn install(
        &mut self,
        blocks: &[Block],
        all_ranges: &[RangeCert],
        sigs: &[Signature],
        first_signed: u64,
        agg: &Attested,
    ) -> Result<(), CertError> {
        let keep = usize::try_from(first_signed.saturating_sub(1))
            .map_err(|_| CertError::HeightOverflow)?;
        self.certs.truncate(keep);
        for (at, sig) in sigs.iter().enumerate() {
            let height = u64::try_from(at)
                .ok()
                .and_then(|i| i.checked_add(first_signed))
                .ok_or(CertError::HeightOverflow)?;
            let at_index =
                usize::try_from(height.saturating_sub(1)).map_err(|_| CertError::HeightOverflow)?;
            let block = blocks
                .get(at_index)
                .ok_or(ShardError::MissingBlock { height })?;
            self.certs.push(agg.certificate(block.header.hash(), *sig));
        }
        self.chain = blocks.to_vec();
        let mut ranges = self
            .ranges
            .iter()
            .filter(|r| r.last < first_signed)
            .cloned()
            .collect::<Vec<_>>();
        ranges.extend(
            all_ranges
                .iter()
                .filter(|r| r.first >= first_signed)
                .cloned(),
        );
        self.ranges = ranges;
        Ok(())
    }

    /// Runs the shard workers over `[first, last]`, including kill/restart
    /// rounds, and returns the produced range certificates ordered by
    /// height.
    fn run_fleet(
        &mut self,
        blocks: &[Block],
        first: u64,
        last: u64,
        ias: &mut AttestationService,
    ) -> Result<Vec<RangeCert>, CertError> {
        let plan = ShardPlan::partition(first, last, self.shards)?;
        let mut slots: Vec<ShardSlot> = Vec::with_capacity(plan.ranges.len());
        for (shard, range) in plan.ranges.iter().enumerate() {
            slots.push(ShardSlot {
                range: *range,
                done: Vec::new(),
                next: range.first,
                kill_after: self.failures.take(shard),
                boot: Some(self.boot_shard(shard, ias)?),
            });
        }

        loop {
            // One parallel round over every unfinished shard.
            let mut rounds: Vec<(usize, Result<ShardRun, ShardError>)> = Vec::new();
            let pending: Vec<(usize, HeightRange, u64, Option<usize>, Attested)> = slots
                .iter_mut()
                .enumerate()
                .filter(|(_, slot)| slot.next <= slot.range.last)
                .map(|(shard, slot)| {
                    let boot = slot.boot.take().ok_or(ShardError::Worker {
                        shard,
                        reason: "shard enclave not booted".to_owned(),
                    })?;
                    Ok((shard, slot.range, slot.next, slot.kill_after, boot))
                })
                .collect::<Result<_, ShardError>>()?;
            if pending.is_empty() {
                break;
            }
            let ctx = WorkerCtx {
                blocks,
                genesis_header: &self.genesis.header,
                genesis_state: &self.genesis_state,
                executor: &self.executor,
                chunk: self.chunk,
                store: self.store.clone(),
                generation: self.generation,
                metrics: &self.metrics,
            };
            std::thread::scope(|scope| {
                let joins: Vec<_> = pending
                    .into_iter()
                    .map(|(shard, range, start, kill_after, boot)| {
                        let ctx = &ctx;
                        let worker = scope.spawn(move || {
                            run_shard_worker(shard, range, start, kill_after, boot, ctx)
                        });
                        (shard, worker)
                    })
                    .collect();
                for (shard, join) in joins {
                    let outcome = join.join().unwrap_or_else(|_| {
                        Err(ShardError::Worker {
                            shard,
                            reason: "worker thread panicked".to_owned(),
                        })
                    });
                    rounds.push((shard, outcome));
                }
            });

            let mut any_killed = false;
            for (shard, outcome) in rounds {
                let run = outcome?;
                let slot = slots
                    .get_mut(shard)
                    .ok_or(CertError::Shard(ShardError::Worker {
                        shard,
                        reason: "shard slot missing".to_owned(),
                    }))?;
                if run.killed {
                    any_killed = true;
                    self.metrics.kills.inc();
                    slot.kill_after = None;
                    self.restart_shard(shard, slot, ias)?;
                } else {
                    slot.done.extend(run.produced);
                    slot.next = slot.range.last.saturating_add(1);
                    slot.boot = None;
                }
            }
            if !any_killed && slots.iter().all(|s| s.next > s.range.last) {
                break;
            }
        }

        let mut out: Vec<RangeCert> = slots.into_iter().flat_map(|s| s.done).collect();
        out.sort_by_key(|r| r.first);
        Ok(out)
    }

    /// Restarts a killed shard: with a store, restore the sealed enclave
    /// (same key, watermark intact) and resume above the durable
    /// watermark; without one, boot fresh and re-certify the whole range.
    fn restart_shard(
        &mut self,
        shard: usize,
        slot: &mut ShardSlot,
        ias: &mut AttestationService,
    ) -> Result<(), CertError> {
        self.metrics.restarts.inc();
        slot.done.clear();
        slot.next = slot.range.first;
        if let Some(store) = self.store.clone() {
            let generation = self.generation;
            let (watermark, seal) = {
                let guard = lock_store(&store);
                let watermark = guard
                    .head(&watermark_key(generation, shard))
                    .and_then(|bytes| u64::decode_all(&bytes).ok());
                let seal = guard
                    .head(&seal_key(generation, shard))
                    .and_then(|bytes| SealedBlob::decode_all(&bytes).ok());
                (watermark, seal)
            };
            if let (Some(watermark), Some(seal)) = (watermark, seal) {
                if watermark >= slot.range.first {
                    // Re-read the durable ranges below the watermark.
                    let mut resumed = Vec::new();
                    let mut cursor = slot.range.first;
                    let guard = lock_store(&store);
                    while cursor <= watermark {
                        let Some(range) = guard
                            .head(&range_key(generation, cursor))
                            .and_then(|bytes| RangeCert::decode_all(&bytes).ok())
                        else {
                            break;
                        };
                        let next = range.last.saturating_add(1);
                        resumed.push(range);
                        cursor = next;
                    }
                    drop(guard);
                    if cursor > watermark {
                        // The full prefix is durable: restore and resume.
                        let program = self.make_program(ias);
                        let platform =
                            self.shard_seed(b"dcert-shard-platform", &self.platform_seed, shard);
                        let enclave = Enclave::restore(program, self.cost, platform, &seal)?;
                        let boot = Attested::boot(enclave, ias)?;
                        self.metrics
                            .resumed_ranges
                            .add(u64::try_from(resumed.len()).unwrap_or(u64::MAX));
                        slot.done = resumed;
                        slot.next = watermark.saturating_add(1);
                        slot.boot = Some(boot);
                        return Ok(());
                    }
                }
            }
        }
        // No durable progress: fresh boot, full re-certification.
        slot.boot = Some(self.boot_shard(shard, ias)?);
        Ok(())
    }

    /// The trusted program every fleet enclave runs — identical chain
    /// semantics (and therefore measurement) to the sequential CI's.
    fn make_program(&self, ias: &AttestationService) -> CertProgram {
        CertProgram::new(
            self.genesis.hash(),
            ias.public_key(),
            self.executor.clone(),
            self.consensus.clone(),
            Vec::new(),
        )
    }

    /// Launches, instruments and attests one fleet enclave on the given
    /// seeds.
    fn boot(
        &self,
        platform_seed: [u8; 32],
        signing_seed: [u8; 32],
        ias: &mut AttestationService,
    ) -> Result<Attested, CertError> {
        let program = self.make_program(ias).with_signing_seed(signing_seed);
        let enclave = Enclave::launch_with_platform_seed(program, self.cost, platform_seed);
        if self.metrics.registry.is_enabled() {
            enclave.attach_obs(&self.metrics.registry);
        }
        Attested::boot(enclave, ias)
    }

    /// The seed a shard enclave derives from `base`: unique to
    /// `(shard, generation)`, so a shard key can never stand in for the
    /// aggregator in a client artifact, and a reorg's generation bump gives
    /// re-certification a fresh identity.
    fn shard_seed(&self, domain: &[u8], base: &[u8; 32], shard: usize) -> [u8; 32] {
        derive_seed(domain, base, shard, self.generation)
    }

    /// Boots and attests one shard enclave on derived seeds.
    fn boot_shard(
        &self,
        shard: usize,
        ias: &mut AttestationService,
    ) -> Result<Attested, CertError> {
        let platform = self.shard_seed(b"dcert-shard-platform", &self.platform_seed, shard);
        let signing = self.shard_seed(b"dcert-shard-signing", &self.signing_seed, shard);
        self.boot(platform, signing, ias)
    }

    /// Boots the aggregator with the fleet's *canonical* seeds — the same
    /// identity a deterministic sequential CI would have, which is exactly
    /// why the folded certificates come out byte-identical.
    fn boot_aggregator(&self, ias: &mut AttestationService) -> Result<Attested, CertError> {
        self.metrics.agg_fresh_boots.inc();
        self.boot(self.platform_seed, self.signing_seed, ias)
    }

    /// One `FoldRanges` ECall: verify, chain, and sign `ranges` from
    /// `anchor` inside the aggregator enclave.
    fn fold(
        &self,
        agg: &Attested,
        anchor: &BlockHeader,
        anchor_cert: Option<Certificate>,
        ranges: &[RangeCert],
    ) -> Result<Vec<Signature>, CertError> {
        let request = EcallRequest::FoldRanges {
            anchor: anchor.clone(),
            anchor_cert,
            ranges: ranges.to_vec(),
        };
        let (result, took) =
            timed(|| agg.sign_each(&request.to_encoded_bytes(), &mut CertBreakdown::default()));
        self.metrics.fold_ns.record(took);
        let sigs = result?;
        self.metrics.agg_folds.inc();
        self.metrics
            .agg_signatures
            .add(u64::try_from(sigs.len()).unwrap_or(u64::MAX));
        Ok(sigs)
    }
}

/// Shared (read-only) context every worker in a round borrows.
struct WorkerCtx<'a> {
    blocks: &'a [Block],
    genesis_header: &'a BlockHeader,
    genesis_state: &'a ChainState,
    executor: &'a Executor,
    chunk: u64,
    store: Option<SharedStore>,
    generation: u64,
    metrics: &'a ShardMetrics,
}

/// One shard worker: replay the untrusted prefix, then certify the
/// shard's span chunk by chunk — links built by the same pre-processing
/// the sequential batch path uses, one `RangeSigGen` ECall per chunk, and
/// (with a store) one durable checkpoint per chunk.
fn run_shard_worker(
    shard: usize,
    range: HeightRange,
    start: u64,
    kill_after: Option<usize>,
    boot: Attested,
    ctx: &WorkerCtx<'_>,
) -> Result<ShardRun, ShardError> {
    // Untrusted prefix replay: execute (no proofs, no enclave) up to the
    // anchor. The enclave re-validates everything from the anchor on.
    let mut state = ctx.genesis_state.clone();
    let prefix = blocks_for(ctx.blocks, 1, start.saturating_sub(1))?;
    for block in prefix {
        let calls: Vec<dcert_vm::Call> = block.txs.iter().map(|tx| tx.call.clone()).collect();
        let execution = ctx.executor.execute_block(&state, &calls);
        state.apply_writes(execution.writes.iter());
    }
    let mut anchor = if start <= 1 {
        ctx.genesis_header.clone()
    } else {
        prefix
            .last()
            .map(|b| b.header.clone())
            .ok_or(ShardError::MissingBlock {
                height: start.saturating_sub(1),
            })?
    };

    let worker_error = |error: CertError| ShardError::Worker {
        shard,
        reason: match error {
            CertError::EnclaveRejected(reason) => reason,
            other => other.to_string(),
        },
    };
    let shard_blocks = ctx.metrics.shard_blocks(shard);
    let mut produced = Vec::new();
    let mut chunks_done = 0usize;
    let mut cursor = start;
    while cursor <= range.last {
        if kill_after == Some(chunks_done) {
            return Ok(ShardRun {
                produced,
                killed: true,
            });
        }
        let chunk_last = cursor
            .checked_add(ctx.chunk.saturating_sub(1))
            .ok_or(ShardError::HeightOverflow)?
            .min(range.last);
        let chunk_blocks = blocks_for(ctx.blocks, cursor, chunk_last)?;
        // A range chunk is a batch under another tag with no spliced
        // certificate: same link builder, same dispatch.
        let mut breakdown = CertBreakdown::default();
        let links = build_links(
            ctx.executor,
            &mut state,
            &anchor,
            chunk_blocks,
            &mut breakdown,
        )
        .map_err(worker_error)?;
        let (result, took) = timed(|| {
            let request = SplitRequest::range_sig_gen(&anchor, &links).joined();
            boot.sign(&request, &mut breakdown)
        });
        ctx.metrics.seal_ns.record(took);
        let range_cert = RangeCert {
            pk_range: boot.pk_enc,
            report: boot.report.clone(),
            anchor_digest: anchor.hash(),
            first: cursor,
            last: chunk_last,
            header_digests: links.iter().map(|l| l.block.header.hash()).collect(),
            signature: result.map_err(worker_error)?,
        };
        if let Some(store) = &ctx.store {
            let mut guard = lock_store(store);
            let heads = [
                (
                    range_key(ctx.generation, cursor),
                    range_cert.to_encoded_bytes(),
                ),
                (
                    watermark_key(ctx.generation, shard),
                    chunk_last.to_encoded_bytes(),
                ),
                (
                    seal_key(ctx.generation, shard),
                    boot.enclave.seal_state().to_encoded_bytes(),
                ),
            ];
            for (key, value) in heads {
                guard
                    .put_head(&key, value)
                    .map_err(|e| ShardError::Store(e.to_string()))?;
            }
            guard.sync().map_err(|e| ShardError::Store(e.to_string()))?;
        }
        anchor = chunk_blocks
            .last()
            .map(|b| b.header.clone())
            .ok_or(ShardError::MissingBlock { height: chunk_last })?;
        let certified = u64::try_from(range_cert.header_digests.len()).unwrap_or(u64::MAX);
        ctx.metrics.ranges_certified.inc();
        ctx.metrics.chunks.inc();
        ctx.metrics.blocks_certified.add(certified);
        shard_blocks.add(certified);
        produced.push(range_cert);
        chunks_done = chunks_done.saturating_add(1);
        cursor = chunk_last.saturating_add(1);
    }
    Ok(ShardRun {
        produced,
        killed: false,
    })
}

/// The blocks at heights `first..=last` (1-based) of the offered chain.
fn blocks_for(blocks: &[Block], first: u64, last: u64) -> Result<&[Block], ShardError> {
    if last < first {
        return Ok(&[]);
    }
    let lo = usize::try_from(first.saturating_sub(1)).map_err(|_| ShardError::HeightOverflow)?;
    let hi = usize::try_from(last).map_err(|_| ShardError::HeightOverflow)?;
    blocks
        .get(lo..hi)
        .ok_or(ShardError::MissingBlock { height: last })
}

/// Derives a per-shard seed: `H(domain ‖ base ‖ shard ‖ generation)`.
/// Distinct from the canonical seeds by construction, so shard keys can
/// never collide with the aggregator's client-visible identity.
fn derive_seed(domain: &[u8], base: &[u8; 32], shard: usize, generation: u64) -> [u8; 32] {
    let shard_be = u64::try_from(shard).unwrap_or(u64::MAX).to_be_bytes();
    let generation_be = generation.to_be_bytes();
    let digest = hash_concat([domain, base.as_slice(), &shard_be, &generation_be]);
    let mut seed = [0u8; 32];
    for (dst, src) in seed.iter_mut().zip(digest.as_bytes()) {
        *dst = *src;
    }
    seed
}

/// A poisoned store lock only means another worker panicked mid-write;
/// the store's own framing keeps torn writes recoverable.
fn lock_store(store: &SharedStore) -> std::sync::MutexGuard<'_, Box<dyn Store + Send>> {
    match store.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn range_key(generation: u64, first: u64) -> String {
    format!("shard.range.{generation}.{first:016x}")
}

fn watermark_key(generation: u64, shard: usize) -> String {
    format!("shard.wm.{generation}.{shard}")
}

fn seal_key(generation: u64, shard: usize) -> String {
    format!("shard.seal.{generation}.{shard}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_span_exactly() {
        for (first, last, shards) in [(1u64, 20u64, 4usize), (1, 7, 3), (5, 5, 8), (1, 100, 1)] {
            let plan = ShardPlan::partition(first, last, shards).unwrap();
            assert!(plan.ranges.len() <= shards);
            assert_eq!(plan.ranges.first().unwrap().first, first);
            assert_eq!(plan.ranges.last().unwrap().last, last);
            for window in plan.ranges.windows(2) {
                assert_eq!(window[0].last + 1, window[1].first, "gap or overlap");
            }
            let total: u64 = plan.ranges.iter().map(HeightRange::len).sum();
            assert_eq!(total, last - first + 1);
        }
    }

    #[test]
    fn partition_balances_ranges() {
        let plan = ShardPlan::partition(1, 20, 4).unwrap();
        assert_eq!(plan.ranges.len(), 4);
        for range in &plan.ranges {
            assert_eq!(range.len(), 5);
        }
    }

    #[test]
    fn partition_rejects_degenerate_inputs() {
        assert_eq!(ShardPlan::partition(1, 10, 0), Err(ShardError::ZeroShards));
        assert_eq!(
            ShardPlan::partition(10, 5, 2),
            Err(ShardError::EmptySpan { first: 10, last: 5 })
        );
        assert_eq!(
            ShardPlan::partition(0, 5, 2),
            Err(ShardError::EmptySpan { first: 0, last: 5 })
        );
    }

    #[test]
    fn partition_near_u64_max_does_not_overflow() {
        // The span ends at u64::MAX: every boundary advance is checked, so
        // the plan terminates with the exact last height instead of
        // wrapping.
        let plan = ShardPlan::partition(u64::MAX - 9, u64::MAX, 4).unwrap();
        assert_eq!(plan.ranges.first().unwrap().first, u64::MAX - 9);
        assert_eq!(plan.ranges.last().unwrap().last, u64::MAX);
        let total: u64 = plan.ranges.iter().map(HeightRange::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn failure_plan_fires_once() {
        let mut plan = ShardFailurePlan::none().kill(2, 1);
        assert_eq!(plan.take(2), Some(1));
        assert_eq!(plan.take(2), None);
        assert_eq!(plan.take(0), None);
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let base = [7u8; 32];
        let a = derive_seed(b"dcert-shard-signing", &base, 0, 0);
        let b = derive_seed(b"dcert-shard-signing", &base, 1, 0);
        let c = derive_seed(b"dcert-shard-signing", &base, 0, 1);
        let d = derive_seed(b"dcert-shard-platform", &base, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, base);
    }
}
