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
//! **Keys and byte identity.** Every fleet enclave launches on the fleet's
//! platform. The aggregator holds a sequential CI's key: that CI's sealed
//! key, restored, or on the replay path the CI's host seed. Block
//! certificates sign raw header digests with a deterministic (ed25519) key
//! and never sign over the previous certificate, so the folded stream is
//! byte-identical to that CI's at every height, for every shard count. A
//! shard's key is born on its `Init` ECall on every boot, so no host can
//! sign a range no enclave checked; it appears in no client artifact, and
//! the aggregator checks each range by its own report.
//!
//! **Chain view.** The fleet holds one genesis `FullNode`. A run clones it
//! once, replays the certified prefix below the span through
//! `FullNode::advance` (no proofs), and links every block of the span with
//! the step every driver takes (`engine::link_block`), in height order on
//! the calling thread, encoding each chunk's `RangeSigGen` request once.
//! All of it happens before any shard boots, so a chain the host refuses
//! (linkage, a write set that misses its state root) costs no ECall. A
//! shard thread only signs: one ECall and one checkpoint per chunk.
//!
//! **Reorgs.** The fleet compares the offered chain against the header
//! hashes its certificates carry, keeps every range certificate entirely
//! below the fork point, and re-certifies only the affected suffix on
//! freshly booted shards. It boots the aggregator again with the same key
//! and re-folds from genesis — signing-only work. That replays a key, and
//! gives the host nothing a fresh enclave with the same measurement would
//! not: clients trust the measurement (DESIGN.md §10).
//!
//! **Crash recovery.** A shard's checkpoint is its range certificates:
//! after every chunk it writes the chunk's [`RangeCert`] to the configured
//! [`Store`] and syncs. A killed shard always restarts the same way: it
//! keeps the longest prefix of its chunks whose durable certificate
//! certifies *that* chunk (same heights, anchor and header digests), boots
//! fresh with a new key, and signs the rest from the same encoded
//! requests; nothing is sequenced again. Without a store the prefix is
//! empty and the whole range is re-signed.

use std::sync::{Arc, Mutex};

use dcert_chain::{Block, BlockHeader, ChainState, ConsensusEngine, FullNode};
use dcert_obs::{Counter, Histogram, Registry};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::{Address, Hash};
use dcert_primitives::keys::Signature;
use dcert_sgx::cost::timed;
use dcert_sgx::{AttestationService, CostModel, Enclave, SealedBlob};
use dcert_store::Store;
use dcert_vm::Executor;

use crate::cert::Certificate;
use crate::ci::{cert_program, CertBreakdown};
use crate::engine::{link_block, unexpected_response, Attested, Undo};
use crate::error::{CertError, ShardError};
use crate::messages::EcallRequest;
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

/// One scheduled shard failure: the shard dies after completing
/// `after_chunks` chunks in a round. Count-based (never wall-clock), so a
/// chaos run replays bit-for-bit from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKill {
    /// Index of the shard to kill.
    pub shard: usize,
    /// Chunks the shard completes (and persists) before dying.
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
    /// Durable store for range certificates, the shards' only checkpoint.
    /// Without one, a killed shard re-signs its whole range.
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

/// One chunk of a shard's range as the host sequenced it: what its
/// [`RangeCert`] carries besides the signature, and its `RangeSigGen`
/// request, encoded once.
struct Chunk {
    first: u64,
    last: u64,
    anchor_digest: Hash,
    header_digests: Vec<Hash>,
    request: Vec<u8>,
}

impl Chunk {
    /// Whether `cert` certifies exactly this chunk as this run sequenced
    /// it — a certificate stored before a reorg under the same heights
    /// does not.
    fn certified_by(&self, cert: &RangeCert) -> bool {
        cert.first == self.first
            && cert.last == self.last
            && cert.anchor_digest == self.anchor_digest
            && cert.header_digests == self.header_digests
    }
}

/// One shard of a run: its chunks, the range certificates of the first
/// `done.len()` of them, and the enclave that signs the rest.
struct Shard {
    chunks: Vec<Chunk>,
    /// One per signed chunk, in order (durable when a store is configured).
    done: Vec<RangeCert>,
    /// The scheduled kill: it fires before the chunk at this index.
    kill_after: Option<usize>,
    boot: Attested,
}

impl Shard {
    fn finished(&self) -> bool {
        self.done.len() >= self.chunks.len()
    }

    /// The shard thread: signs each remaining chunk with one ECall and
    /// checkpoints it, until every chunk is signed or the scheduled kill
    /// fires (which leaves the shard unfinished).
    fn sign(&mut self, index: usize, fleet: &ShardedCertEngine) -> Result<(), CertError> {
        let metrics = &fleet.metrics;
        let shard_blocks = metrics.shard_blocks(index);
        while let Some(chunk) = self.chunks.get(self.done.len()) {
            if self.kill_after == Some(self.done.len()) {
                self.kill_after = None;
                return Ok(());
            }
            let (signed, took) = timed(|| {
                self.boot
                    .sign(&chunk.request, 1, &mut CertBreakdown::default())
            });
            metrics.seal_ns.record(took);
            let range_cert = RangeCert {
                pk_range: self.boot.pk_enc,
                report: self.boot.report.clone(),
                anchor_digest: chunk.anchor_digest,
                first: chunk.first,
                last: chunk.last,
                header_digests: chunk.header_digests.clone(),
                signature: signed?.pop().ok_or_else(unexpected_response)?,
            };
            if let Some(store) = &fleet.store {
                let mut guard = lock_store(store);
                guard
                    .put_head(&range_key(chunk.first), range_cert.to_encoded_bytes())
                    .map_err(ShardError::Store)?;
                guard.sync().map_err(ShardError::Store)?;
            }
            let certified = u64::try_from(chunk.header_digests.len()).unwrap_or(u64::MAX);
            metrics.ranges_certified.inc();
            metrics.chunks.inc();
            metrics.blocks_certified.add(certified);
            shard_blocks.add(certified);
            self.done.push(range_cert);
        }
        Ok(())
    }
}

/// The sharded certification engine.
///
/// Owns the aggregator enclave across calls (extension folds reuse its
/// watermark), the folded range certificates and the certificate stream,
/// whose header hashes are all it keeps of the certified chain; shard
/// enclaves are per-run. Construct with
/// [`ShardedCertEngine::from_sealed_key`] (or, to replay,
/// [`ShardedCertEngine::new_deterministic`]) and drive with
/// [`ShardedCertEngine::certify_chain`].
pub struct ShardedCertEngine {
    /// The platform every fleet enclave launches on.
    platform_seed: [u8; 32],
    aggregator_key: AggregatorKey,
    /// The chain view at genesis, which each run clones once.
    genesis: FullNode,
    cost: CostModel,
    shards: usize,
    chunk: u64,
    store: Option<SharedStore>,
    failures: ShardFailurePlan,
    metrics: ShardMetrics,
    /// Folded range certificates covering `1..=tip`.
    ranges: Vec<RangeCert>,
    /// The client-facing certificate stream, heights `1..=tip` (index
    /// `h - 1`); each carries the hash of the header it certifies.
    certs: Vec<Certificate>,
    aggregator: Option<Attested>,
}

impl std::fmt::Debug for ShardedCertEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCertEngine")
            .field("shards", &self.shards)
            .field("chunk", &self.chunk)
            .field("tip", &self.certs.len())
            .finish()
    }
}

/// Where the aggregator's key comes from: the one thing the two
/// constructors set differently.
enum AggregatorKey {
    /// The replay path's host seed.
    Seed([u8; 32]),
    /// A CI's key, sealed on the fleet's platform; every boot restores it.
    Sealed(SealedBlob),
}

impl ShardedCertEngine {
    /// Builds a fleet whose aggregator is the CI that sealed `sealed_key`
    /// ([`crate::CertificateIssuer::seal_enclave_key`]) on `platform_seed`,
    /// restored ([`Enclave::restore`]) on its first boot and after every
    /// reorg, so the folded stream is byte-identical to that CI's. Enclaves
    /// boot lazily, on the first [`ShardedCertEngine::certify_chain`].
    ///
    /// The blob must be sealed before its CI signed anything: a blob sealed
    /// at height `h > 0` restores that watermark, and the first
    /// `certify_chain` fails with [`CertError::HeightRegression`].
    ///
    /// # Errors
    ///
    /// As [`ShardedCertEngine::new_deterministic`]. A blob sealed on
    /// another platform fails the first `certify_chain`.
    #[allow(clippy::too_many_arguments)] // mirrors `new_deterministic`
    pub fn from_sealed_key(
        platform_seed: [u8; 32],
        sealed_key: &SealedBlob,
        genesis: &Block,
        genesis_state: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        cost: CostModel,
        config: ShardFleetConfig,
    ) -> Result<Self, CertError> {
        let key = AggregatorKey::Sealed(sealed_key.clone());
        let node = FullNode::new(genesis, genesis_state, executor, engine, Address::default());
        Self::with_key(platform_seed, key, node, cost, config)
    }

    /// The replay path: the aggregator key is drawn from `signing_seed`, as
    /// [`crate::CertificateIssuer::new_deterministic`]'s is.
    ///
    /// # Errors
    ///
    /// [`ShardError::ZeroShards`] / [`ShardError::ZeroChunk`] for a
    /// degenerate configuration.
    ///
    /// # Panics
    ///
    /// As [`FullNode::new`]: a genesis state that does not match the
    /// genesis header is a construction bug.
    #[allow(clippy::too_many_arguments)] // mirrors the CI constructors plus the fleet config
    pub fn new_deterministic(
        platform_seed: [u8; 32],
        signing_seed: [u8; 32],
        genesis: &Block,
        genesis_state: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        cost: CostModel,
        config: ShardFleetConfig,
    ) -> Result<Self, CertError> {
        let key = AggregatorKey::Seed(signing_seed);
        let node = FullNode::new(genesis, genesis_state, executor, engine, Address::default());
        Self::with_key(platform_seed, key, node, cost, config)
    }

    /// The constructors' shared tail.
    fn with_key(
        platform_seed: [u8; 32],
        aggregator_key: AggregatorKey,
        genesis: FullNode,
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
            aggregator_key,
            genesis,
            cost,
            shards: config.shards,
            chunk: config.chunk,
            store: config.store,
            failures: config.failures,
            metrics,
            ranges: Vec::new(),
            certs: Vec::new(),
            aggregator: None,
        })
    }

    /// The height of the last certified block.
    pub fn tip_height(&self) -> u64 {
        u64::try_from(self.certs.len()).unwrap_or(u64::MAX)
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
    /// above the fork are re-certified, and the aggregator, booted again
    /// with its key, re-folds — signing-only work over already-certified
    /// digests. A chain the host refuses leaves the fleet as it was: its
    /// certified view and every `shard.*` counter.
    ///
    /// The host executes each block of the span once, on the calling
    /// thread, before any shard enclave boots (plus one proof-less replay
    /// of the certified prefix below it); the shard threads only sign.
    ///
    /// # Errors
    ///
    /// Shard-plan and store failures surface as [`CertError::Shard`]; a
    /// block the host refuses (linkage, post-state root) and enclave-side
    /// refusals keep their typed variants.
    ///
    /// # Panics
    ///
    /// If a shard thread panics: its panic propagates.
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

        // Fork detection: longest shared prefix with the certified headers.
        let shared = self
            .certs
            .iter()
            .zip(blocks)
            .take_while(|(cert, offered)| cert.digest == offered.header.hash())
            .count();
        let shared_height = u64::try_from(shared).map_err(|_| CertError::HeightOverflow)?;
        if shared == blocks.len() && shared == self.certs.len() {
            return Ok(self.certs.clone()); // nothing new
        }
        let old_tip = self.tip_height();
        let reorg = shared < self.certs.len();

        // Keep every range entirely below the fork; re-certify the rest.
        let kept: Vec<RangeCert> = self
            .ranges
            .iter()
            .filter(|r| r.last <= shared_height)
            .cloned()
            .collect();
        let recert_first = kept.last().map_or(1, |r| r.last.saturating_add(1));
        let new_ranges = if recert_first <= tip {
            self.run_fleet(blocks, recert_first, tip, ias)?
        } else {
            Vec::new()
        };

        // What to fold, from where, on which aggregator.
        let extended = shared.checked_sub(1).and_then(|at| blocks.get(at));
        let (agg, anchor, anchor_cert, ranges) = match extended {
            // Pure extension: fold only the new ranges on the existing
            // aggregator, anchored at the offered header whose hash the
            // tip certificate carries.
            Some(certified) if !reorg => {
                let agg = match self.aggregator.take() {
                    Some(agg) => agg,
                    None => self.boot_aggregator(ias)?,
                };
                (
                    agg,
                    certified.header.clone(),
                    self.certs.last().cloned(),
                    new_ranges,
                )
            }
            // First run or reorg: fold everything from genesis on an
            // aggregator booted again (the old one's watermark would refuse).
            _ => {
                let mut all_ranges = kept;
                all_ranges.extend(new_ranges);
                let agg = self.boot_aggregator(ias)?;
                (agg, self.genesis.tip().clone(), None, all_ranges)
            }
        };
        let sigs = self.fold(&agg, &anchor, anchor_cert, &ranges)?;
        if reorg {
            self.metrics
                .recert_blocks
                .add(old_tip.saturating_sub(recert_first).saturating_add(1));
        }
        self.install(anchor.height, ranges, &sigs, &agg);
        self.aggregator = Some(agg);
        Ok(self.certs.clone())
    }

    /// Rebuilds the engine's certified view from a fold anchored at height
    /// `anchor`: `sigs` holds one signature by `agg` per header digest of
    /// `folded`, in order, for heights `anchor + 1..=tip`.
    fn install(&mut self, anchor: u64, folded: Vec<RangeCert>, sigs: &[Signature], agg: &Attested) {
        self.certs
            .truncate(usize::try_from(anchor).unwrap_or(usize::MAX));
        let digests = folded.iter().flat_map(|range| &range.header_digests);
        self.certs.extend(
            digests
                .zip(sigs)
                .map(|(digest, sig)| agg.certificate(*digest, *sig)),
        );
        self.ranges.retain(|r| r.last <= anchor);
        self.ranges.extend(folded);
    }

    /// Sequences `[first, last]` on the calling thread, boots one shard per
    /// range, and signs in parallel rounds — a killed shard restarts and the
    /// next round resumes it — returning the range certificates ordered by
    /// height.
    fn run_fleet(
        &mut self,
        blocks: &[Block],
        first: u64,
        last: u64,
        ias: &mut AttestationService,
    ) -> Result<Vec<RangeCert>, CertError> {
        let plan = ShardPlan::partition(first, last, self.shards)?;
        let mut shards = Vec::with_capacity(plan.ranges.len());
        for (index, chunks) in self.sequence(blocks, &plan)?.into_iter().enumerate() {
            shards.push(Shard {
                chunks,
                done: Vec::new(),
                kill_after: self.failures.take(index),
                boot: self.boot(None, ias)?,
            });
        }
        loop {
            let pending: Vec<_> = shards
                .iter_mut()
                .enumerate()
                .filter(|(_, shard)| !shard.finished())
                .collect();
            if pending.is_empty() {
                return Ok(shards.into_iter().flat_map(|shard| shard.done).collect());
            }
            let fleet = &*self;
            in_parallel(pending, |(index, shard)| shard.sign(index, fleet))
                .into_iter()
                .collect::<Result<(), _>>()?;
            // A shard the round left unfinished was killed.
            for shard in shards.iter_mut().filter(|shard| !shard.finished()) {
                self.metrics.kills.inc();
                self.restart(shard, ias)?;
            }
        }
    }

    /// The host's half of the span `plan` covers, on one view, in height
    /// order: a clone of the genesis view replays the prefix below the span
    /// (execute and advance, no proofs), then `link_block` runs on every
    /// block of each shard's range, chunk by chunk. A range chunk is a batch
    /// under another tag with no previous certificate; its undo is never
    /// used, as a refused block fails the run and the view goes with it.
    fn sequence(&self, blocks: &[Block], plan: &ShardPlan) -> Result<Vec<Vec<Chunk>>, CertError> {
        let first = plan.ranges.first().map_or(1, |range| range.first);
        let mut node = self.genesis.clone();
        for block in blocks_for(blocks, 1, first.saturating_sub(1))? {
            let writes = node.execute(&block.txs).writes;
            node.advance(&block.header, writes.iter())?;
        }
        let mut breakdown = CertBreakdown::default();
        let chunks_of = |range: &HeightRange| {
            let mut chunks = Vec::new();
            let mut cursor = range.first;
            while cursor <= range.last {
                let last = cursor
                    .checked_add(self.chunk.saturating_sub(1))
                    .ok_or(ShardError::HeightOverflow)?
                    .min(range.last);
                let (anchor, mut undo) = (node.tip().clone(), Undo::new());
                let links = blocks_for(blocks, cursor, last)?
                    .iter()
                    .map(|block| link_block(&mut node, block.clone(), &mut undo, &mut breakdown))
                    .collect::<Result<Vec<_>, _>>()?;
                chunks.push(Chunk {
                    first: cursor,
                    last,
                    anchor_digest: anchor.hash(),
                    header_digests: links.iter().map(|link| link.block.header.hash()).collect(),
                    request: EcallRequest::RangeSigGen { anchor, links }.to_encoded_bytes(),
                });
                cursor = last.saturating_add(1);
            }
            Ok(chunks)
        };
        plan.ranges.iter().map(chunks_of).collect()
    }

    /// Restarts a killed shard, the one way there is: it keeps the longest
    /// prefix of its chunks whose durable range certificate certifies that
    /// chunk (none without a store), boots fresh with a new key, and signs
    /// the rest from the chunks' requests as encoded.
    fn restart(&self, shard: &mut Shard, ias: &mut AttestationService) -> Result<(), CertError> {
        self.metrics.restarts.inc();
        shard.done = match &self.store {
            Some(store) => {
                let guard = lock_store(store);
                let durable = |chunk: &Chunk| {
                    let cert = RangeCert::decode_all(&guard.head(&range_key(chunk.first))?).ok()?;
                    chunk.certified_by(&cert).then_some(cert)
                };
                shard.chunks.iter().map_while(durable).collect()
            }
            None => Vec::new(),
        };
        self.metrics
            .resumed_ranges
            .add(u64::try_from(shard.done.len()).unwrap_or(u64::MAX));
        shard.boot = self.boot(None, ias)?;
        Ok(())
    }

    /// The trusted program every fleet enclave runs — identical chain
    /// semantics (and therefore measurement) to the sequential CI's.
    fn make_program(&self, ias: &AttestationService) -> CertProgram {
        cert_program(
            self.genesis.tip().hash(),
            ias,
            self.genesis.executor(),
            self.genesis.engine(),
            Vec::new(),
        )
    }

    /// Launches, instruments and attests one fleet enclave on the fleet's
    /// platform: the aggregator with `key`, a shard (`None`) with the key
    /// its `Init` draws.
    fn boot(
        &self,
        key: Option<&AggregatorKey>,
        ias: &mut AttestationService,
    ) -> Result<Attested, CertError> {
        let (program, cost, platform) = (self.make_program(ias), self.cost, self.platform_seed);
        let enclave = match key {
            None => Enclave::launch_with_platform_seed(program, cost, platform),
            Some(AggregatorKey::Seed(seed)) => {
                // dcert-lint: allow(r1-enclave-secrecy, reason = "the replay path: the aggregator takes the deterministic CI's host seed, so the folded stream replays its bytes")
                let program = program.with_signing_seed(*seed);
                Enclave::launch_with_platform_seed(program, cost, platform)
            }
            Some(AggregatorKey::Sealed(blob)) => Enclave::restore(program, cost, platform, blob)?,
        };
        enclave.attach_obs(&self.metrics.registry);
        Attested::boot(enclave, ias)
    }

    /// Boots the aggregator on its key — a sequential CI's, which is why the
    /// folded certificates come out byte-identical to that CI's.
    fn boot_aggregator(&self, ias: &mut AttestationService) -> Result<Attested, CertError> {
        self.metrics.agg_fresh_boots.inc();
        self.boot(Some(&self.aggregator_key), ias)
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
        let folded = ranges.iter().map(|range| range.header_digests.len()).sum();
        let (result, took) = timed(|| {
            agg.sign(
                &request.to_encoded_bytes(),
                folded,
                &mut CertBreakdown::default(),
            )
        });
        self.metrics.fold_ns.record(took);
        let sigs = result?;
        self.metrics.agg_folds.inc();
        self.metrics
            .agg_signatures
            .add(u64::try_from(sigs.len()).unwrap_or(u64::MAX));
        Ok(sigs)
    }
}

/// Runs `f` on every item, the first on the calling thread (which would
/// otherwise idle in the join) and the rest on scoped threads, and returns
/// the results in item order. A panic in any call propagates.
fn in_parallel<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let f = &f;
        let rest: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let mut results = vec![f(first)];
        results.extend(rest.into_iter().map(|thread| {
            thread
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        results
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

/// A poisoned store lock only means another shard thread panicked mid-write;
/// the store's own framing keeps torn writes recoverable.
fn lock_store(store: &SharedStore) -> std::sync::MutexGuard<'_, Box<dyn Store + Send>> {
    match store.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The store head holding the range certificate of the chunk at `first`.
fn range_key(first: u64) -> String {
    format!("shard.range.{first:016x}")
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
}
