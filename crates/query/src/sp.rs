//! The Query Service Provider (SP).
//!
//! A full node that maintains any number of authenticated indexes over the
//! chain, stages per-block update proofs for the Certificate Issuer, and
//! serves verifiable queries to superlight clients (Fig. 2 of the paper).

use std::collections::BTreeMap;
use std::sync::Arc;

use dcert_chain::state::Displaced;
use dcert_chain::{Block, BlockHeader, ChainError, ChainState, ConsensusEngine, FullNode};
use dcert_core::{CertError, Certificate, IndexInput, IndexVerifier, RecoverError, TrustDomain};
use dcert_obs::{Buckets, Counter, Histogram, Registry};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::{Address, Hash};
use dcert_primitives::keys::PublicKey;
use dcert_sgx::cost::timed_into;
use dcert_store::{Record, Store, StoreError, StreamId};
use dcert_vm::{Executor, StateKey};

use crate::aggregate::{AggQueryProof, Aggregate, AggregateIndex, AggregateVerifier};
use crate::error::SpError;
use crate::history::{HistoryIndex, HistoryProof, HistoryVerifier, Version};
use crate::inverted::{InvertedIndex, InvertedVerifier, KeywordProof};

/// Head-region key under which the SP commits its replay watermark: the
/// highest block height whose block page is durable *and* accounted for
/// by the committed per-index digests.
pub const SP_HEIGHT_KEY: &str = "sp.height";

/// Head-region key prefix for per-index certified state; the index name
/// follows the prefix.
pub const SP_CERT_PREFIX: &str = "sp.cert.";

/// Per-index certified state, persisted under [`SP_CERT_PREFIX`]`<name>`
/// in the store's head region.
///
/// `anchor` pins the latest certificate to exactly what the enclave
/// signed: the header hash and index digest it certifies. (In pipelined
/// mode the committed `digest` can run ahead of the certified one, so the
/// pair is recorded alongside the certificate rather than inferred.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedEntry {
    /// The committed index digest at the replay watermark.
    pub digest: Hash,
    /// `(header_hash, certified_digest, certificate)` of the latest
    /// recorded certificate, if any was recorded.
    pub anchor: Option<(Hash, Hash, Certificate)>,
}

dcert_primitives::wire! {
    struct CertifiedEntry { digest, anchor }
}

/// An index the SP maintains, of any kind: each kind is a proof plus a
/// replay.
enum Index {
    History(HistoryIndex),
    Inverted(InvertedIndex),
    Aggregate(AggregateIndex),
}

impl Index {
    fn kind(&self) -> IndexKind {
        match self {
            Index::History(_) => IndexKind::History,
            Index::Inverted(_) => IndexKind::Inverted,
            Index::Aggregate(_) => IndexKind::Aggregate,
        }
    }

    /// The current digest `H_idx`.
    fn digest(&self) -> Hash {
        match self {
            Index::History(index) => index.digest(),
            Index::Inverted(index) => index.digest(),
            Index::Aggregate(index) => index.digest(),
        }
    }

    /// Applies one block — its `writes` and its keyword `appends` —
    /// returning `(aux, new_digest)` for certification. The block stays
    /// undoable until the next one or `settle_block`.
    fn apply(
        &mut self,
        height: u64,
        writes: &[(StateKey, Option<Vec<u8>>)],
        appends: &[(String, Vec<Hash>)],
    ) -> (Vec<u8>, Hash) {
        match self {
            Index::History(index) => index.apply_block(height, writes),
            Index::Inverted(index) => index.apply_appends(appends),
            Index::Aggregate(index) => index.apply_block(height, writes),
        }
    }

    /// [`Index::apply`] without the proof: what recovery replays.
    fn replay(
        &mut self,
        height: u64,
        writes: &[(StateKey, Option<Vec<u8>>)],
        appends: &[(String, Vec<Hash>)],
    ) {
        match self {
            Index::History(index) => index.replay(height, writes),
            Index::Inverted(index) => index.replay(appends),
            Index::Aggregate(index) => index.replay(height, writes),
        }
    }

    /// Takes back the last block exactly; nothing once settled.
    fn undo_block(&mut self) {
        match self {
            Index::History(index) => index.undo_block(),
            Index::Inverted(index) => index.undo_block(),
            Index::Aggregate(index) => index.undo_block(),
        }
    }

    /// Makes the last block final, dropping its undo.
    fn settle_block(&mut self) {
        match self {
            Index::History(index) => index.settle_block(),
            Index::Inverted(index) => index.settle_block(),
            Index::Aggregate(index) => index.settle_block(),
        }
    }
}

/// One registered index: its name, the index, and `(header_hash,
/// certified_digest, certificate)` of its latest certificate — what
/// recovery re-verifies it against.
struct Entry {
    name: String,
    index: Index,
    anchor: Option<(Hash, Hash, Certificate)>,
}

/// What taking back the last staged block needs beyond each index's own
/// undo: the chain view's, and the SP's bookkeeping before the stage.
struct Unstage {
    prev_tip: BlockHeader,
    displaced: Displaced,
    staged: Option<Hash>,
}

/// Which kind of index to instantiate under a name. The declaration
/// order is the order the SP certifies its indexes in: kind first, then
/// name ([`ServiceProvider::verifiers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexKind {
    /// Two-level historical index.
    History,
    /// Inverted keyword index.
    Inverted,
    /// Two-level window-aggregation index.
    Aggregate,
}

/// Metric handles for the SP query cost center (`sp.*`) — the data
/// behind the paper's Fig. 11 query-overhead comparison (VO size and
/// serving time per query family).
struct SpObs {
    queries: Counter,
    history_queries: Counter,
    keyword_queries: Counter,
    aggregate_queries: Counter,
    /// Verification-object wire size per served query.
    vo_bytes: Histogram,
    /// Result entries per served query.
    results: Histogram,
    /// Wall-clock serving time (index walk + proof assembly).
    serve_ns: Histogram,
    /// Wire size of each index certificate recorded by the SP.
    cert_bytes: Histogram,
}

impl SpObs {
    fn register(registry: &Registry) -> Self {
        SpObs {
            queries: registry.counter("sp.queries"),
            history_queries: registry.counter("sp.query.history"),
            keyword_queries: registry.counter("sp.query.keyword"),
            aggregate_queries: registry.counter("sp.query.aggregate"),
            vo_bytes: registry.histogram("sp.query.vo_bytes", Buckets::bytes()),
            results: registry.histogram("sp.query.results", Buckets::exponential(1, 2, 16)),
            serve_ns: registry.timer("sp.query.serve_ns"),
            cert_bytes: registry.histogram("sp.cert_bytes", Buckets::bytes()),
        }
    }
}

/// The SP: a full node plus its maintained indexes and their certificate
/// bookkeeping.
pub struct ServiceProvider {
    node: FullNode,
    /// Every registered index, sorted by `(kind, name)`: the order of
    /// [`ServiceProvider::verifiers`], of every `IndexInput` list and of
    /// every certificate list.
    entries: Vec<Entry>,
    /// Header hash of the block staged since the last `advance`.
    staged: Option<Hash>,
    /// The undo of the last staged block, held until it settles.
    unstage: Option<Unstage>,
    /// Durable backend, if any, with the trust domain a certificate must
    /// verify under to be written there.
    store: Option<(Box<dyn Store>, TrustDomain)>,
    /// First store failure; once set, persistence stops (queries keep
    /// serving) and the error is reported via [`ServiceProvider::store_error`].
    store_error: Option<StoreError>,
    obs: Option<SpObs>,
}

impl std::fmt::Debug for ServiceProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceProvider")
            .field("height", &self.node.height())
            .field("indexes", &self.entries.len())
            .finish()
    }
}

impl ServiceProvider {
    /// Creates an SP at genesis.
    pub fn new(
        genesis: &Block,
        genesis_state: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
    ) -> Self {
        ServiceProvider {
            node: FullNode::new(genesis, genesis_state, executor, engine, Address::default()),
            entries: Vec::new(),
            staged: None,
            unstage: None,
            store: None,
            store_error: None,
            obs: None,
        }
    }

    /// The first store failure, if persistence has been poisoned.
    pub fn store_error(&self) -> Option<&StoreError> {
        self.store_error.as_ref()
    }

    /// Detaches and returns the store (e.g. to close and later recover
    /// from it). Persistence stops; the SP keeps serving from memory. A
    /// test accessor: the recovery tests close a store with it.
    pub fn take_store(&mut self) -> Option<Box<dyn Store>> {
        self.store.take().map(|(store, ..)| store)
    }

    /// Compatibility name `benchmark/driver` calls
    /// ([`ServiceProvider::height`]); leaves at ROADMAP item 4(c).
    pub fn index_height(&self) -> u64 {
        self.height()
    }

    /// Registers this SP's query metrics (`sp.*`) in `registry`; every
    /// `serve_*` call and recorded certificate is measured from here on.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(SpObs::register(registry));
    }

    /// Registers a new index under `name`.
    ///
    /// # Panics
    ///
    /// Panics if an index with the same name already exists, or if blocks
    /// have already been processed (indexes must start from genesis).
    pub fn add_index(&mut self, kind: IndexKind, name: &str) {
        assert_eq!(self.node.height(), 0, "indexes must start from genesis");
        assert!(self.entry(name).is_none(), "duplicate index name {name}");
        let at = self
            .entries
            .partition_point(|e| (e.index.kind(), e.name.as_str()) < (kind, name));
        let index = match kind {
            IndexKind::History => Index::History(HistoryIndex::new()),
            IndexKind::Inverted => Index::Inverted(InvertedIndex::new()),
            IndexKind::Aggregate => Index::Aggregate(AggregateIndex::new()),
        };
        let entry = Entry {
            name: name.to_owned(),
            index,
            anchor: None,
        };
        self.entries.insert(at, entry);
    }

    /// The index registered under `name`, of whichever kind.
    fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|entry| entry.name == name)
    }

    /// Builds the enclave-side verifiers matching the registered indexes —
    /// hand these to [`CertificateIssuer::new`](dcert_core::CertificateIssuer::new).
    pub fn verifiers(&self) -> Vec<Box<dyn IndexVerifier>> {
        self.entries
            .iter()
            .map(|Entry { name, index, .. }| -> Box<dyn IndexVerifier> {
                let name = name.clone();
                match index {
                    Index::History(_) => Box::new(HistoryVerifier::new(name)),
                    Index::Inverted(_) => Box::new(InvertedVerifier::new(name)),
                    Index::Aggregate(_) => Box::new(AggregateVerifier::new(name)),
                }
            })
            .collect()
    }

    /// The SP's chain height.
    pub fn height(&self) -> u64 {
        self.node.height()
    }

    /// Access a history index for querying.
    pub fn history(&self, name: &str) -> Option<&HistoryIndex> {
        match &self.entry(name)?.index {
            Index::History(index) => Some(index),
            _ => None,
        }
    }

    /// Access an inverted index for querying.
    pub fn inverted(&self, name: &str) -> Option<&InvertedIndex> {
        match &self.entry(name)?.index {
            Index::Inverted(index) => Some(index),
            _ => None,
        }
    }

    /// Access an aggregate index for querying.
    pub fn aggregate(&self, name: &str) -> Option<&AggregateIndex> {
        match &self.entry(name)?.index {
            Index::Aggregate(index) => Some(index),
            _ => None,
        }
    }

    /// The measured query path behind every `serve_*`: runs `query`, then
    /// records its serving time, VO size and result count (`results` of
    /// the answer) under `family` into the attached registry, if any. With
    /// none attached it is `query` alone: no clock is read.
    fn measured<A, P: Encode>(
        &self,
        family: fn(&SpObs) -> &Counter,
        results: fn(&A) -> usize,
        query: impl FnOnce() -> (A, P),
    ) -> (A, P) {
        let Some(obs) = &self.obs else {
            return query();
        };
        let (answer, proof) = timed_into(&obs.serve_ns, query);
        let as_u64 = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        obs.queries.inc();
        family(obs).inc();
        obs.vo_bytes.observe(as_u64(proof.encoded_len()));
        obs.results.observe(as_u64(results(&answer)));
        (answer, proof)
    }

    /// Serves an authenticated time-window history query through the SP's
    /// measured query path: the result and proof are exactly
    /// [`HistoryIndex::query`]'s, with serving time, VO size, and result
    /// count recorded into the attached registry. `None` if no history
    /// index is registered under `name`.
    pub fn serve_history(
        &self,
        name: &str,
        key: &StateKey,
        t1: u64,
        t2: u64,
    ) -> Option<(Vec<(u64, Version)>, HistoryProof)> {
        let index = self.history(name)?;
        Some(self.measured(
            |obs| &obs.history_queries,
            Vec::len,
            || index.query(key, t1, t2),
        ))
    }

    /// Serves a conjunctive keyword query ([`InvertedIndex::query`])
    /// through the measured query path. `None` if no inverted index is
    /// registered under `name`.
    pub fn serve_keywords(
        &self,
        name: &str,
        keywords: &[&str],
    ) -> Option<(Vec<Hash>, KeywordProof)> {
        let index = self.inverted(name)?;
        Some(self.measured(
            |obs| &obs.keyword_queries,
            Vec::len,
            || index.query(keywords),
        ))
    }

    /// Serves a verifiable window aggregation ([`AggregateIndex::query`])
    /// through the measured query path. `None` if no aggregate index is
    /// registered under `name`.
    pub fn serve_aggregate(
        &self,
        name: &str,
        key: &StateKey,
        t1: u64,
        t2: u64,
    ) -> Option<(Aggregate, AggQueryProof)> {
        let index = self.aggregate(name)?;
        Some(self.measured(
            |obs| &obs.aggregate_queries,
            |_| 1,
            || index.query(key, t1, t2),
        ))
    }

    /// Compatibility name `benchmark/driver` calls; leaves at ROADMAP
    /// item 4(c).
    pub fn serve_history_ops(
        &self,
        name: &str,
        key: &StateKey,
        t1: u64,
        t2: u64,
    ) -> Option<(Vec<(u64, Version)>, HistoryProof)> {
        self.serve_history(name, key, t1, t2)
    }

    /// Compatibility name `benchmark/driver` calls; leaves at ROADMAP
    /// item 4(c).
    pub fn serve_aggregate_ops(
        &self,
        name: &str,
        key: &StateKey,
        t1: u64,
        t2: u64,
    ) -> Option<(Aggregate, AggQueryProof)> {
        self.serve_aggregate(name, key, t1, t2)
    }

    /// Processes one block: follows it ([`FullNode::follow`]: linkage,
    /// seal, transaction root, execution, state root — no transaction
    /// signature), updates every index, stages the block for
    /// [`ServiceProvider::advance`], and returns the [`IndexInput`]s the CI
    /// needs (in the same deterministic order as
    /// [`ServiceProvider::verifiers`]), each chained from its index's
    /// digest before the block. A store-backed SP appends the block itself
    /// as its page at this height: the chain it followed is what
    /// [`ServiceProvider::recover_from`] follows again.
    ///
    /// The SP's answers are believed only through the certificates the
    /// enclave signs after checking every signature, so it does not check
    /// them again: a block the CI refuses is taken back, exactly, by
    /// [`ServiceProvider::rewind`]. Staging a block settles any block
    /// staged before it.
    ///
    /// # Errors
    ///
    /// Propagates block-following errors; indexes are only updated when
    /// the block follows the tip.
    pub fn stage_block(&mut self, block: &Block) -> Result<Vec<IndexInput>, ChainError> {
        // Follow the chain first; a block that does not follow must not
        // touch the indexes. The indexes are fed from the execution the
        // node committed.
        let prev_tip = self.node.tip().clone();
        let (execution, displaced) = self.node.follow(block)?;
        let writes: Vec<(StateKey, Option<Vec<u8>>)> = execution.writes.into_iter().collect();
        // Volatile until `advance` commits; a rewound block's page stays
        // behind the committed watermark until the block staged next at
        // its height supersedes it.
        self.persist(block);

        let height = block.header.height;
        let appends = self.keyword_appends(block);
        let mut inputs = Vec::with_capacity(self.entries.len());
        for entry in &mut self.entries {
            let prev_digest = entry.index.digest();
            let (aux, new_digest) = entry.index.apply(height, &writes, &appends);
            inputs.push(IndexInput {
                index_type: entry.name.clone(),
                prev_digest,
                prev_cert: entry.anchor.as_ref().map(|(.., cert)| cert.clone()),
                new_digest,
                aux,
            });
        }
        self.unstage = Some(Unstage {
            prev_tip,
            displaced,
            staged: self.staged,
        });
        self.staged = Some(block.header.hash());
        Ok(inputs)
    }

    /// `block`'s keyword appends, sorted by keyword: derived only when an
    /// inverted index is registered to take them.
    fn keyword_appends(&self, block: &Block) -> Vec<(String, Vec<Hash>)> {
        let inverted = |e: &Entry| matches!(e.index, Index::Inverted(_));
        if self.entries.iter().any(inverted) {
            InvertedIndex::block_appends(block).into_iter().collect()
        } else {
            Vec::new()
        }
    }

    /// Takes back the last staged block exactly — the chain view
    /// ([`FullNode::retract`]), every index and the staged header —
    /// leaving the SP as it was before the stage: what it does when the
    /// CI refuses the block. Returns whether there was a block to take
    /// back; one that [`ServiceProvider::advance`] (or a later stage)
    /// settled is final.
    ///
    /// A store-backed SP keeps the block's page: it lies above the
    /// committed watermark, which recovery never replays past, and the
    /// page of the block staged next at that height supersedes it.
    pub fn rewind(&mut self) -> bool {
        let Some(unstage) = self.unstage.take() else {
            return false;
        };
        self.node.retract(unstage.prev_tip, unstage.displaced);
        for entry in &mut self.entries {
            entry.index.undo_block();
        }
        self.staged = unstage.staged;
        true
    }

    /// Makes the last staged block final: drops its undo.
    fn settle(&mut self) {
        if self.unstage.take().is_some() {
            for entry in &mut self.entries {
                entry.index.settle_block();
            }
        }
    }

    /// Appends `block` as its height's page if a healthy store is
    /// attached; a failure latches [`ServiceProvider::store_error`] and
    /// stops persistence.
    fn persist(&mut self, block: &Block) {
        if let (Some((store, ..)), None) = (&mut self.store, &self.store_error) {
            let height = block.header.height;
            let record = Record::new(height, StreamId::Blocks, block.to_encoded_bytes());
            self.store_error = store.append(&record).err();
        }
    }

    /// Commits every index's digest and anchor to the head region and
    /// syncs, making the records staged for the committed height durable.
    fn commit_store(&mut self) {
        let (Some((store, ..)), None) = (&mut self.store, &self.store_error) else {
            return;
        };
        let committed = self
            .entries
            .iter()
            .try_for_each(|entry| {
                let certified = CertifiedEntry {
                    digest: entry.index.digest(),
                    anchor: entry.anchor.clone(),
                };
                let key = format!("{SP_CERT_PREFIX}{}", entry.name);
                store.put_head(&key, certified.to_encoded_bytes())
            })
            .and_then(|()| store.put_head(SP_HEIGHT_KEY, self.node.height().to_encoded_bytes()))
            .and_then(|()| store.sync());
        self.store_error = committed.err();
    }

    /// Settles the staged block (with nothing staged, does nothing) and
    /// commits the store once. `Some(certs)`, in [`ServiceProvider::verifiers`]
    /// order, must each certify `H(header ‖ digest)` of the block and its
    /// index — and on a store-backed SP pass [`TrustDomain::check`] under
    /// the trust anchors recovery re-checks them with — before any is
    /// recorded (and its attestation remembered). `None`
    /// settles it uncertified (the pipelined SP): each index keeps its
    /// latest certificate. Either way the block is final:
    /// [`ServiceProvider::rewind`] no longer takes it back.
    ///
    /// # Errors
    ///
    /// [`SpError`], with the SP as it was: the honest list still lands.
    pub fn advance(&mut self, certs: Option<&[Certificate]>) -> Result<(), SpError> {
        let Some(header_hash) = self.staged else {
            return Ok(());
        };
        if let Some(certs) = certs {
            let (expected, got) = (self.entries.len(), certs.len());
            if expected != got {
                return Err(SpError::CertCount { expected, got });
            }
            for (entry, cert) in self.entries.iter().zip(certs) {
                let bound = Certificate::index_digest(&header_hash, &entry.index.digest());
                let checked = match &self.store {
                    _ if cert.digest != bound => Err(CertError::DigestMismatch),
                    Some((_, domain)) => domain.check(cert, &bound),
                    None => Ok(()),
                };
                checked.map_err(|error| SpError::Cert {
                    index: entry.name.clone(),
                    error,
                })?;
            }
            for (entry, cert) in self.entries.iter_mut().zip(certs) {
                if let Some((_, domain)) = &mut self.store {
                    domain.remember(cert);
                }
                if let Some(obs) = &self.obs {
                    obs.cert_bytes
                        .observe(u64::try_from(cert.encoded_len()).unwrap_or(u64::MAX));
                }
                entry.anchor = Some((header_hash, entry.index.digest(), cert.clone()));
            }
        }
        self.staged = None;
        self.settle();
        self.commit_store();
        Ok(())
    }

    /// Compatibility name `benchmark/driver` calls (`advance(Some(certs))`);
    /// leaves at ROADMAP item 4(c).
    pub fn record_certs(&mut self, certs: &[Certificate]) -> Result<(), SpError> {
        self.advance(Some(certs))
    }

    /// Compatibility name `benchmark/driver` calls (`advance(None)`);
    /// leaves at ROADMAP item 4(c).
    pub fn advance_staged(&mut self) -> Result<(), SpError> {
        self.advance(None)
    }

    /// The current digest of an index: what every answer served from it
    /// verifies against, and what its next certificate certifies.
    pub fn digest(&self, name: &str) -> Option<Hash> {
        Some(self.entry(name)?.index.digest())
    }

    /// The latest certificate of an index.
    pub fn certificate(&self, name: &str) -> Option<&Certificate> {
        self.entry(name)?.anchor.as_ref().map(|(.., cert)| cert)
    }

    /// Rebuilds this genesis SP from `store` — the one way into
    /// persistence: an empty store gives it one to write to.
    ///
    /// The store holds the chain the SP followed, one block page per
    /// height. Replay is bounded by the committed watermark
    /// ([`SP_HEIGHT_KEY`]): pages beyond it (the redo tail of a crash) are
    /// ignored, because their index updates were never acknowledged, and
    /// of several pages at one height the last wins. Each committed block
    /// is followed again on the SP's own node ([`FullNode::follow`]) and
    /// replayed into every index. After replay every index digest must
    /// match its committed head entry, and every recorded certificate must
    /// still verify under the caller-supplied trust anchors — the disk is
    /// untrusted input, so any mismatch refuses with a typed error instead
    /// of serving.
    ///
    /// On success the store stays attached and the SP stands at the
    /// committed tip: [`ServiceProvider::stage_block`] continues with the
    /// block above it.
    ///
    /// # Errors
    ///
    /// [`RecoverError`] when a page or head entry does not decode, a
    /// committed block does not follow the chain, a replayed digest does
    /// not match its committed one, or a recovered certificate fails
    /// re-verification.
    ///
    /// # Panics
    ///
    /// Panics if this SP is not at genesis.
    pub fn recover_from(
        mut self,
        ias_key: &PublicKey,
        measurement: &Hash,
        store: Box<dyn Store>,
    ) -> Result<Self, RecoverError> {
        assert_eq!(self.node.height(), 0, "recover_from requires a genesis SP");
        let refused = |why| RecoverError::Store(StoreError::VerifyFailed(why));
        let committed = match store.head(SP_HEIGHT_KEY) {
            Some(bytes) => u64::decode_all(&bytes)?,
            None => 0,
        };

        // The committed block pages, the last one per height. Other
        // streams (e.g. a co-hosted certificate archive) are not the SP's
        // to replay.
        let records = store.records();
        let mut pages: BTreeMap<u64, &[u8]> = BTreeMap::new();
        for record in &records {
            if record.stream == StreamId::Blocks && record.height <= committed {
                pages.insert(record.height, &record.body);
            }
        }

        // Follow and replay in height order; a gap below the watermark
        // means acknowledged data is missing, so recovery refuses.
        for height in 1..=committed {
            let page = pages
                .get(&height)
                .ok_or(refused("missing block page below the committed watermark"))?;
            let block = Block::decode_all(page)?;
            let (execution, _) = self
                .node
                .follow(&block)
                .map_err(|_| refused("committed block does not follow the chain"))?;
            let writes: Vec<(StateKey, Option<Vec<u8>>)> = execution.writes.into_iter().collect();
            let appends = self.keyword_appends(&block);
            for entry in &mut self.entries {
                entry.index.replay(height, &writes, &appends);
            }
        }

        // Re-verify: every committed digest must equal the replayed one,
        // and the latest certificate must still prove its anchor.
        for entry in &mut self.entries {
            entry.index.settle_block();
            let key = format!("{SP_CERT_PREFIX}{}", entry.name);
            let Some(bytes) = store.head(&key) else {
                if committed == 0 {
                    continue; // fresh store: nothing committed yet
                }
                return Err(refused("missing per-index head entry"));
            };
            let CertifiedEntry { digest, anchor } = CertifiedEntry::decode_all(&bytes)?;
            if digest != entry.index.digest() {
                return Err(refused(
                    "replayed index digest does not match the committed digest",
                ));
            }
            entry.anchor = anchor;
        }
        let mut domain = TrustDomain::new(*ias_key, *measurement);
        for (header_hash, cert_digest, cert) in
            self.entries.iter().filter_map(|e| e.anchor.as_ref())
        {
            let bound = Certificate::index_digest(header_hash, cert_digest);
            domain.check(cert, &bound).map_err(RecoverError::Cert)?;
            domain.remember(cert);
        }
        // A head entry for an index this SP does not maintain means the
        // store belongs to a differently-configured SP: refuse rather
        // than silently drop certified state.
        for (key, _) in store.head_entries() {
            if let Some(name) = key.strip_prefix(SP_CERT_PREFIX) {
                if self.entry(name).is_none() {
                    return Err(refused("head entry for an unregistered index"));
                }
            }
        }

        self.store = Some((store, domain));
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::{GenesisBuilder, ProofOfWork, Transaction};
    use dcert_primitives::keys::Keypair;
    use dcert_workloads::blockbench_registry;

    fn setup() -> (FullNode, ServiceProvider) {
        setup_with(&[
            (IndexKind::History, "history"),
            (IndexKind::Inverted, "inverted"),
        ])
    }

    /// A miner and a genesis SP maintaining `indexes`, registered in order.
    fn setup_with(indexes: &[(IndexKind, &str)]) -> (FullNode, ServiceProvider) {
        let executor = Executor::new(Arc::new(blockbench_registry()));
        let engine: Arc<dyn ConsensusEngine> = Arc::new(ProofOfWork::new(2));
        let (genesis, state) = GenesisBuilder::new().build();
        let miner = FullNode::new(
            &genesis,
            state.clone(),
            executor.clone(),
            engine.clone(),
            Address::from_seed(1),
        );
        let mut sp = ServiceProvider::new(&genesis, state, executor, engine);
        for (kind, name) in indexes {
            sp.add_index(*kind, name);
        }
        (miner, sp)
    }

    #[test]
    fn stage_block_returns_one_input_per_index() {
        let (mut miner, mut sp) = setup();
        let kp = Keypair::from_seed([5; 32]);
        let tx = Transaction::sign(
            &kp,
            0,
            "kvstore",
            dcert_workloads::kvstore::KvCall::Put {
                key: b"acct".to_vec(),
                value: b"stock bank memo".to_vec(),
            }
            .to_encoded_bytes(),
        );
        let block = miner.mine(vec![tx], 1).unwrap();
        let inputs = sp.stage_block(&block).unwrap();
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[0].index_type, "history");
        assert_eq!(inputs[1].index_type, "inverted");
        assert_eq!(inputs[0].prev_digest, Hash::ZERO);
        assert_ne!(inputs[0].new_digest, Hash::ZERO);
        assert_eq!(sp.height(), 1);
    }

    #[test]
    fn serve_methods_match_direct_queries_and_record_metrics() {
        let (mut miner, mut sp) = setup();
        let registry = dcert_obs::Registry::new();
        sp.attach_obs(&registry);
        let kp = Keypair::from_seed([5; 32]);
        let tx = Transaction::sign(
            &kp,
            0,
            "kvstore",
            dcert_workloads::kvstore::KvCall::Put {
                key: b"acct".to_vec(),
                value: b"stock bank memo".to_vec(),
            }
            .to_encoded_bytes(),
        );
        let block = miner.mine(vec![tx], 1).unwrap();
        sp.stage_block(&block).unwrap();

        let key = StateKey::new("kvstore", b"acct");
        let (direct_res, direct_proof) = sp.history("history").unwrap().query(&key, 0, 10);
        let (served_res, served_proof) = sp.serve_history("history", &key, 0, 10).unwrap();
        assert_eq!(direct_res, served_res, "serve path must not change results");
        assert_eq!(
            direct_proof.to_encoded_bytes(),
            served_proof.to_encoded_bytes()
        );
        let (kw_res, _) = sp.serve_keywords("inverted", &["stock", "bank"]).unwrap();
        assert_eq!(kw_res.len(), 1);
        assert!(sp.serve_history("no-such-index", &key, 0, 10).is_none());

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("sp.queries"), 2);
        assert_eq!(snapshot.counter("sp.query.history"), 1);
        assert_eq!(snapshot.counter("sp.query.keyword"), 1);
        let vo = snapshot.histograms.get("sp.query.vo_bytes").unwrap();
        assert_eq!(vo.count, 2);
        assert!(vo.sum > 0, "VOs have nonzero wire size");
    }

    /// Indexes are certified kind first (History, Inverted, Aggregate),
    /// then by name: registered in name order, `z`, `m` and `a` come out
    /// in reverse, from `verifiers` and from `stage_block` alike.
    #[test]
    fn verifiers_match_indexes() {
        let (_, sp) = setup();
        let verifiers = sp.verifiers();
        let names: Vec<&str> = verifiers.iter().map(|v| v.type_name()).collect();
        assert_eq!(names, vec!["history", "inverted"]);

        let (mut miner, mut sp) = setup_with(&[
            (IndexKind::Aggregate, "a"),
            (IndexKind::Inverted, "m"),
            (IndexKind::History, "z"),
        ]);
        let verifiers = sp.verifiers();
        let names: Vec<&str> = verifiers.iter().map(|v| v.type_name()).collect();
        assert_eq!(names, vec!["z", "m", "a"]);
        let block = miner.mine(Vec::new(), 1).unwrap();
        let inputs = sp.stage_block(&block).unwrap();
        let staged: Vec<&str> = inputs.iter().map(|i| i.index_type.as_str()).collect();
        assert_eq!(staged, vec!["z", "m", "a"]);
    }

    #[test]
    #[should_panic(expected = "duplicate index name")]
    fn duplicate_names_rejected() {
        let (_, mut sp) = setup();
        sp.add_index(IndexKind::History, "history");
    }

    use dcert_primitives::codec::Encode;

    use dcert_core::{expected_measurement, CertificateIssuer};
    use dcert_sgx::{AttestationService, CostModel};
    use dcert_store::MemStore;

    /// Every index a [`CertifiedWorld`] SP maintains, one of each kind, in
    /// certification order.
    const CERTIFIED_INDEXES: [(IndexKind, &str); 3] = [
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
        (IndexKind::Aggregate, "aggregate"),
    ];

    /// A miner, an SP ([`CERTIFIED_INDEXES`]) on an empty [`MemStore`],
    /// and a CI wired with the SP's verifiers — plus the trust anchors
    /// recovery needs.
    struct CertifiedWorld {
        miner: FullNode,
        sp: ServiceProvider,
        ci: CertificateIssuer,
        ias_key: PublicKey,
        measurement: Hash,
        genesis: Block,
        state: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
    }

    impl CertifiedWorld {
        fn new() -> Self {
            let executor = Executor::new(Arc::new(blockbench_registry()));
            let engine: Arc<dyn ConsensusEngine> = Arc::new(ProofOfWork::new(2));
            let (genesis, state) = GenesisBuilder::new().build();
            let miner = FullNode::new(
                &genesis,
                state.clone(),
                executor.clone(),
                engine.clone(),
                Address::from_seed(1),
            );
            let mut sp =
                ServiceProvider::new(&genesis, state.clone(), executor.clone(), engine.clone());
            for (kind, name) in CERTIFIED_INDEXES {
                sp.add_index(kind, name);
            }
            let mut ias = AttestationService::with_seed([42; 32]);
            let ci = CertificateIssuer::new(
                [9; 32],
                &genesis,
                state.clone(),
                executor.clone(),
                engine.clone(),
                sp.verifiers(),
                &mut ias,
                CostModel::zero(),
            )
            .expect("CI boots");
            let mut world = CertifiedWorld {
                miner,
                sp,
                ci,
                ias_key: ias.public_key(),
                measurement: expected_measurement(),
                genesis,
                state,
                executor,
                engine,
            };
            world.sp = world.recover(Box::new(MemStore::new())).unwrap();
            world
        }

        fn recover(&self, store: Box<dyn Store>) -> Result<ServiceProvider, RecoverError> {
            self.genesis_sp()
                .recover_from(&self.ias_key, &self.measurement, store)
        }

        fn genesis_sp(&self) -> ServiceProvider {
            let mut sp = ServiceProvider::new(
                &self.genesis,
                self.state.clone(),
                self.executor.clone(),
                self.engine.clone(),
            );
            for (kind, name) in CERTIFIED_INDEXES {
                sp.add_index(kind, name);
            }
            sp
        }

        /// Mines one kvstore block at `height`: a keyword-bearing put to
        /// `acct` and a numeric put to `balance`.
        fn mine(&mut self, height: u64) -> Block {
            let put = |seed, key: &[u8], value: Vec<u8>| {
                let call = dcert_workloads::kvstore::KvCall::Put {
                    key: key.to_vec(),
                    value,
                };
                let kp = Keypair::from_seed([seed; 32]);
                Transaction::sign(&kp, height - 1, "kvstore", call.to_encoded_bytes())
            };
            let txs = vec![
                put(5, b"acct", format!("stock bank memo {height}").into_bytes()),
                put(6, b"balance", (height * 10).to_be_bytes().to_vec()),
            ];
            self.miner.mine(txs, height).unwrap()
        }

        /// Stages `block` and certifies it: the index certificates the SP
        /// must now accept.
        fn stage_and_certify(&mut self, block: &Block) -> Vec<Certificate> {
            let inputs = self.sp.stage_block(block).unwrap();
            self.ci.certify_augmented(block, &inputs).unwrap().0
        }

        /// Mines one block and runs it through the full stage → certify →
        /// advance loop.
        fn certified_block(&mut self, height: u64) -> Block {
            let block = self.mine(height);
            let certs = self.stage_and_certify(&block);
            self.sp.advance(Some(&certs)).unwrap();
            block
        }
    }

    /// A refused certificate list leaves the SP — its anchors, its
    /// store's head region — as it was, and the honest list still lands.
    #[test]
    fn advance_refuses_misbound_certificate_lists_typed() {
        let mut world = CertifiedWorld::new();
        world.certified_block(1);
        let previous: Vec<Certificate> = CERTIFIED_INDEXES
            .map(|(_, name)| world.sp.certificate(name).unwrap().clone())
            .to_vec();
        let block = world.mine(2);
        let certs = world.stage_and_certify(&block);
        let unbound = |index: &str| SpError::Cert {
            index: index.to_owned(),
            error: CertError::DigestMismatch,
        };
        let mut forged = certs.clone();
        forged[1].signature = forged[0].signature;
        let table: [(&str, Vec<Certificate>, SpError); 4] = [
            (
                "short list",
                certs[..1].to_vec(),
                SpError::CertCount {
                    expected: 3,
                    got: 1,
                },
            ),
            (
                "reordered list",
                vec![certs[1].clone(), certs[0].clone(), certs[2].clone()],
                unbound("history"),
            ),
            ("previous block's", previous, unbound("history")),
            (
                "forged signature",
                forged,
                SpError::Cert {
                    index: "inverted".to_owned(),
                    error: CertError::BadSignature,
                },
            ),
        ];
        let head = |sp: &ServiceProvider| sp.store.as_ref().unwrap().0.head_entries();
        for (what, list, want) in table {
            let before = (head(&world.sp), world.sp.certificate("history").cloned());
            assert_eq!(world.sp.advance(Some(&list)), Err(want), "{what}");
            let after = (head(&world.sp), world.sp.certificate("history").cloned());
            assert_eq!(before, after, "{what}: the SP is untouched");
        }
        world.sp.advance(Some(&certs)).unwrap();
        assert_eq!(world.sp.certificate("history"), Some(&certs[0]));
        let store = world.sp.take_store().unwrap();
        assert_eq!(world.recover(store).unwrap().height(), 2);
    }

    #[test]
    fn store_round_trips_through_recovery_and_resync() {
        let mut world = CertifiedWorld::new();
        for height in 1..=4u64 {
            world.certified_block(height);
        }
        assert!(world.sp.store_error().is_none());

        let store = world.sp.take_store().unwrap();
        assert_eq!(store.durable_height(), 4);
        let recovered = world.recover(store).unwrap();

        // The recovered SP stands where the live one does and serves
        // exactly what it does.
        assert_eq!(recovered.height(), 4);
        assert_eq!(
            recovered.node.state().root(),
            world.sp.node.state().root(),
            "the chain view is recovered with the indexes"
        );
        for (_, name) in CERTIFIED_INDEXES {
            assert_eq!(recovered.digest(name), world.sp.digest(name));
            assert_eq!(
                recovered.certificate(name).map(Encode::to_encoded_bytes),
                world.sp.certificate(name).map(Encode::to_encoded_bytes),
            );
        }
        let key = StateKey::new("kvstore", b"acct");
        let (live_res, live_proof) = world.sp.serve_history("history", &key, 0, 100).unwrap();
        let (rec_res, rec_proof) = recovered.serve_history("history", &key, 0, 100).unwrap();
        assert_eq!(live_res, rec_res);
        assert_eq!(live_proof.to_encoded_bytes(), rec_proof.to_encoded_bytes());
        let (live_kw, _) = world
            .sp
            .serve_keywords("inverted", &["stock", "bank"])
            .unwrap();
        let (rec_kw, _) = recovered
            .serve_keywords("inverted", &["stock", "bank"])
            .unwrap();
        assert_eq!(live_kw, rec_kw);
        let balance = StateKey::new("kvstore", b"balance");
        let (live_agg, live_proof) = world
            .sp
            .serve_aggregate("aggregate", &balance, 0, 100)
            .unwrap();
        let (rec_agg, rec_proof) = recovered
            .serve_aggregate("aggregate", &balance, 0, 100)
            .unwrap();
        assert_eq!(live_agg.to_encoded_bytes(), rec_agg.to_encoded_bytes());
        assert_eq!(live_proof.to_encoded_bytes(), rec_proof.to_encoded_bytes());
        assert_ne!(
            recovered.digest("aggregate"),
            Some(Hash::ZERO),
            "the aggregate index tracks the balance"
        );

        // Staging continues at the next height, identically to the
        // uninterrupted SP.
        let mut recovered = recovered;
        let block5 = world.certified_block(5);
        let inputs = recovered.stage_block(&block5).unwrap();
        assert_eq!(inputs.len(), CERTIFIED_INDEXES.len());
        recovered.advance(None).unwrap();
        for (_, name) in CERTIFIED_INDEXES {
            assert_eq!(
                recovered.digest(name),
                world.sp.digest(name),
                "post-recovery staging converges with the live SP"
            );
        }
    }

    /// A committed page that decodes but does not follow — the honest
    /// block at height 2 with its state root altered, re-framed into a
    /// copy of the store under the same head entries — is refused, typed.
    #[test]
    fn recovery_refuses_a_committed_block_that_does_not_follow() {
        let mut world = CertifiedWorld::new();
        world.certified_block(1);
        world.certified_block(2);
        let store = world.sp.take_store().unwrap();
        let mut copy = MemStore::new();
        for mut record in store.records() {
            if record.height == 2 {
                let mut block = Block::decode_all(&record.body).unwrap();
                block.header.state_root = Hash::from_bytes([0xEE; 32]);
                record.body = block.to_encoded_bytes();
            }
            copy.append(&record).unwrap();
        }
        for (key, value) in store.head_entries() {
            copy.put_head(&key, value).unwrap();
        }
        copy.sync().unwrap();
        assert_eq!(copy.durable_height(), 2);

        let err = world.recover(Box::new(copy)).unwrap_err();
        assert!(
            matches!(err, RecoverError::Store(StoreError::VerifyFailed(_))),
            "got {err:?}"
        );
        // The honest store still recovers.
        assert_eq!(world.recover(store).unwrap().height(), 2);
    }

    #[test]
    fn recovery_refuses_tampered_digest() {
        let mut world = CertifiedWorld::new();
        world.certified_block(1);
        let mut store = world.sp.take_store().unwrap();

        let key = format!("{SP_CERT_PREFIX}history");
        let mut entry = CertifiedEntry::decode_all(&store.head(&key).unwrap()).unwrap();
        entry.digest = Hash::from_bytes([0xAB; 32]);
        store.put_head(&key, entry.to_encoded_bytes()).unwrap();
        store.sync().unwrap();

        let err = world.recover(store).unwrap_err();
        assert!(
            matches!(err, RecoverError::Store(StoreError::VerifyFailed(_))),
            "got {err:?}"
        );
    }

    #[test]
    fn recovery_refuses_forged_certificate_anchor() {
        let mut world = CertifiedWorld::new();
        world.certified_block(1);
        let mut store = world.sp.take_store().unwrap();

        let key = format!("{SP_CERT_PREFIX}history");
        let mut entry = CertifiedEntry::decode_all(&store.head(&key).unwrap()).unwrap();
        // Claim the certificate covers a different digest than it signs.
        if let Some((_, cert_digest, _)) = &mut entry.anchor {
            *cert_digest = Hash::from_bytes([0xCD; 32]);
        }
        store.put_head(&key, entry.to_encoded_bytes()).unwrap();
        store.sync().unwrap();

        let err = world.recover(store).unwrap_err();
        assert!(matches!(err, RecoverError::Cert(_)), "got {err:?}");
    }

    #[test]
    fn recovery_refuses_undecodable_head_entry() {
        let mut world = CertifiedWorld::new();
        world.certified_block(1);
        let mut store = world.sp.take_store().unwrap();
        store
            .put_head(&format!("{SP_CERT_PREFIX}history"), vec![0xFF; 3])
            .unwrap();
        store.sync().unwrap();
        let err = world.recover(store).unwrap_err();
        assert!(matches!(err, RecoverError::Codec(_)), "got {err:?}");
    }

    #[test]
    fn recovery_ignores_uncommitted_tail() {
        let mut world = CertifiedWorld::new();
        world.certified_block(1);
        world.certified_block(2);
        // Stage height 3 but never advance: records exist, the committed
        // watermark does not cover them.
        let kp = Keypair::from_seed([5; 32]);
        let tx = Transaction::sign(&kp, 2, "kvstore", b"uncommitted".to_vec());
        let block = world.miner.mine(vec![tx], 3).unwrap();
        world.sp.stage_block(&block).unwrap();

        let store = world.sp.take_store().unwrap();
        let recovered = world.recover(store).unwrap();
        assert_eq!(recovered.height(), 2);
    }

    /// A staged block's page is the block itself; the head entry
    /// round-trips its codec.
    #[test]
    fn page_and_entry_codecs_round_trip() {
        let mut world = CertifiedWorld::new();
        let block = world.certified_block(1);
        let records = world.sp.take_store().unwrap().records();
        let pages: Vec<Block> = records
            .iter()
            .map(|record| Block::decode_all(&record.body).unwrap())
            .collect();
        assert_eq!(pages, vec![block]);
        assert!(records.iter().all(|r| r.stream == StreamId::Blocks));
        let entry = CertifiedEntry {
            digest: Hash::from_bytes([9; 32]),
            anchor: None,
        };
        assert_eq!(
            CertifiedEntry::decode_all(&entry.to_encoded_bytes()).unwrap(),
            entry
        );
    }
}
