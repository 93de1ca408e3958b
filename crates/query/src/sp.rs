//! The Query Service Provider (SP).
//!
//! A full node that maintains any number of authenticated indexes over the
//! chain, stages per-block update proofs for the Certificate Issuer, and
//! serves verifiable queries to superlight clients (Fig. 2 of the paper).

use std::collections::BTreeMap;
use std::sync::Arc;

use dcert_chain::{Block, ChainError, ChainState, ConsensusEngine, FullNode};
use dcert_core::{Certificate, IndexInput, IndexVerifier, RecoverError};
use dcert_obs::{Buckets, Counter, Histogram, Registry};
use dcert_primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{Address, Hash};
use dcert_primitives::keys::PublicKey;
use dcert_sgx::cost::timed;
use dcert_store::{Record, Store, StoreError, StreamId};
use dcert_vm::{Executor, StateKey};

use crate::aggregate::{AggQueryProof, Aggregate, AggregateIndex, AggregateVerifier};
use crate::history::{HistoryIndex, HistoryProof, HistoryVerifier, Version};
use crate::inverted::{InvertedIndex, InvertedVerifier, KeywordProof};
use crate::two_level::{IndexFlavor, TwoLevelIndex};

/// Head-region key under which the SP commits its replay watermark: the
/// highest block height whose index updates (and record pages) are
/// durable *and* accounted for by the committed per-index digests.
pub const SP_HEIGHT_KEY: &str = "sp.height";

/// Head-region key prefix for per-index certified state; the index name
/// follows the prefix.
pub const SP_CERT_PREFIX: &str = "sp.cert.";

/// One block's state writes, as persisted in the [`StreamId::Writes`]
/// record stream. Replaying these pages in height order reproduces every
/// history and aggregate index byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WritesPage {
    /// The executed block's writes, in execution order.
    pub writes: Vec<(StateKey, Option<Vec<u8>>)>,
}

impl Encode for WritesPage {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.writes, out);
    }
}

impl Decode for WritesPage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WritesPage {
            writes: decode_seq(r)?,
        })
    }
}

/// One block's keyword appends (as derived by the inverted index from the
/// block body), persisted in the [`StreamId::Keywords`] record stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeywordPage {
    /// Per-keyword transaction-id appends, sorted by keyword.
    pub appends: Vec<(String, Vec<Hash>)>,
}

impl Encode for KeywordPage {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.appends, out);
    }
}

impl Decode for KeywordPage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(KeywordPage {
            appends: decode_seq(r)?,
        })
    }
}

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

impl Encode for CertifiedEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.digest.encode(out);
        self.anchor.encode(out);
    }
}

impl Decode for CertifiedEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CertifiedEntry {
            digest: Hash::decode(r)?,
            anchor: Option::decode(r)?,
        })
    }
}

/// An index the SP maintains block by block.
///
/// Implemented by every [`TwoLevelIndex`] ([`HistoryIndex`],
/// [`AggregateIndex`]) and by [`InvertedIndex`]; the object-safe
/// surface is what [`ServiceProvider`] drives, while querying goes through
/// the concrete types.
pub trait MaintainedIndex: Send {
    /// The registered index-type name.
    fn type_name(&self) -> &str;
    /// The current digest `H_idx`.
    fn digest(&self) -> Hash;
    /// Applies one block, returning `(aux, new_digest)` for certification.
    fn apply_block(
        &mut self,
        block: &Block,
        writes: &[(StateKey, Option<Vec<u8>>)],
    ) -> (Vec<u8>, Hash);
}

impl<F: IndexFlavor> MaintainedIndex for TwoLevelIndex<F>
where
    Self: Send,
{
    fn type_name(&self) -> &str {
        self.name()
    }
    fn digest(&self) -> Hash {
        TwoLevelIndex::digest(self)
    }
    fn apply_block(
        &mut self,
        block: &Block,
        writes: &[(StateKey, Option<Vec<u8>>)],
    ) -> (Vec<u8>, Hash) {
        TwoLevelIndex::apply_block(self, block.header.height, writes)
    }
}

impl MaintainedIndex for InvertedIndex {
    fn type_name(&self) -> &str {
        self.name()
    }
    fn digest(&self) -> Hash {
        InvertedIndex::digest(self)
    }
    fn apply_block(
        &mut self,
        block: &Block,
        _writes: &[(StateKey, Option<Vec<u8>>)],
    ) -> (Vec<u8>, Hash) {
        InvertedIndex::apply_block(self, block)
    }
}

/// Which kind of index to instantiate under a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    histories: BTreeMap<String, HistoryIndex>,
    inverteds: BTreeMap<String, InvertedIndex>,
    aggregates: BTreeMap<String, AggregateIndex>,
    /// Last *certified* digest and certificate per index.
    certified: BTreeMap<String, (Hash, Option<Certificate>)>,
    /// Digests staged by the latest `stage_block`, awaiting certificates.
    staged: Vec<(String, Hash)>,
    /// `(header_hash, certified_digest)` each index's latest certificate
    /// was issued for — what recovery re-verifies the certificate against.
    anchors: BTreeMap<String, (Hash, Hash)>,
    /// Highest block height already applied to the indexes. Equal to the
    /// chain height in normal operation; after [`ServiceProvider::recover_from`]
    /// it runs ahead of the genesis chain state until the caller re-syncs.
    index_height: u64,
    /// Height and header hash of the most recently staged block.
    staged_at: Option<(u64, Hash)>,
    /// Durable backend, when persistence is attached.
    store: Option<Box<dyn Store>>,
    /// First store failure; once set, persistence stops (queries keep
    /// serving) and the error is reported via [`ServiceProvider::store_error`].
    store_error: Option<StoreError>,
    obs: Option<SpObs>,
}

impl std::fmt::Debug for ServiceProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceProvider")
            .field("height", &self.node.height())
            .field("histories", &self.histories.len())
            .field("inverteds", &self.inverteds.len())
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
            histories: BTreeMap::new(),
            inverteds: BTreeMap::new(),
            aggregates: BTreeMap::new(),
            certified: BTreeMap::new(),
            staged: Vec::new(),
            anchors: BTreeMap::new(),
            index_height: 0,
            staged_at: None,
            store: None,
            store_error: None,
            obs: None,
        }
    }

    /// Attaches a durable [`Store`]: every block staged from here on has
    /// its writes and keyword appends appended as records, and
    /// [`ServiceProvider::record_certs`] / [`ServiceProvider::advance_staged`]
    /// commit the per-index digests (plus the latest certificates) to the
    /// head region before syncing.
    ///
    /// Store failures never interrupt serving: the first one is latched
    /// (see [`ServiceProvider::store_error`]) and persistence stops.
    ///
    /// # Panics
    ///
    /// Panics unless the SP is at genesis and the store holds no records —
    /// resuming an existing store goes through
    /// [`ServiceProvider::recover_from`].
    pub fn attach_store(&mut self, store: Box<dyn Store>) {
        assert_eq!(self.node.height(), 0, "attach_store requires a genesis SP");
        assert_eq!(
            store.max_height(),
            0,
            "attach_store requires an empty store; use recover_from"
        );
        self.store = Some(store);
    }

    /// The first store failure, if persistence has been poisoned.
    pub fn store_error(&self) -> Option<&StoreError> {
        self.store_error.as_ref()
    }

    /// Detaches and returns the store (e.g. to close and later recover
    /// from it). Persistence stops; the SP keeps serving from memory.
    pub fn take_store(&mut self) -> Option<Box<dyn Store>> {
        self.store.take()
    }

    /// Highest block height already applied to the indexes. Runs ahead of
    /// [`ServiceProvider::height`] after a recovery, until the caller
    /// re-syncs the chain through [`ServiceProvider::stage_block`].
    pub fn index_height(&self) -> u64 {
        self.index_height
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
        assert_eq!(self.index_height, 0, "indexes must start from genesis");
        let fresh = self
            .certified
            .insert(name.to_owned(), (Hash::ZERO, None))
            .is_none();
        assert!(fresh, "duplicate index name {name}");
        match kind {
            IndexKind::History => {
                self.histories
                    .insert(name.to_owned(), HistoryIndex::new(name));
            }
            IndexKind::Inverted => {
                self.inverteds
                    .insert(name.to_owned(), InvertedIndex::new(name));
            }
            IndexKind::Aggregate => {
                self.aggregates
                    .insert(name.to_owned(), AggregateIndex::new(name));
            }
        }
    }

    /// Builds the enclave-side verifiers matching the registered indexes —
    /// hand these to [`CertificateIssuer::new`](dcert_core::CertificateIssuer::new).
    pub fn verifiers(&self) -> Vec<Box<dyn IndexVerifier>> {
        let mut out: Vec<Box<dyn IndexVerifier>> = Vec::new();
        for name in self.histories.keys() {
            out.push(Box::new(HistoryVerifier::new(name.clone())));
        }
        for name in self.inverteds.keys() {
            out.push(Box::new(InvertedVerifier::new(name.clone())));
        }
        for name in self.aggregates.keys() {
            out.push(Box::new(AggregateVerifier::new(name.clone())));
        }
        out
    }

    /// The SP's chain height.
    pub fn height(&self) -> u64 {
        self.node.height()
    }

    /// Access a history index for querying.
    pub fn history(&self, name: &str) -> Option<&HistoryIndex> {
        self.histories.get(name)
    }

    /// Access an inverted index for querying.
    pub fn inverted(&self, name: &str) -> Option<&InvertedIndex> {
        self.inverteds.get(name)
    }

    /// Access an aggregate index for querying.
    pub fn aggregate(&self, name: &str) -> Option<&AggregateIndex> {
        self.aggregates.get(name)
    }

    /// The measured query path behind every `serve_*`: runs `query`, then
    /// records its serving time, VO size and result count (`results` of
    /// the answer) under `family` into the attached registry, if any.
    fn measured<A, P: Encode>(
        &self,
        family: fn(&SpObs) -> &Counter,
        results: fn(&A) -> usize,
        query: impl FnOnce() -> (A, P),
    ) -> (A, P) {
        let ((answer, proof), took) = timed(query);
        if let Some(obs) = &self.obs {
            let as_u64 = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
            obs.queries.inc();
            family(obs).inc();
            obs.vo_bytes.observe(as_u64(proof.encoded_len()));
            obs.results.observe(as_u64(results(&answer)));
            obs.serve_ns.record(took);
        }
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
        let index = self.histories.get(name)?;
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
        let index = self.inverteds.get(name)?;
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
        let index = self.aggregates.get(name)?;
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

    /// Processes one block: executes it, updates every index, advances the
    /// chain, and returns the [`IndexInput`]s the CI needs (in the same
    /// deterministic order as [`ServiceProvider::verifiers`]).
    ///
    /// # Errors
    ///
    /// Propagates block-validation errors; indexes are only updated when
    /// the block is valid.
    // expect() here reads SP-internal bookkeeping seeded by register_* (see
    // the dcert-lint rationale at the call site).
    #[allow(clippy::expect_used)]
    pub fn stage_block(&mut self, block: &Block) -> Result<Vec<IndexInput>, ChainError> {
        // Post-recovery catch-up: the indexes (and the store) already hold
        // this height, so only the chain state advances. Nothing is staged
        // — these blocks were certified before the restart.
        if block.header.height <= self.index_height {
            self.node.apply(block)?;
            return Ok(Vec::new());
        }
        // Validate + advance the chain first; a bad block must not touch
        // the indexes. The indexes are fed from the execution the node
        // validated.
        let execution = self.node.apply(block)?;
        let writes: Vec<(StateKey, Option<Vec<u8>>)> = execution.writes.into_iter().collect();

        // Persist the raw material recovery replays: the block's writes
        // (rebuilds history/aggregate indexes) and its keyword appends
        // (rebuilds inverted indexes). Volatile until the commit in
        // record_certs / advance_staged syncs.
        if self.store.is_some() {
            let height = block.header.height;
            let mut writes_body = Vec::new();
            encode_seq(&writes, &mut writes_body);
            self.persist(height, StreamId::Writes, writes_body);
            let appends: Vec<(String, Vec<Hash>)> =
                InvertedIndex::block_appends(block).into_iter().collect();
            let mut keywords_body = Vec::new();
            encode_seq(&appends, &mut keywords_body);
            self.persist(height, StreamId::Keywords, keywords_body);
        }

        // Borrow the index maps and the bookkeeping as disjoint fields so
        // the update loop can stream `&str` keys straight out of the maps —
        // no intermediate Vec collections, no per-index key clone just to
        // look up `certified`.
        let ServiceProvider {
            histories,
            inverteds,
            aggregates,
            certified,
            staged,
            ..
        } = self;
        staged.clear();
        let mut inputs = Vec::with_capacity(histories.len() + inverteds.len() + aggregates.len());
        fn as_dyn<I: MaintainedIndex>(
            map: &mut BTreeMap<String, I>,
        ) -> impl Iterator<Item = (&str, &mut dyn MaintainedIndex)> {
            map.iter_mut()
                .map(|(name, index)| (name.as_str(), index as &mut dyn MaintainedIndex))
        }
        let indexes = as_dyn(histories)
            .chain(as_dyn(inverteds))
            .chain(as_dyn(aggregates));
        for (name, index) in indexes {
            let (prev_digest, prev_cert) = certified
                .get(name)
                .cloned()
                // dcert-lint: allow(r2-panic-freedom, r5-panic-reachability, reason = "SP-internal bookkeeping: register_* seeds this map for every index it iterates")
                .expect("registered index has bookkeeping");
            let (aux, new_digest) = index.apply_block(block, &writes);
            staged.push((name.to_owned(), new_digest));
            inputs.push(IndexInput {
                index_type: name.to_owned(),
                prev_digest,
                prev_cert,
                new_digest,
                aux,
            });
        }
        self.index_height = block.header.height;
        self.staged_at = Some((block.header.height, block.header.hash()));
        Ok(inputs)
    }

    /// Appends one record if a healthy store is attached; a failure
    /// latches [`ServiceProvider::store_error`] and stops persistence.
    fn persist(&mut self, height: u64, stream: StreamId, body: Vec<u8>) {
        if let (Some(store), None) = (&mut self.store, &self.store_error) {
            let record = Record {
                height,
                stream,
                body,
            };
            self.store_error = store.append(&record).err();
        }
    }

    /// Commits the current certified state to the store's head region and
    /// syncs, making every record staged for the committed height durable.
    /// Called from [`ServiceProvider::record_certs`] and
    /// [`ServiceProvider::advance_staged`] — the two points where the SP's
    /// in-memory bookkeeping reaches a consistent post-block state.
    fn commit_store(&mut self) {
        let (Some(store), None) = (&mut self.store, &self.store_error) else {
            return;
        };
        let mut entries = Vec::with_capacity(self.certified.len() + 1);
        for (name, (digest, cert)) in &self.certified {
            let anchor = match (cert, self.anchors.get(name)) {
                (Some(c), Some((header_hash, cert_digest))) => {
                    Some((*header_hash, *cert_digest, c.clone()))
                }
                _ => None,
            };
            let entry = CertifiedEntry {
                digest: *digest,
                anchor,
            };
            entries.push((format!("{SP_CERT_PREFIX}{name}"), entry.to_encoded_bytes()));
        }
        entries.push((
            SP_HEIGHT_KEY.to_owned(),
            self.index_height.to_encoded_bytes(),
        ));
        let committed = entries
            .into_iter()
            .try_for_each(|(key, value)| store.put_head(&key, value))
            .and_then(|()| store.sync());
        self.store_error = committed.err();
    }

    /// Records the certificates the CI issued for the last staged block,
    /// in the same order as the returned [`IndexInput`]s.
    ///
    /// # Panics
    ///
    /// Panics if the count does not match the staged updates.
    pub fn record_certs(&mut self, certs: &[Certificate]) {
        assert_eq!(certs.len(), self.staged.len(), "certificate count mismatch");
        let header_hash = self.staged_at.map(|(_, h)| h);
        for ((name, digest), cert) in self.staged.drain(..).zip(certs) {
            if let Some(obs) = &self.obs {
                obs.cert_bytes
                    .observe(u64::try_from(cert.encoded_len()).unwrap_or(u64::MAX));
            }
            if let Some(hh) = header_hash {
                self.anchors.insert(name.clone(), (hh, digest));
            }
            self.certified.insert(name, (digest, Some(cert.clone())));
        }
        self.commit_store();
    }

    /// Marks the last staged updates as headed for certification without
    /// waiting for the certificates themselves.
    ///
    /// In pipelined mode the issuer stage owns the `prev_cert` chain and
    /// splices freshly issued certificates into each request, so the SP
    /// only needs its digest bookkeeping advanced before staging the next
    /// block. The certificates recorded here stay at their last
    /// [`ServiceProvider::record_certs`] value (`None` if never recorded).
    // expect() here reads SP-internal bookkeeping seeded by register_* (see
    // the dcert-lint rationale at the call site).
    #[allow(clippy::expect_used)]
    pub fn advance_staged(&mut self) {
        for (name, digest) in self.staged.drain(..) {
            let entry = self
                .certified
                .get_mut(&name)
                // dcert-lint: allow(r2-panic-freedom, r5-panic-reachability, reason = "SP-internal bookkeeping: register_* seeds this map for every index it stages")
                .expect("registered index has bookkeeping");
            entry.0 = digest;
        }
        self.commit_store();
    }

    /// The latest certified digest of an index (for serving clients).
    pub fn certified_digest(&self, name: &str) -> Option<Hash> {
        self.certified.get(name).map(|(d, _)| *d)
    }

    /// The latest certificate of an index.
    pub fn certificate(&self, name: &str) -> Option<&Certificate> {
        self.certified.get(name).and_then(|(_, c)| c.as_ref())
    }

    /// The current digest of the named index, across all three families.
    fn live_digest(&self, name: &str) -> Option<Hash> {
        self.histories
            .get(name)
            .map(|i| i.digest())
            .or_else(|| self.inverteds.get(name).map(|i| i.digest()))
            .or_else(|| self.aggregates.get(name).map(|i| i.digest()))
    }

    /// Rebuilds this SP's indexes and certificate bookkeeping from a
    /// store written by [`ServiceProvider::attach_store`], consuming a
    /// freshly built genesis SP with the same indexes registered.
    ///
    /// Replay is bounded by the committed watermark ([`SP_HEIGHT_KEY`]):
    /// record pages beyond it (the redo tail of a crash) are ignored,
    /// because their index updates were never acknowledged. After replay
    /// every index digest must match its committed head entry, and every
    /// recorded certificate must still verify under the caller-supplied
    /// trust anchors — the disk is untrusted input, so any mismatch
    /// refuses with a typed error instead of serving.
    ///
    /// On success the store stays attached and persistence continues.
    /// Chain state is still at genesis: the caller re-syncs blocks
    /// through [`ServiceProvider::stage_block`], which applies heights up
    /// to [`ServiceProvider::index_height`] to the chain only.
    ///
    /// # Errors
    ///
    /// [`RecoverError`] when a page or head entry does not decode, a
    /// replayed digest does not match its committed one, or a recovered
    /// certificate fails re-verification.
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
        assert_eq!(self.index_height, 0, "recover_from requires a genesis SP");
        let refused = |why| RecoverError::Store(StoreError::VerifyFailed(why));
        let committed = match store.head(SP_HEIGHT_KEY) {
            Some(bytes) => u64::decode_all(&bytes)?,
            None => 0,
        };

        // Collect the record pages covered by the commit.
        let mut writes_pages: BTreeMap<u64, WritesPage> = BTreeMap::new();
        let mut keyword_pages: BTreeMap<u64, KeywordPage> = BTreeMap::new();
        for record in store.records() {
            if record.height > committed {
                continue; // uncommitted redo tail: never acknowledged, never replayed
            }
            match record.stream {
                StreamId::Writes => {
                    writes_pages.insert(record.height, WritesPage::decode_all(&record.body)?);
                }
                StreamId::Keywords => {
                    keyword_pages.insert(record.height, KeywordPage::decode_all(&record.body)?);
                }
                // Other streams (e.g. a co-hosted certificate archive)
                // are not the SP's to replay.
                _ => {}
            }
        }

        // Replay in height order; a gap below the watermark means
        // acknowledged data is missing, so recovery refuses.
        for height in 1..=committed {
            let writes = writes_pages
                .get(&height)
                .ok_or(refused("missing writes page below the committed watermark"))?;
            let keywords = keyword_pages.get(&height).ok_or(refused(
                "missing keyword page below the committed watermark",
            ))?;
            for index in self.histories.values_mut() {
                HistoryIndex::apply_block(index, height, &writes.writes);
            }
            for index in self.aggregates.values_mut() {
                AggregateIndex::apply_block(index, height, &writes.writes);
            }
            for index in self.inverteds.values_mut() {
                index.replay_appends(&keywords.appends);
            }
        }

        // Re-verify: every committed digest must equal the replayed one,
        // and the latest certificate must still prove its anchor.
        let names: Vec<String> = self.certified.keys().cloned().collect();
        for name in &names {
            let key = format!("{SP_CERT_PREFIX}{name}");
            let Some(bytes) = store.head(&key) else {
                if committed == 0 {
                    continue; // fresh store: nothing committed yet
                }
                return Err(refused("missing per-index head entry"));
            };
            let entry = CertifiedEntry::decode_all(&bytes)?;
            let replayed = self.live_digest(name).unwrap_or(Hash::ZERO);
            if entry.digest != replayed {
                return Err(refused(
                    "replayed index digest does not match the committed digest",
                ));
            }
            if let Some((header_hash, cert_digest, cert)) = &entry.anchor {
                cert.verify(
                    ias_key,
                    measurement,
                    &Certificate::index_digest(header_hash, cert_digest),
                )
                .map_err(RecoverError::Cert)?;
                self.anchors
                    .insert(name.clone(), (*header_hash, *cert_digest));
            }
            self.certified.insert(
                name.clone(),
                (entry.digest, entry.anchor.map(|(_, _, c)| c)),
            );
        }
        // A head entry for an index this SP does not maintain means the
        // store belongs to a differently-configured SP: refuse rather
        // than silently drop certified state.
        for (key, _) in store.head_entries() {
            if let Some(name) = key.strip_prefix(SP_CERT_PREFIX) {
                if !self.certified.contains_key(name) {
                    return Err(refused("head entry for an unregistered index"));
                }
            }
        }

        self.index_height = committed;
        self.store = Some(store);
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
        sp.add_index(IndexKind::History, "history");
        sp.add_index(IndexKind::Inverted, "inverted");
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

    #[test]
    fn verifiers_match_indexes() {
        let (_, sp) = setup();
        let verifiers = sp.verifiers();
        let names: Vec<&str> = verifiers.iter().map(|v| v.type_name()).collect();
        assert_eq!(names, vec!["history", "inverted"]);
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

    /// A miner, an SP (history + inverted), and a CI wired with the SP's
    /// verifiers — plus the trust anchors recovery needs.
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
            sp.add_index(IndexKind::History, "history");
            sp.add_index(IndexKind::Inverted, "inverted");
            let mut ias = AttestationService::with_seed([42; 32]);
            let ci = CertificateIssuer::new(
                &genesis,
                state.clone(),
                executor.clone(),
                engine.clone(),
                sp.verifiers(),
                &mut ias,
                CostModel::zero(),
            )
            .expect("CI boots");
            CertifiedWorld {
                miner,
                sp,
                ci,
                ias_key: ias.public_key(),
                measurement: expected_measurement(),
                genesis,
                state,
                executor,
                engine,
            }
        }

        fn genesis_sp(&self) -> ServiceProvider {
            let mut sp = ServiceProvider::new(
                &self.genesis,
                self.state.clone(),
                self.executor.clone(),
                self.engine.clone(),
            );
            sp.add_index(IndexKind::History, "history");
            sp.add_index(IndexKind::Inverted, "inverted");
            sp
        }

        /// Mines one keyword-bearing kvstore block and runs it through the
        /// full stage → certify → record loop.
        fn certified_block(&mut self, height: u64) -> Block {
            let kp = Keypair::from_seed([5; 32]);
            let tx = Transaction::sign(
                &kp,
                height - 1,
                "kvstore",
                dcert_workloads::kvstore::KvCall::Put {
                    key: b"acct".to_vec(),
                    value: format!("stock bank memo {height}").into_bytes(),
                }
                .to_encoded_bytes(),
            );
            let block = self.miner.mine(vec![tx], height).unwrap();
            let inputs = self.sp.stage_block(&block).unwrap();
            let (certs, _) = self.ci.certify_augmented(&block, &inputs).unwrap();
            self.sp.record_certs(&certs);
            block
        }
    }

    #[test]
    fn store_round_trips_through_recovery_and_resync() {
        let mut world = CertifiedWorld::new();
        world.sp.attach_store(Box::new(MemStore::new()));
        let blocks: Vec<Block> = (1..=4u64).map(|h| world.certified_block(h)).collect();
        assert!(world.sp.store_error().is_none());

        let store = world.sp.take_store().unwrap();
        assert_eq!(store.durable_height(), 4);
        let recovered = world
            .genesis_sp()
            .recover_from(&world.ias_key, &world.measurement, store)
            .unwrap();

        // The recovered SP serves exactly what the live one does.
        assert_eq!(recovered.index_height(), 4);
        assert_eq!(recovered.height(), 0, "chain state resyncs separately");
        for name in ["history", "inverted"] {
            assert_eq!(
                recovered.certified_digest(name),
                world.sp.certified_digest(name)
            );
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

        // Re-syncing the chain skips the already-recovered heights, then
        // staging continues identically to the uninterrupted SP.
        let mut recovered = recovered;
        for block in &blocks {
            let inputs = recovered.stage_block(block).unwrap();
            assert!(inputs.is_empty(), "catch-up stages nothing");
        }
        assert_eq!(recovered.height(), 4);
        let block5 = world.certified_block(5);
        let inputs = recovered.stage_block(&block5).unwrap();
        assert_eq!(inputs.len(), 2);
        recovered.advance_staged();
        for name in ["history", "inverted"] {
            assert_eq!(
                recovered.certified_digest(name),
                world.sp.certified_digest(name),
                "post-recovery staging converges with the live SP"
            );
        }
    }

    #[test]
    fn recovery_refuses_tampered_digest() {
        let mut world = CertifiedWorld::new();
        world.sp.attach_store(Box::new(MemStore::new()));
        world.certified_block(1);
        let mut store = world.sp.take_store().unwrap();

        let key = format!("{SP_CERT_PREFIX}history");
        let mut entry = CertifiedEntry::decode_all(&store.head(&key).unwrap()).unwrap();
        entry.digest = Hash::from_bytes([0xAB; 32]);
        store.put_head(&key, entry.to_encoded_bytes()).unwrap();
        store.sync().unwrap();

        let err = world
            .genesis_sp()
            .recover_from(&world.ias_key, &world.measurement, store)
            .unwrap_err();
        assert!(
            matches!(err, RecoverError::Store(StoreError::VerifyFailed(_))),
            "got {err:?}"
        );
    }

    #[test]
    fn recovery_refuses_forged_certificate_anchor() {
        let mut world = CertifiedWorld::new();
        world.sp.attach_store(Box::new(MemStore::new()));
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

        let err = world
            .genesis_sp()
            .recover_from(&world.ias_key, &world.measurement, store)
            .unwrap_err();
        assert!(matches!(err, RecoverError::Cert(_)), "got {err:?}");
    }

    #[test]
    fn recovery_refuses_undecodable_head_entry() {
        let mut world = CertifiedWorld::new();
        world.sp.attach_store(Box::new(MemStore::new()));
        world.certified_block(1);
        let mut store = world.sp.take_store().unwrap();
        store
            .put_head(&format!("{SP_CERT_PREFIX}history"), vec![0xFF; 3])
            .unwrap();
        store.sync().unwrap();
        let err = world
            .genesis_sp()
            .recover_from(&world.ias_key, &world.measurement, store)
            .unwrap_err();
        assert!(matches!(err, RecoverError::Codec(_)), "got {err:?}");
    }

    #[test]
    fn recovery_ignores_uncommitted_tail() {
        let mut world = CertifiedWorld::new();
        world.sp.attach_store(Box::new(MemStore::new()));
        world.certified_block(1);
        world.certified_block(2);
        // Stage height 3 but never record/advance: records exist, the
        // committed watermark does not cover them.
        let kp = Keypair::from_seed([5; 32]);
        let tx = Transaction::sign(&kp, 2, "kvstore", b"uncommitted".to_vec());
        let block = world.miner.mine(vec![tx], 3).unwrap();
        world.sp.stage_block(&block).unwrap();

        let store = world.sp.take_store().unwrap();
        let recovered = world
            .genesis_sp()
            .recover_from(&world.ias_key, &world.measurement, store)
            .unwrap();
        assert_eq!(recovered.index_height(), 2);
    }

    #[test]
    fn page_and_entry_codecs_round_trip() {
        let page = WritesPage {
            writes: vec![
                (StateKey::new("kvstore", b"a"), Some(vec![1, 2, 3])),
                (StateKey::new("kvstore", b"b"), None),
            ],
        };
        assert_eq!(
            WritesPage::decode_all(&page.to_encoded_bytes()).unwrap(),
            page
        );
        let kws = KeywordPage {
            appends: vec![("stock".to_owned(), vec![Hash::from_bytes([7; 32])])],
        };
        assert_eq!(
            KeywordPage::decode_all(&kws.to_encoded_bytes()).unwrap(),
            kws
        );
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
