//! A mining/validating full node.
//!
//! The node's one use of more than one core is its transaction-signature
//! pass: [`check_signatures`] over contiguous chunks of a block's body, in
//! lanes. This module is host-only; the enclave runs the same function
//! once over the whole body, on the calling thread (`validity::check_body`).

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::thread;

use dcert_primitives::hash::{Address, Hash};
use dcert_vm::{BlockExecution, Call, Executor, StateKey};

use crate::block::{Block, BlockHeader};
use crate::consensus::{ConsensusEngine, ConsensusProof};
use crate::error::ChainError;
use crate::state::ChainState;
use crate::tx::Transaction;
use crate::validity::{check_extends, check_header, check_height, check_signatures, hash_writes};

/// The fewest transactions a signature lane is started for; a smaller body
/// is checked on the calling thread alone.
///
/// The floor exists because of what a thread costs the rest of the
/// process: the first thread a process starts moves every later
/// allocation in that process onto glibc's locked multi-thread `malloc`
/// path, for good. A single no-op `thread::spawn` in `FullNode::new` raised
/// `serve_mixed` `op_ms_p50` from 0.42 to 0.46 µs; lanes without this floor
/// cost it +9 % `op_ms_p50` and −6…−8 % `ops_per_s`. At 16, the 8- and
/// 24-transaction blocks of `queries_cold`, `serve_mixed` and `fleet_sb`
/// stay on the calling thread, and those processes never start a thread
/// for it; the 32-transaction blocks of `blocks_*` take two lanes.
const MIN_TXS_PER_LANE: usize = 16;

/// How many lanes a signature pass over `txs` transactions takes on
/// `cpus` cores: one per `MIN_TXS_PER_LANE` transactions, at most one per
/// core, at least one.
fn lanes_for(txs: usize, cpus: usize) -> usize {
    cpus.min(txs / MIN_TXS_PER_LANE).max(1)
}

/// [`check_signatures`] over `lanes` contiguous chunks of `txs`, the first
/// on the calling thread. Every chunk stops at its own first failure, and
/// the lowest-index chunk that failed names the error — exactly the error
/// the sequential pass returns. A panic in a lane is re-raised as it was.
fn check_signatures_in_lanes(txs: &[Transaction], lanes: usize) -> Result<(), ChainError> {
    if lanes <= 1 || txs.is_empty() {
        return check_signatures(txs);
    }
    let (head, tail) = txs.split_at(txs.len().div_ceil(lanes));
    thread::scope(|scope| {
        let tail: Vec<_> = tail
            .chunks(head.len())
            .map(|chunk| scope.spawn(|| check_signatures(chunk)))
            .collect();
        let head = check_signatures(head);
        tail.into_iter().fold(head, |verdict, lane| {
            let lane = lane.join().unwrap_or_else(|panic| resume_unwind(panic));
            verdict.and(lane)
        })
    })
}

/// A full node: executes, validates, and (optionally) proposes blocks,
/// maintaining the canonical-chain tip state.
///
/// In DCert's system model (Fig. 2 of the paper) both the miner and the
/// Certificate Issuer are full nodes; the CI (`dcert-core`) wraps this type
/// and adds the enclave-backed certification pipeline.
#[derive(Clone)]
pub struct FullNode {
    executor: Executor,
    engine: Arc<dyn ConsensusEngine>,
    tip: BlockHeader,
    state: ChainState,
    miner: Address,
    /// Cores the signature pass may use, read once: on Linux
    /// `available_parallelism` re-reads cgroup files on every call.
    cpus: usize,
}

impl std::fmt::Debug for FullNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FullNode")
            .field("height", &self.tip.height)
            .field("tip", &self.tip.hash())
            .field("engine", &self.engine.name())
            .finish()
    }
}

impl FullNode {
    /// Creates a node at the given genesis block and state: the
    /// checkpoint at height 0.
    ///
    /// # Panics
    ///
    /// As [`FullNode::new_at_checkpoint`] — a genesis state that does not
    /// match the genesis header is a construction bug.
    pub fn new(
        genesis: &Block,
        genesis_state: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        miner: Address,
    ) -> Self {
        Self::new_at_checkpoint(
            genesis.header.clone(),
            genesis_state,
            executor,
            engine,
            miner,
        )
    }

    /// Creates a node at an arbitrary checkpoint `(header, state)` instead
    /// of genesis — used when bootstrapping from a snapshot whose
    /// authenticity the caller has already established (e.g. through a
    /// DCert certificate).
    ///
    /// # Panics
    ///
    /// Panics if `state`'s root does not match the checkpoint header —
    /// callers must verify the snapshot before constructing a node on it.
    pub fn new_at_checkpoint(
        header: BlockHeader,
        state: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        miner: Address,
    ) -> Self {
        assert_eq!(
            header.state_root,
            state.root(),
            "checkpoint state root mismatch"
        );
        FullNode {
            executor,
            engine,
            tip: header,
            state,
            miner,
            cpus: thread::available_parallelism().map_or(1, NonZeroUsize::get),
        }
    }

    /// The current tip header.
    pub fn tip(&self) -> &BlockHeader {
        &self.tip
    }

    /// The current chain height.
    pub fn height(&self) -> u64 {
        self.tip.height
    }

    /// The tip state.
    pub fn state(&self) -> &ChainState {
        &self.state
    }

    /// The node's executor (shared contract semantics).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The node's consensus engine.
    pub fn engine(&self) -> &Arc<dyn ConsensusEngine> {
        &self.engine
    }

    /// Every transaction's sender binding and signature (Algorithm 2,
    /// line 19) on this node's cores: [`check_signatures`] once per
    /// contiguous chunk of `txs`, in [`FullNode::signature_lanes`] lanes.
    ///
    /// # Errors
    ///
    /// The error the sequential pass returns: that of the first
    /// transaction that fails.
    pub fn verify_signatures(&self, txs: &[Transaction]) -> Result<(), ChainError> {
        check_signatures_in_lanes(txs, self.signature_lanes(txs.len()))
    }

    /// How many lanes [`FullNode::verify_signatures`] splits a body of
    /// `txs` transactions into on this node: one below 32 transactions,
    /// never more than the cores it found when it was built.
    pub fn signature_lanes(&self, txs: usize) -> usize {
        lanes_for(txs, self.cpus)
    }

    /// Executes `txs` against the tip state without committing anything,
    /// returning the block execution (read/write sets).
    pub fn execute(&self, txs: &[Transaction]) -> BlockExecution {
        let calls: Vec<Call> = txs.iter().map(|tx| tx.call.clone()).collect();
        self.executor.execute_block(&self.state, &calls)
    }

    /// Predicts the post-state root of `execution` without mutating state.
    pub fn predicted_state_root(&self, execution: &BlockExecution) -> Hash {
        let touched = execution.touched_keys();
        let proof = self.state.prove(&touched);
        // Proven on this node's own tree, over the keys the execution touched.
        proof
            .verify(&self.state.root())
            .and_then(|tip_state| tip_state.updated_root(&hash_writes(&execution.writes)))
            .expect("own proof verifies and covers every written key")
    }

    /// Seals the block that carries `txs` from the tip to `state_root`.
    fn seal(
        &self,
        txs: Vec<Transaction>,
        timestamp: u64,
        state_root: Hash,
    ) -> Result<Block, ChainError> {
        let mut header = BlockHeader {
            // Saturating: nothing extends a tip at `u64::MAX`, and `apply`
            // and `mine` say so when they come to extend it.
            height: self.tip.height.saturating_add(1),
            prev_hash: self.tip.hash(),
            state_root,
            tx_root: Block::tx_root(&txs),
            timestamp,
            miner: self.miner,
            consensus: ConsensusProof::Pow {
                difficulty_bits: 0,
                nonce: 0,
            },
        };
        self.engine.seal(&mut header)?;
        Ok(Block { header, txs })
    }

    /// Builds and seals the next block from `txs` (transactions with
    /// invalid signatures are rejected up front). Does **not** advance the
    /// chain — [`FullNode::apply`] the returned block, or [`FullNode::mine`].
    ///
    /// # Errors
    ///
    /// Returns the first transaction validation error, or a consensus
    /// sealing error.
    pub fn propose(&self, txs: Vec<Transaction>, timestamp: u64) -> Result<Block, ChainError> {
        self.verify_signatures(&txs)?;
        let state_root = self.predicted_state_root(&self.execute(&txs));
        self.seal(txs, timestamp, state_root)
    }

    /// Fully validates a foreign `block` against the tip and commits it:
    /// header linkage and height, consensus proof, transaction root and
    /// signatures, re-execution, state-root agreement. Returns that execution.
    ///
    /// # Errors
    ///
    /// Any [`ChainError`] leaves the node unchanged.
    pub fn apply(&mut self, block: &Block) -> Result<BlockExecution, ChainError> {
        check_extends(&self.tip, &block.header)?;
        check_header(self.engine.as_ref(), block)?;
        self.verify_signatures(&block.txs)?;
        let execution = self.execute(&block.txs);
        // Commit, compare, and take it back on a mismatch.
        let displaced = self.state.apply_writes(execution.writes.iter());
        if self.state.root() != block.header.state_root {
            self.state.restore(displaced);
            return Err(ChainError::StateRootMismatch);
        }
        self.tip = block.header.clone();
        Ok(execution)
    }

    /// Mines the next block: one signature pass, one execution, and one
    /// state commit whose root seals the header — what [`FullNode::propose`]
    /// then [`FullNode::apply`] produce, without the second validation.
    ///
    /// # Errors
    ///
    /// What `propose` then `apply` refuse, in their order — a bad
    /// transaction signature, an engine that cannot seal, a tip at
    /// `u64::MAX`, a seal its own engine rejects — with the node unchanged.
    pub fn mine(&mut self, txs: Vec<Transaction>, timestamp: u64) -> Result<Block, ChainError> {
        self.verify_signatures(&txs)?;
        let displaced = self.state.apply_writes(self.execute(&txs).writes.iter());
        let sealed = self
            .seal(txs, timestamp, self.state.root())
            .and_then(|block| {
                check_height(&self.tip, &block.header)?;
                self.engine.verify(&block.header)?;
                Ok(block)
            });
        match &sealed {
            Ok(block) => self.tip = block.header.clone(),
            Err(_) => self.state.restore(displaced),
        }
        sealed
    }

    /// Replaces the tip and state wholesale, asserting only root
    /// consistency. The caller must have validated the whole transition by
    /// other means — DCert's CI uses this after the *enclave* has verified
    /// a batch of blocks, avoiding a redundant local re-execution.
    ///
    /// # Panics
    ///
    /// Panics if `state`'s root does not match `header.state_root`.
    pub fn adopt_validated(&mut self, header: BlockHeader, state: ChainState) {
        assert_eq!(
            header.state_root,
            state.root(),
            "adopted state root mismatch"
        );
        self.tip = header;
        self.state = state;
    }

    /// [`FullNode::adopt_validated`] in place, for one block: advances the
    /// tip state by `writes`, the write set of the caller's own execution.
    ///
    /// # Panics
    ///
    /// Panics if `writes` do not lead to `header.state_root`.
    pub fn advance_validated<'a>(
        &mut self,
        header: BlockHeader,
        writes: impl IntoIterator<Item = (&'a StateKey, &'a Option<Vec<u8>>)>,
    ) {
        self.state.apply_writes(writes);
        assert_eq!(
            header.state_root,
            self.state.root(),
            "adopted state root mismatch"
        );
        self.tip = header;
    }

    /// Direct state write used only when bootstrapping test fixtures; not
    /// reachable from block processing.
    #[doc(hidden)]
    pub fn state_mut_for_tests(&mut self) -> &mut ChainState {
        &mut self.state
    }

    /// Reads a state value at the tip.
    pub fn read_state(&self, key: &StateKey) -> Option<Vec<u8>> {
        self.state.get(key).map(<[u8]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{ProofOfAuthority, ProofOfWork};
    use crate::genesis::GenesisBuilder;
    use dcert_primitives::keys::Keypair;
    use dcert_testkit::check;
    use dcert_vm::ContractRegistry;

    fn node(engine: Arc<dyn ConsensusEngine>) -> FullNode {
        let (genesis, state) = GenesisBuilder::new().build();
        let mut registry = ContractRegistry::new();
        registry.register(Arc::new(dcert_vm::testing::CounterContract));
        FullNode::new(
            &genesis,
            state,
            Executor::new(Arc::new(registry)),
            engine,
            Address::from_seed(99),
        )
    }

    fn bump_tx(seed: u8, nonce: u64) -> Transaction {
        Transaction::sign(
            &Keypair::from_seed([seed; 32]),
            nonce,
            "counter",
            b"bump".to_vec(),
        )
    }

    /// Everything a refusal must leave alone: tip, state commitment, and
    /// every entry behind it.
    fn fingerprint(node: &FullNode) -> (BlockHeader, Hash, Vec<(Hash, Vec<u8>)>) {
        (
            node.tip().clone(),
            node.state().root(),
            node.state().dump_entries(),
        )
    }

    #[test]
    fn mine_and_apply_advances_chain() {
        let mut node = node(Arc::new(ProofOfWork::new(4)));
        let b1 = node.mine(vec![bump_tx(1, 0)], 1).unwrap();
        assert_eq!(node.height(), 1);
        assert_eq!(node.tip().hash(), b1.hash());
        let b2 = node.mine(vec![bump_tx(1, 1), bump_tx(2, 0)], 2).unwrap();
        assert_eq!(node.height(), 2);
        assert_eq!(b2.header.prev_hash, b1.hash());
        // Counter bumped three times in total.
        let value = node
            .read_state(&StateKey::new("counter", b"value"))
            .unwrap();
        assert_eq!(value, 3u64.to_be_bytes().to_vec());
    }

    #[test]
    fn empty_blocks_are_fine() {
        let mut node = node(Arc::new(ProofOfWork::new(2)));
        let b1 = node.mine(Vec::new(), 1).unwrap();
        assert_eq!(b1.header.tx_root, Hash::ZERO);
        assert_eq!(b1.header.state_root, node.state().root());
    }

    #[test]
    fn rejects_tampered_state_root() {
        let mut node = node(Arc::new(ProofOfAuthority::new_sealer(
            vec![Keypair::from_seed([9; 32]).public()],
            Keypair::from_seed([9; 32]),
        )));
        let mut block = node.propose(vec![bump_tx(1, 0)], 1).unwrap();
        block.header.state_root = Hash::ZERO;
        // Reseal so consensus passes and the state check is what trips.
        node.engine().seal(&mut block.header).unwrap();
        let before = fingerprint(&node);
        assert_eq!(node.apply(&block), Err(ChainError::StateRootMismatch));
        // The refusal comes after the write set was committed, and takes
        // it back.
        assert_eq!(fingerprint(&node), before, "node must be unchanged");
    }

    #[test]
    fn a_refused_mine_leaves_the_node_unchanged() {
        let refused = |what: &str,
                       engine: Arc<dyn ConsensusEngine>,
                       height: u64,
                       txs: Vec<Transaction>,
                       refusal: ChainError| {
            // A tip whose state already counts, so the refused block's
            // write displaced a value that has to come back.
            let mut node = node(engine);
            let counter = StateKey::new("counter", b"value");
            node.state.set(counter, 41u64.to_be_bytes().into());
            node.tip.state_root = node.state.root();
            node.tip.height = height;
            let before = fingerprint(&node);
            let mut twin = node.clone();
            assert_eq!(node.mine(txs.clone(), 1), Err(refusal.clone()), "{what}");
            assert_eq!(fingerprint(&node), before, "{what}: node must be unchanged");
            // What `mine` refuses is what `propose` then `apply` refuse.
            let two_step = twin
                .propose(txs, 1)
                .and_then(|block| twin.apply(&block).map(|_| block));
            assert_eq!(two_step, Err(refusal), "{what}: propose + apply");
        };
        let authorized = vec![Keypair::from_seed([9; 32]).public()];
        let mut forged = bump_tx(2, 0);
        forged.nonce = 99;
        refused(
            "bad tx signature",
            Arc::new(ProofOfWork::new(2)),
            4,
            vec![bump_tx(1, 0), forged],
            ChainError::BadTxSignature,
        );
        refused(
            "verify-only sealer",
            Arc::new(ProofOfAuthority::new_verifier(authorized.clone())),
            4,
            vec![bump_tx(1, 0)],
            ChainError::BadConsensus("verify-only PoA engine"),
        );
        refused(
            "unauthorised sealer",
            Arc::new(ProofOfAuthority::new_sealer(
                authorized,
                Keypair::from_seed([8; 32]),
            )),
            4,
            vec![bump_tx(1, 0)],
            ChainError::BadConsensus("unauthorized signer"),
        );
        refused(
            "tip at the last height",
            Arc::new(ProofOfWork::new(2)),
            u64::MAX,
            vec![bump_tx(1, 0)],
            ChainError::BadHeight {
                parent: u64::MAX,
                child: u64::MAX,
            },
        );
    }

    #[test]
    fn rejects_broken_link_and_height() {
        let mut node = node(Arc::new(ProofOfWork::new(2)));
        let block = node.propose(Vec::new(), 1).unwrap();
        let mut wrong_link = block.clone();
        wrong_link.header.prev_hash = Hash::ZERO;
        assert!(matches!(
            node.apply(&wrong_link),
            Err(ChainError::BrokenLink { .. })
        ));
        let mut wrong_height = block;
        wrong_height.header.height = 7;
        assert!(matches!(
            node.apply(&wrong_height),
            Err(ChainError::BadHeight { .. })
        ));
    }

    #[test]
    fn rejects_bad_tx_signature_in_block() {
        let mut node = node(Arc::new(ProofOfWork::new(2)));
        let mut tx = bump_tx(1, 0);
        tx.nonce = 99; // invalidates the signature
        let block = Block {
            header: BlockHeader {
                height: 1,
                prev_hash: node.tip().hash(),
                state_root: node.state().root(),
                tx_root: Block::tx_root(std::slice::from_ref(&tx)),
                timestamp: 1,
                miner: Address::default(),
                consensus: ConsensusProof::Pow {
                    difficulty_bits: 0,
                    nonce: 0,
                },
            },
            txs: vec![tx],
        };
        let mut sealed = block;
        node.engine().seal(&mut sealed.header).unwrap();
        // Need matching difficulty: engine is PoW(2), seal produced that.
        assert_eq!(node.apply(&sealed), Err(ChainError::BadTxSignature));
    }

    #[test]
    fn rejects_unsealed_block() {
        let mut node = node(Arc::new(ProofOfWork::new(16)));
        let block = node.propose(Vec::new(), 1).unwrap();
        let mut unsealed = block;
        unsealed.header.consensus = ConsensusProof::Pow {
            difficulty_bits: 16,
            nonce: 0,
        };
        // Nonce 0 almost certainly fails a 16-bit target; if it passes by
        // luck the block is simply valid, so only assert on the common case.
        if node.apply(&unsealed).is_ok() {
            return;
        }
        assert_eq!(node.height(), 0);
    }

    #[test]
    fn small_bodies_and_single_cores_take_one_lane() {
        assert_eq!(lanes_for(8, 64), 1);
        assert_eq!(lanes_for(31, 64), 1);
        assert_eq!(lanes_for(32, 2), 2);
        for txs in [0, 1, 16, 32, 80, 1 << 20] {
            assert_eq!(lanes_for(txs, 1), 1);
        }
    }

    /// However the forgeries fall across lanes, the lane pass answers
    /// what the sequential pass answers, variant for variant.
    #[test]
    fn prop_lanes_match_one_pass() {
        let honest: Vec<Transaction> = (0..80).map(|i| bump_tx(1 + i as u8 % 4, i)).collect();
        check("prop_lanes_match_one_pass", 48, |g| {
            let mut txs = honest[..g.range(0..=80usize)].to_vec();
            let forgeries = if txs.is_empty() { 0 } else { g.range(0..=3u8) };
            // Each a `BadTxSignature` or a `SenderMismatch`.
            for _ in 0..forgeries {
                let at = g.range(0..txs.len());
                if g.any() {
                    txs[at].nonce += 1;
                } else {
                    txs[at].call.sender = Address::from_seed(g.any());
                }
            }
            let sequential = check_signatures(&txs);
            for lanes in 1..=4 {
                let in_lanes = check_signatures_in_lanes(&txs, lanes);
                assert_eq!(in_lanes, sequential, "{lanes} lanes, {} txs", txs.len());
            }
        });
    }

    #[test]
    fn predicted_root_matches_committed_root() {
        let mut node = node(Arc::new(ProofOfWork::new(2)));
        for i in 0..10u64 {
            let block = node.mine(vec![bump_tx(1, i)], i).unwrap();
            assert_eq!(block.header.state_root, node.state().root());
        }
    }
}
