//! A full node: it mines, or follows the chain a miner seals.

use std::sync::Arc;

use dcert_primitives::hash::{Address, Hash};
use dcert_vm::{BlockExecution, Call, Executor, StateKey};

use crate::block::{Block, BlockHeader};
use crate::consensus::{ConsensusEngine, ConsensusProof};
use crate::error::ChainError;
use crate::state::{ChainState, Displaced};
use crate::tx::Transaction;
use crate::validity::{check_extends, check_header, check_height, check_signatures, hash_writes};

/// A full node: executes and (optionally) proposes blocks, maintaining
/// the canonical-chain tip state.
///
/// In DCert's system model (Fig. 2 of the paper) the miner, the
/// Certificate Issuer and the Service Provider are full nodes; the CI
/// (`dcert-core`) wraps this type and adds the enclave-backed
/// certification pipeline, the SP (`dcert-query`) its indexes. Neither
/// checks a transaction signature: the enclave does, before it signs the
/// certificate everything they produce is accepted through.
///
/// Every block that moves the tip goes through one forward step,
/// [`FullNode::advance`] — commit the write set, compare the post-state
/// root, move the tip or take the commit back — and [`FullNode::retract`]
/// is its inverse. [`FullNode::follow`] ends in it, and so does every
/// certification driver in `dcert-core`; only [`FullNode::mine`], whose
/// header is sealed over the root its commit reaches, has nothing to
/// compare against.
#[derive(Clone)]
pub struct FullNode {
    executor: Executor,
    engine: Arc<dyn ConsensusEngine>,
    tip: BlockHeader,
    state: ChainState,
    miner: Address,
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

    /// Executes `txs` against the tip state without committing anything,
    /// returning the block execution (read/write sets).
    pub fn execute(&self, txs: &[Transaction]) -> BlockExecution {
        let calls: Vec<Call> = txs.iter().map(|tx| tx.call.clone()).collect();
        self.executor.execute_block(&self.state, &calls)
    }

    /// Predicts the post-state root of `execution` without mutating state.
    #[allow(
        clippy::expect_used,
        reason = "a proof made on this node's own tree over the executed keys verifies against it"
    )]
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
            // Saturating: nothing extends a tip at `u64::MAX`, and `follow`
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
    /// chain — [`FullNode::follow`] the returned block, or [`FullNode::mine`].
    ///
    /// # Errors
    ///
    /// Returns the first transaction validation error, or a consensus
    /// sealing error.
    pub fn propose(&self, txs: Vec<Transaction>, timestamp: u64) -> Result<Block, ChainError> {
        check_signatures(&txs)?;
        let state_root = self.predicted_state_root(&self.execute(&txs));
        self.seal(txs, timestamp, state_root)
    }

    /// Follows a foreign `block` from the tip and commits it: header
    /// linkage and height, consensus proof, transaction root,
    /// re-execution, state-root agreement — everything but the
    /// transaction signatures. Returns that execution and what its commit
    /// displaced, for [`FullNode::retract`].
    ///
    /// A follower is a party whose output is accepted only through a
    /// certificate over it: the enclave that signs the certificate checks
    /// every signature, so a block it refuses is one the follower takes
    /// back. The seal check stays, so only an authorised miner can make a
    /// follower do work. A party that accepts a block on its own word
    /// runs [`crate::validity::check_signatures`] first.
    ///
    /// # Errors
    ///
    /// Any [`ChainError`] leaves the node unchanged.
    pub fn follow(&mut self, block: &Block) -> Result<(BlockExecution, Displaced), ChainError> {
        check_extends(&self.tip, &block.header)?;
        check_header(self.engine.as_ref(), block)?;
        let execution = self.execute(&block.txs);
        let displaced = self.advance(&block.header, execution.writes.iter())?;
        Ok((execution, displaced))
    }

    /// The one forward step: commits `writes` — the write set of `header`'s
    /// block, executed against the tip — and, if they reach
    /// `header.state_root`, makes `header` the tip. Returns what the writes
    /// displaced, for [`FullNode::retract`]. Linkage and everything else
    /// about the block are the caller's to have checked.
    ///
    /// # Errors
    ///
    /// [`ChainError::StateRootMismatch`], with the node unchanged: the
    /// commit is taken back before the refusal.
    pub fn advance<'a>(
        &mut self,
        header: &BlockHeader,
        writes: impl IntoIterator<Item = (&'a StateKey, &'a Option<Vec<u8>>)>,
    ) -> Result<Displaced, ChainError> {
        let displaced = self.state.apply_writes(writes);
        if self.state.root() != header.state_root {
            self.state.restore(displaced);
            return Err(ChainError::StateRootMismatch);
        }
        self.tip.clone_from(header);
        Ok(displaced)
    }

    /// Takes back the last [`FullNode::advance`]: restores what it
    /// `displaced` and makes `prev_tip`, the tip it extended, the tip again.
    pub fn retract(&mut self, prev_tip: BlockHeader, displaced: Displaced) {
        self.state.restore(displaced);
        self.tip = prev_tip;
    }

    /// Mines the next block: one signature pass, one execution, and one
    /// state commit whose root seals the header — what [`FullNode::propose`]
    /// then [`FullNode::follow`] produce, without the second validation.
    ///
    /// # Errors
    ///
    /// What `propose` then `follow` refuse, in their order — a bad
    /// transaction signature, an engine that cannot seal (no key, or an
    /// unauthorised one), a tip at `u64::MAX` — with the node unchanged.
    /// The seal is not verified again: every header an engine seals passes
    /// its own [`ConsensusEngine::verify`].
    pub fn mine(&mut self, txs: Vec<Transaction>, timestamp: u64) -> Result<Block, ChainError> {
        check_signatures(&txs)?;
        let displaced = self.state.apply_writes(self.execute(&txs).writes.iter());
        let sealed = self
            .seal(txs, timestamp, self.state.root())
            .and_then(|block| check_height(&self.tip, &block.header).map(|()| block));
        match &sealed {
            Ok(block) => self.tip = block.header.clone(),
            Err(_) => self.state.restore(displaced),
        }
        sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{ProofOfAuthority, ProofOfWork};
    use crate::genesis::GenesisBuilder;
    use crate::validity::check_body;
    use dcert_primitives::keys::Keypair;
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
        let value = node.state().get(&StateKey::new("counter", b"value"));
        assert_eq!(value, Some(3u64.to_be_bytes().as_slice()));
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
        assert_eq!(
            node.follow(&block).err(),
            Some(ChainError::StateRootMismatch)
        );
        // The refusal comes after the write set was committed, and takes
        // it back.
        assert_eq!(fingerprint(&node), before, "node must be unchanged");
    }

    #[test]
    fn advance_refuses_a_wrong_root_and_retract_undoes_a_good_one() {
        let mut node = node(Arc::new(ProofOfWork::new(2)));
        // A counter that already counts, so the block's write displaces a
        // value that has to come back.
        node.mine(vec![bump_tx(1, 0)], 1).unwrap();
        let block = node.propose(vec![bump_tx(1, 1), bump_tx(2, 0)], 2).unwrap();
        let writes = node.execute(&block.txs).writes;
        let before = fingerprint(&node);

        let mut forged = block.header.clone();
        forged.state_root = Hash::ZERO;
        let refused = node.advance(&forged, writes.iter()).err();
        assert_eq!(refused, Some(ChainError::StateRootMismatch));
        assert_eq!(fingerprint(&node), before, "a refusal changes nothing");

        let mut applied = node.clone();
        applied.follow(&block).unwrap();
        let displaced = node.advance(&block.header, writes.iter()).unwrap();
        assert_eq!(
            fingerprint(&node),
            fingerprint(&applied),
            "follow's own step"
        );
        node.retract(before.0.clone(), displaced);
        assert_eq!(fingerprint(&node), before, "retract takes it back exactly");
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
            // What `mine` refuses is what `propose` then `follow` refuse.
            let two_step = twin
                .propose(txs, 1)
                .and_then(|block| twin.follow(&block).map(|_| block));
            assert_eq!(two_step, Err(refusal), "{what}: propose + follow");
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
            ChainError::BadConsensus("verify-only PoA engine".into()),
        );
        refused(
            "unauthorised sealer",
            Arc::new(ProofOfAuthority::new_sealer(
                authorized,
                Keypair::from_seed([8; 32]),
            )),
            4,
            vec![bump_tx(1, 0)],
            ChainError::BadConsensus("unauthorized signer".into()),
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
            node.follow(&wrong_link),
            Err(ChainError::BrokenLink { .. })
        ));
        let mut wrong_height = block;
        wrong_height.header.height = 7;
        assert!(matches!(
            node.follow(&wrong_height),
            Err(ChainError::BadHeight { .. })
        ));
    }

    /// A forged signature under an honest seal and post-state root: the
    /// block rule refuses it, and a follower, which leaves signatures to
    /// the enclave, takes it and can take it back.
    #[test]
    fn rejects_bad_tx_signature_in_block() {
        let mut node = node(Arc::new(ProofOfWork::new(2)));
        let mut tx = bump_tx(1, 0);
        tx.nonce = 99; // invalidates the signature
        let txs = vec![tx];
        let state_root = node.predicted_state_root(&node.execute(&txs));
        let mut sealed = Block {
            header: BlockHeader {
                height: 1,
                prev_hash: node.tip().hash(),
                state_root,
                tx_root: Block::tx_root(&txs),
                timestamp: 1,
                miner: Address::default(),
                consensus: ConsensusProof::Pow {
                    difficulty_bits: 0,
                    nonce: 0,
                },
            },
            txs,
        };
        // Need matching difficulty: engine is PoW(2), seal produced that.
        node.engine().seal(&mut sealed.header).unwrap();
        assert_eq!(
            check_body(node.engine().as_ref(), &sealed),
            Err(ChainError::BadTxSignature)
        );
        let before = fingerprint(&node);
        let (_, displaced) = node
            .follow(&sealed)
            .expect("a follower checks no signature");
        assert_eq!(node.tip(), &sealed.header);
        node.retract(before.0.clone(), displaced);
        assert_eq!(fingerprint(&node), before, "retract takes it back exactly");
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
        if node.follow(&unsealed).is_ok() {
            return;
        }
        assert_eq!(node.height(), 0);
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
