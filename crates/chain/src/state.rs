//! The global state as a sparse-Merkle commitment.

use dcert_merkle::{SmtProof, SparseMerkleTree};
use dcert_primitives::hash::Hash;
use dcert_vm::{StateKey, StateReader, VmError};

/// The authenticated global state: a key-value map committed by a sparse
/// Merkle tree whose root is the header field `H_state`.
///
/// Implements the VM's [`StateReader`], so blocks execute directly against
/// it, and exposes [`ChainState::prove`] for the Certificate Issuer to
/// build the update proofs `π_i` of Algorithm 1.
#[derive(Debug, Clone, Default)]
pub struct ChainState {
    tree: SparseMerkleTree,
}

/// The values a write set overwrote or deleted, per tree path (`None` =
/// the path was empty): the exact undo of one [`ChainState::apply_writes`].
#[derive(Debug)]
pub struct Displaced(Vec<(Hash, Option<Vec<u8>>)>);

impl ChainState {
    /// Creates an empty state (root = [`Hash::ZERO`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The state commitment `H_state`.
    pub fn root(&self) -> Hash {
        self.tree.root()
    }

    /// Number of live state entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Returns `true` if the state holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Reads a value directly.
    pub fn get(&self, key: &StateKey) -> Option<&[u8]> {
        self.tree.get(key.as_hash())
    }

    /// Sets `key` to `value` (used for genesis allocation).
    pub fn set(&mut self, key: StateKey, value: Vec<u8>) {
        self.tree.insert((*key.as_hash()).to_owned(), value);
    }

    /// Applies a block's write set (`None` deletes) in one walk of the
    /// tree, and hands back what it displaced for [`ChainState::restore`].
    pub fn apply_writes<'a>(
        &mut self,
        writes: impl IntoIterator<Item = (&'a StateKey, &'a Option<Vec<u8>>)>,
    ) -> Displaced {
        let writes = writes
            .into_iter()
            .map(|(key, value)| (*key.as_hash(), value.clone()));
        Displaced(self.tree.commit(writes))
    }

    /// Undoes the [`ChainState::apply_writes`] that returned `displaced`,
    /// provided nothing was written since.
    pub fn restore(&mut self, displaced: Displaced) {
        self.tree.commit(displaced.0);
    }

    /// Dumps every `(tree path, value)` entry in path order — used by the
    /// naive full-state-in-enclave ablation and by state-sync tooling.
    /// Note the paths are the hashed [`StateKey`]s.
    pub fn dump_entries(&self) -> Vec<(Hash, Vec<u8>)> {
        self.tree.iter().map(|(k, v)| (*k, v.to_vec())).collect()
    }

    /// Builds a multiproof over `keys` against the current root — the
    /// update proof `π_i` the CI ships into the enclave.
    pub fn prove(&self, keys: &[StateKey]) -> SmtProof {
        let hashes: Vec<Hash> = keys.iter().map(|k| *k.as_hash()).collect();
        self.tree.prove(&hashes)
    }
}

impl StateReader for ChainState {
    fn read(&self, key: &StateKey) -> Result<Option<Vec<u8>>, VmError> {
        Ok(self.tree.get(key.as_hash()).map(<[u8]>::to_vec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::hash::hash_bytes;

    #[test]
    fn state_reader_round_trip() {
        let mut state = ChainState::new();
        let key = StateKey::new("kv", b"x");
        assert_eq!(state.read(&key).unwrap(), None);
        state.set(key, b"v".to_vec());
        assert_eq!(state.read(&key).unwrap(), Some(b"v".to_vec()));
        assert_eq!(state.get(&key), Some(b"v".as_slice()));
    }

    #[test]
    fn root_changes_with_writes() {
        let mut state = ChainState::new();
        let r0 = state.root();
        state.set(StateKey::new("kv", b"x"), b"1".to_vec());
        let r1 = state.root();
        assert_ne!(r0, r1);
    }

    #[test]
    fn apply_writes_matches_proof_update() {
        let mut state = ChainState::new();
        for i in 0..20u32 {
            state.set(StateKey::new("kv", &i.to_be_bytes()), vec![i as u8]);
        }
        let old_root = state.root();

        let touched = vec![
            StateKey::new("kv", &3u32.to_be_bytes()),
            StateKey::new("kv", b"fresh"),
        ];
        let proof = state.prove(&touched);
        let verified = proof.verify(&old_root).unwrap();

        let writes = vec![
            (*touched[0].as_hash(), Some(hash_bytes(b"updated"))),
            (*touched[1].as_hash(), Some(hash_bytes(b"created"))),
        ];
        let predicted = verified.updated_root(&writes).unwrap();

        let block_writes: Vec<(StateKey, Option<Vec<u8>>)> = vec![
            (touched[0], Some(b"updated".to_vec())),
            (touched[1], Some(b"created".to_vec())),
        ];
        state.apply_writes(block_writes.iter().map(|(k, v)| (k, v)));
        assert_eq!(state.root(), predicted);
    }
}
