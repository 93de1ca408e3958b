//! State keys and read backends.

use std::collections::BTreeMap;
use std::fmt;

use dcert_primitives::hash::{hash_concat, Hash};

use crate::error::VmError;

/// Domain tag for state-key derivation (kept distinct from Merkle domains).
const STATE_KEY_DOMAIN: u8 = 0x20;

/// A 256-bit global-state key: the hash of `(contract, field)`.
///
/// State keys index the global sparse-Merkle state tree, so deriving them
/// by hashing gives uniformly distributed tree paths.
///
/// ```
/// use dcert_vm::StateKey;
///
/// let a = StateKey::new("kvstore", b"user-1");
/// assert_eq!(a, StateKey::new("kvstore", b"user-1"));
/// assert_ne!(a, StateKey::new("kvstore", b"user-2"));
/// assert_ne!(a, StateKey::new("bank", b"user-1"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateKey(Hash);

impl StateKey {
    /// Derives the key for `field` of `contract`.
    pub fn new(contract: &str, field: &[u8]) -> Self {
        // Length-prefix the contract name so ("ab","c") != ("a","bc"). It
        // saturates rather than wraps: the same bytes for any name under
        // 4 GiB, and no silent truncation on the enclave's replay path.
        let len = u32::try_from(contract.len())
            .unwrap_or(u32::MAX)
            .to_be_bytes();
        StateKey(hash_concat([
            &[STATE_KEY_DOMAIN][..],
            &len,
            contract.as_bytes(),
            field,
        ]))
    }

    /// The underlying 256-bit path in the state tree.
    pub fn as_hash(&self) -> &Hash {
        &self.0
    }
}

impl fmt::Debug for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateKey({:?})", self.0)
    }
}

impl From<StateKey> for Hash {
    fn from(key: StateKey) -> Hash {
        key.0
    }
}

dcert_primitives::wire! {
    struct StateKey(path)
}

/// A read-only view of pre-block global state.
///
/// Two implementations matter:
///
/// - the full node's state tree (outside the enclave), and
/// - [`ReadSetState`], an authenticated read set (inside the enclave),
///   which *fails* on any read the set does not cover — detecting
///   incomplete read sets supplied by the untrusted pre-processor.
pub trait StateReader {
    /// Reads the pre-block value of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::ReadSetMiss`] when the backend cannot answer for
    /// this key (bounded backends only).
    fn read(&self, key: &StateKey) -> Result<Option<Vec<u8>>, VmError>;
}

/// A plain in-memory key-value state, useful as a test backend and as the
/// model state for workload generators.
#[derive(Debug, Clone, Default)]
pub struct InMemoryState {
    entries: BTreeMap<StateKey, Vec<u8>>,
}

impl InMemoryState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no keys are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets `key` to `value`.
    pub fn set(&mut self, key: StateKey, value: Vec<u8>) {
        self.entries.insert(key, value);
    }

    /// Removes `key`.
    pub fn delete(&mut self, key: &StateKey) {
        self.entries.remove(key);
    }

    /// Applies a block's write set.
    pub fn apply_writes<'a>(
        &mut self,
        writes: impl IntoIterator<Item = (&'a StateKey, &'a Option<Vec<u8>>)>,
    ) {
        for (key, value) in writes {
            match value {
                Some(v) => self.set(*key, v.clone()),
                None => self.delete(key),
            }
        }
    }
}

impl StateReader for InMemoryState {
    fn read(&self, key: &StateKey) -> Result<Option<Vec<u8>>, VmError> {
        Ok(self.entries.get(key).cloned())
    }
}

/// A bounded state backend serving reads only from an authenticated read
/// set — the enclave-side backend in Algorithm 2.
///
/// Any read outside the set returns [`VmError::ReadSetMiss`], which aborts
/// certificate construction (the untrusted pre-processor supplied an
/// incomplete `{r}_i`).
#[derive(Debug, Clone, Default)]
pub struct ReadSetState {
    entries: BTreeMap<StateKey, Option<Vec<u8>>>,
}

impl ReadSetState {
    /// Wraps an authenticated read set (`None` = key proven absent).
    pub fn new(entries: BTreeMap<StateKey, Option<Vec<u8>>>) -> Self {
        ReadSetState { entries }
    }

    /// The covered keys and their pre-state values.
    pub fn entries(&self) -> &BTreeMap<StateKey, Option<Vec<u8>>> {
        &self.entries
    }
}

impl StateReader for ReadSetState {
    fn read(&self, key: &StateKey) -> Result<Option<Vec<u8>>, VmError> {
        self.entries.get(key).cloned().ok_or(VmError::ReadSetMiss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_key_is_injective_on_boundaries() {
        // The length prefix prevents ("ab","c") colliding with ("a","bc").
        assert_ne!(StateKey::new("ab", b"c"), StateKey::new("a", b"bc"));
        assert_ne!(StateKey::new("", b"abc"), StateKey::new("abc", b""));
    }

    #[test]
    fn in_memory_state_round_trip() {
        let mut state = InMemoryState::new();
        let k = StateKey::new("c", b"f");
        assert_eq!(state.read(&k).unwrap(), None);
        state.set(k, b"v".to_vec());
        assert_eq!(state.read(&k).unwrap(), Some(b"v".to_vec()));
        state.delete(&k);
        assert_eq!(state.read(&k).unwrap(), None);
        assert!(state.is_empty());
    }

    #[test]
    fn read_set_state_misses_outside_set() {
        let k_in = StateKey::new("c", b"covered");
        let k_absent = StateKey::new("c", b"proven-absent");
        let k_out = StateKey::new("c", b"uncovered");
        let mut set = BTreeMap::new();
        set.insert(k_in, Some(b"v".to_vec()));
        set.insert(k_absent, None);
        let state = ReadSetState::new(set);
        assert_eq!(state.read(&k_in).unwrap(), Some(b"v".to_vec()));
        assert_eq!(state.read(&k_absent).unwrap(), None);
        assert_eq!(state.read(&k_out), Err(VmError::ReadSetMiss));
    }

    #[test]
    fn apply_writes_inserts_and_deletes() {
        let mut state = InMemoryState::new();
        let k1 = StateKey::new("c", b"1");
        let k2 = StateKey::new("c", b"2");
        state.set(k2, b"old".to_vec());
        let writes: Vec<(StateKey, Option<Vec<u8>>)> =
            vec![(k1, Some(b"new".to_vec())), (k2, None)];
        state.apply_writes(writes.iter().map(|(k, v)| (k, v)));
        assert_eq!(state.read(&k1).unwrap(), Some(b"new".to_vec()));
        assert_eq!(state.read(&k2).unwrap(), None);
    }
}
