//! Block execution: calls, contexts, and the executor.

use std::collections::BTreeMap;
use std::sync::Arc;

use dcert_primitives::hash::Address;

use crate::contract::ContractRegistry;
use crate::error::VmError;
use crate::state::{StateKey, StateReader};

/// One contract invocation: the VM-level payload of a blockchain
/// transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The calling account.
    pub sender: Address,
    /// The target contract's registry name.
    pub contract: String,
    /// Opaque contract-specific payload.
    pub payload: Vec<u8>,
}

impl Call {
    /// Creates a call.
    pub fn new(sender: Address, contract: impl Into<String>, payload: Vec<u8>) -> Self {
        Call {
            sender,
            contract: contract.into(),
            payload,
        }
    }
}

dcert_primitives::wire! {
    struct Call { sender, contract, payload }
}

/// The execution context handed to contracts.
///
/// Tracks, across a whole block:
///
/// - the **read set**: pre-block value of every key whose first access was
///   a read (what Algorithm 1 ships into the enclave as `{r}_i`),
/// - the **write buffer**: latest written value per key (becomes `{w}_i`),
/// - **compute units**: an abstract cost counter contracts burn to model
///   CPU-bound work.
///
/// Reads observe earlier writes in the same block (read-your-writes), so
/// replaying the block against just the read set reproduces identical
/// results.
pub struct ExecCtx<'a> {
    backend: &'a dyn StateReader,
    reads: BTreeMap<StateKey, Option<Vec<u8>>>,
    writes: BTreeMap<StateKey, Option<Vec<u8>>>,
    /// Writes of the current call only, so a revert can roll them back.
    call_writes: Vec<(StateKey, Option<Option<Vec<u8>>>)>,
    compute_units: u64,
}

impl<'a> ExecCtx<'a> {
    fn new(backend: &'a dyn StateReader) -> Self {
        ExecCtx {
            backend,
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
            call_writes: Vec::new(),
            compute_units: 0,
        }
    }

    /// Reads the current value of `(contract, field)`.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::ReadSetMiss`] from bounded backends.
    pub fn get(&mut self, contract: &str, field: &[u8]) -> Result<Option<Vec<u8>>, VmError> {
        let key = StateKey::new(contract, field);
        self.get_key(&key)
    }

    /// Reads a pre-derived state key.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::ReadSetMiss`] from bounded backends.
    pub fn get_key(&mut self, key: &StateKey) -> Result<Option<Vec<u8>>, VmError> {
        if let Some(buffered) = self.writes.get(key) {
            return Ok(buffered.clone());
        }
        if let Some(pre) = self.reads.get(key) {
            return Ok(pre.clone());
        }
        let value = self.backend.read(key)?;
        self.reads.insert(*key, value.clone());
        Ok(value)
    }

    /// Writes `(contract, field)` = `value`.
    pub fn set(&mut self, contract: &str, field: &[u8], value: Vec<u8>) {
        self.set_key(StateKey::new(contract, field), value);
    }

    /// Writes a pre-derived state key.
    pub fn set_key(&mut self, key: StateKey, value: Vec<u8>) {
        let prev = self.writes.insert(key, Some(value));
        self.call_writes.push((key, prev));
    }

    /// Deletes `(contract, field)`.
    pub fn delete(&mut self, contract: &str, field: &[u8]) {
        let key = StateKey::new(contract, field);
        let prev = self.writes.insert(key, None);
        self.call_writes.push((key, prev));
    }

    /// Burns `units` of abstract compute (CPU-bound contract work).
    pub fn burn(&mut self, units: u64) {
        self.compute_units = self.compute_units.saturating_add(units);
    }

    /// Compute units burned so far in this block.
    pub fn compute_units(&self) -> u64 {
        self.compute_units
    }

    fn begin_call(&mut self) {
        self.call_writes.clear();
    }

    fn revert_call(&mut self) {
        // Undo this call's writes in reverse order.
        while let Some((key, prev)) = self.call_writes.pop() {
            match prev {
                Some(value) => {
                    self.writes.insert(key, value);
                }
                None => {
                    self.writes.remove(&key);
                }
            }
        }
    }
}

/// Per-call outcome inside a [`BlockExecution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallStatus {
    /// The call committed its writes.
    Ok,
    /// The call reverted with this error; its writes were discarded.
    Reverted(VmError),
}

/// The effect of executing a block of calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockExecution {
    /// Pre-block value of every key whose first access was a read
    /// (`None` = absent). This is `{r}_i` of Algorithm 1.
    pub reads: BTreeMap<StateKey, Option<Vec<u8>>>,
    /// Final value per written key (`None` = deleted). This is `{w}_i`.
    pub writes: BTreeMap<StateKey, Option<Vec<u8>>>,
    /// One status per call, in order.
    pub statuses: Vec<CallStatus>,
    /// Total compute units burned.
    pub compute_units: u64,
}

impl BlockExecution {
    /// Every key the block touched (reads ∪ writes) — the key set Merkle
    /// proofs must cover.
    pub fn touched_keys(&self) -> Vec<StateKey> {
        let mut keys: Vec<StateKey> = self
            .reads
            .keys()
            .chain(self.writes.keys())
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Number of calls that committed.
    pub fn committed(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s, CallStatus::Ok))
            .count()
    }
}

/// Executes blocks of calls against a [`StateReader`] backend.
///
/// The same executor (and registry) is used by the miner, full nodes, the
/// CI's untrusted pre-processor, and the enclave's replay — determinism of
/// [`Contract`](crate::Contract) implementations guarantees they all
/// compute identical [`BlockExecution`]s.
#[derive(Debug, Clone)]
pub struct Executor {
    registry: Arc<ContractRegistry>,
}

impl Executor {
    /// Creates an executor over a contract registry.
    pub fn new(registry: Arc<ContractRegistry>) -> Self {
        Executor { registry }
    }

    /// The registry backing this executor.
    pub fn registry(&self) -> &Arc<ContractRegistry> {
        &self.registry
    }

    /// Executes `calls` sequentially as one block against the pre-block
    /// state served by `backend`.
    ///
    /// Failed calls revert individually (recorded in
    /// [`BlockExecution::statuses`]); a [`VmError::ReadSetMiss`] also
    /// reverts the offending call, which on the enclave side surfaces as a
    /// read/write-set mismatch against the claimed block.
    pub fn execute_block(&self, backend: &dyn StateReader, calls: &[Call]) -> BlockExecution {
        let mut ctx = ExecCtx::new(backend);
        let mut statuses = Vec::with_capacity(calls.len());
        for call in calls {
            ctx.begin_call();
            let status = match self.registry.get(&call.contract) {
                None => {
                    ctx.revert_call();
                    CallStatus::Reverted(VmError::ContractNotFound(call.contract.clone()))
                }
                Some(contract) => match contract.execute(&mut ctx, call.sender, &call.payload) {
                    Ok(()) => CallStatus::Ok,
                    Err(err) => {
                        ctx.revert_call();
                        CallStatus::Reverted(err)
                    }
                },
            };
            statuses.push(status);
        }
        BlockExecution {
            reads: ctx.reads,
            writes: ctx.writes,
            statuses,
            compute_units: ctx.compute_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::InMemoryState;
    use crate::testing::{CounterContract, FailingContract};
    use dcert_primitives::codec::Decode;
    use dcert_primitives::codec::Encode;

    fn executor() -> Executor {
        let mut registry = ContractRegistry::new();
        registry.register(Arc::new(CounterContract));
        registry.register(Arc::new(FailingContract));
        Executor::new(Arc::new(registry))
    }

    fn bump(sender: u64) -> Call {
        Call::new(Address::from_seed(sender), "counter", b"bump".to_vec())
    }

    #[test]
    fn single_call_records_read_and_write() {
        let exec = executor().execute_block(&InMemoryState::new(), &[bump(1)]);
        assert_eq!(exec.statuses, vec![CallStatus::Ok]);
        assert_eq!(exec.reads.len(), 1);
        assert_eq!(exec.writes.len(), 1);
        let key = StateKey::new("counter", b"value");
        assert_eq!(exec.reads[&key], None);
        assert_eq!(exec.writes[&key], Some(1u64.to_be_bytes().to_vec()));
    }

    #[test]
    fn read_your_writes_within_block() {
        // Two bumps in one block: the second sees the first's write, and the
        // read set still records the *pre-block* value only.
        let exec = executor().execute_block(&InMemoryState::new(), &[bump(1), bump(2)]);
        let key = StateKey::new("counter", b"value");
        assert_eq!(exec.reads[&key], None);
        assert_eq!(exec.writes[&key], Some(2u64.to_be_bytes().to_vec()));
    }

    #[test]
    fn pre_block_state_is_read() {
        let mut state = InMemoryState::new();
        state.set(
            StateKey::new("counter", b"value"),
            41u64.to_be_bytes().to_vec(),
        );
        let exec = executor().execute_block(&state, &[bump(1)]);
        let key = StateKey::new("counter", b"value");
        assert_eq!(exec.reads[&key], Some(41u64.to_be_bytes().to_vec()));
        assert_eq!(exec.writes[&key], Some(42u64.to_be_bytes().to_vec()));
    }

    #[test]
    fn failed_call_reverts_its_writes_only() {
        let calls = vec![
            bump(1),
            Call::new(
                Address::from_seed(9),
                "failing",
                b"write-then-fail".to_vec(),
            ),
            bump(2),
        ];
        let exec = executor().execute_block(&InMemoryState::new(), &calls);
        assert_eq!(exec.committed(), 2);
        assert!(matches!(exec.statuses[1], CallStatus::Reverted(_)));
        // The failing contract's key must not appear in the write set.
        let poison = StateKey::new("failing", b"poison");
        assert!(!exec.writes.contains_key(&poison));
        // Counter writes survive.
        let key = StateKey::new("counter", b"value");
        assert_eq!(exec.writes[&key], Some(2u64.to_be_bytes().to_vec()));
    }

    #[test]
    fn unknown_contract_reverts() {
        let calls = vec![Call::new(Address::from_seed(1), "ghost", Vec::new())];
        let exec = executor().execute_block(&InMemoryState::new(), &calls);
        assert!(matches!(
            &exec.statuses[0],
            CallStatus::Reverted(VmError::ContractNotFound(name)) if name == "ghost"
        ));
        assert!(exec.writes.is_empty());
    }

    #[test]
    fn replay_from_read_set_is_identical() {
        // Execute against full state; then replay against just the read set
        // (what the enclave does) and compare executions.
        let mut state = InMemoryState::new();
        state.set(
            StateKey::new("counter", b"value"),
            7u64.to_be_bytes().to_vec(),
        );
        let calls = vec![bump(1), bump(2), bump(3)];
        let exec = executor().execute_block(&state, &calls);

        let replay_backend = crate::state::ReadSetState::new(exec.reads.clone());
        let replay = executor().execute_block(&replay_backend, &calls);
        assert_eq!(replay, exec);
    }

    #[test]
    fn incomplete_read_set_reverts_calls() {
        let calls = vec![bump(1)];
        let empty = crate::state::ReadSetState::new(BTreeMap::new());
        let exec = executor().execute_block(&empty, &calls);
        assert!(matches!(
            exec.statuses[0],
            CallStatus::Reverted(VmError::ReadSetMiss)
        ));
    }

    #[test]
    fn touched_keys_union_is_sorted_unique() {
        let exec = executor().execute_block(&InMemoryState::new(), &[bump(1), bump(2)]);
        let touched = exec.touched_keys();
        assert_eq!(touched.len(), 1);
        assert!(touched.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn call_codec_round_trip() {
        let call = bump(5);
        let decoded = Call::decode_all(&call.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, call);
    }
}
