//! Blockbench `KVStore`: a YCSB-style key-value contract.
//!
//! Single-key gets, puts, and deletes over string keys — the `KV` macro
//! benchmark. The paper's verifiable-query experiments also build on this
//! state shape ("500 key-value tuples, then continuous updates").

use dcert_primitives::codec::Decode;
use dcert_primitives::hash::Address;
use dcert_vm::{Contract, ExecCtx, VmError};

/// Payload of a KVStore call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCall {
    /// Set `key` to `value`.
    Put {
        /// The record key.
        key: Vec<u8>,
        /// The value to store.
        value: Vec<u8>,
    },
    /// Read `key` (burns one unit if present; result is observational).
    Get {
        /// The record key.
        key: Vec<u8>,
    },
    /// Remove `key`.
    Delete {
        /// The record key.
        key: Vec<u8>,
    },
}

dcert_primitives::wire! {
    enum KvCall {
        0 => Put { key, value },
        1 => Get { key },
        2 => Delete { key },
    }
}

/// The KVStore contract (`KV`).
#[derive(Debug, Clone, Copy)]
pub struct KvStore;

impl Contract for KvStore {
    fn name(&self) -> &str {
        "kvstore"
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        _sender: Address,
        payload: &[u8],
    ) -> Result<(), VmError> {
        let call = KvCall::decode_all(payload).map_err(|_| VmError::BadPayload("kv call"))?;
        match call {
            KvCall::Put { key, value } => ctx.set("kvstore", &key, value),
            KvCall::Get { key } => {
                if ctx.get("kvstore", &key)?.is_some() {
                    ctx.burn(1);
                }
            }
            KvCall::Delete { key } => ctx.delete("kvstore", &key),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::Encode;
    use dcert_vm::{Call, ContractRegistry, Executor, InMemoryState, StateKey};
    use std::sync::Arc;

    fn executor() -> Executor {
        let mut registry = ContractRegistry::new();
        registry.register(Arc::new(KvStore));
        Executor::new(Arc::new(registry))
    }

    fn call(op: KvCall) -> Call {
        Call::new(Address::from_seed(1), "kvstore", op.to_encoded_bytes())
    }

    #[test]
    fn put_get_delete_cycle() {
        let exec = executor().execute_block(
            &InMemoryState::new(),
            &[
                call(KvCall::Put {
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                }),
                call(KvCall::Get { key: b"k".to_vec() }),
                call(KvCall::Delete { key: b"k".to_vec() }),
            ],
        );
        assert_eq!(exec.committed(), 3);
        let key = StateKey::new("kvstore", b"k");
        // Net effect: key deleted.
        assert_eq!(exec.writes[&key], None);
        // Read-your-writes: the Get saw the in-block Put.
        assert_eq!(exec.compute_units, 1);
    }

    #[test]
    fn get_of_missing_key_reads_pre_state() {
        let exec = executor().execute_block(
            &InMemoryState::new(),
            &[call(KvCall::Get {
                key: b"nope".to_vec(),
            })],
        );
        assert_eq!(exec.committed(), 1);
        assert_eq!(exec.reads.len(), 1);
        assert_eq!(exec.compute_units, 0);
    }

    #[test]
    fn payload_codec_round_trip() {
        for op in [
            KvCall::Put {
                key: b"a".to_vec(),
                value: b"b".to_vec(),
            },
            KvCall::Get { key: b"a".to_vec() },
            KvCall::Delete { key: b"a".to_vec() },
        ] {
            assert_eq!(KvCall::decode_all(&op.to_encoded_bytes()).unwrap(), op);
        }
    }
}
