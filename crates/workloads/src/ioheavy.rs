//! Blockbench `IOHeavy`: batch state reads and writes.
//!
//! The original contract writes / reads / scans large batches of keyed
//! records. State-bound: in DCert's Figures 8–9 it produces the largest
//! read/write sets and Merkle proofs, maximizing enclave marshalling.

use dcert_primitives::codec::Decode;
use dcert_primitives::hash::Address;
use dcert_vm::{Contract, ExecCtx, VmError};

/// Payload of an IOHeavy call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoHeavyCall {
    /// Write `count` records starting at key index `start`.
    WriteBatch {
        /// First key index.
        start: u64,
        /// Number of keys.
        count: u32,
    },
    /// Read `count` records starting at key index `start`.
    ReadBatch {
        /// First key index.
        start: u64,
        /// Number of keys.
        count: u32,
    },
}

/// Maximum batch size accepted per call.
pub const MAX_BATCH: u32 = 4096;

dcert_primitives::wire! {
    enum IoHeavyCall {
        0 => WriteBatch { start, count },
        1 => ReadBatch { start, count },
    }
}

/// The IOHeavy contract (`IO`).
#[derive(Debug, Clone, Copy)]
pub struct IoHeavy;

fn record_field(index: u64) -> Vec<u8> {
    let mut field = b"rec-".to_vec();
    field.extend_from_slice(&index.to_be_bytes());
    field
}

impl Contract for IoHeavy {
    fn name(&self) -> &str {
        "ioheavy"
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        sender: Address,
        payload: &[u8],
    ) -> Result<(), VmError> {
        let call =
            IoHeavyCall::decode_all(payload).map_err(|_| VmError::BadPayload("ioheavy call"))?;
        match call {
            IoHeavyCall::WriteBatch { start, count } => {
                if count > MAX_BATCH {
                    return Err(VmError::Aborted("batch too large"));
                }
                for i in 0..count as u64 {
                    let mut value = sender.as_bytes().to_vec();
                    value.extend_from_slice(&(start + i).to_be_bytes());
                    ctx.set("ioheavy", &record_field(start + i), value);
                }
            }
            IoHeavyCall::ReadBatch { start, count } => {
                if count > MAX_BATCH {
                    return Err(VmError::Aborted("batch too large"));
                }
                let mut found = 0u64;
                for i in 0..count as u64 {
                    if ctx.get("ioheavy", &record_field(start + i))?.is_some() {
                        found += 1;
                    }
                }
                ctx.burn(found);
            }
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
        registry.register(Arc::new(IoHeavy));
        Executor::new(Arc::new(registry))
    }

    #[test]
    fn write_batch_touches_count_keys() {
        let calls = vec![Call::new(
            Address::from_seed(1),
            "ioheavy",
            IoHeavyCall::WriteBatch {
                start: 0,
                count: 50,
            }
            .to_encoded_bytes(),
        )];
        let exec = executor().execute_block(&InMemoryState::new(), &calls);
        assert_eq!(exec.committed(), 1);
        assert_eq!(exec.writes.len(), 50);
    }

    #[test]
    fn read_batch_records_reads() {
        let mut state = InMemoryState::new();
        for i in 0..10u64 {
            state.set(StateKey::new("ioheavy", &record_field(i)), vec![1]);
        }
        let calls = vec![Call::new(
            Address::from_seed(1),
            "ioheavy",
            IoHeavyCall::ReadBatch {
                start: 0,
                count: 20,
            }
            .to_encoded_bytes(),
        )];
        let exec = executor().execute_block(&state, &calls);
        assert_eq!(exec.committed(), 1);
        assert_eq!(exec.reads.len(), 20);
        assert!(exec.writes.is_empty());
        assert_eq!(exec.compute_units, 10);
    }

    #[test]
    fn oversized_batch_rejected() {
        let calls = vec![Call::new(
            Address::from_seed(1),
            "ioheavy",
            IoHeavyCall::WriteBatch {
                start: 0,
                count: MAX_BATCH + 1,
            }
            .to_encoded_bytes(),
        )];
        let exec = executor().execute_block(&InMemoryState::new(), &calls);
        assert_eq!(exec.committed(), 0);
        assert!(exec.writes.is_empty());
    }

    #[test]
    fn payload_codec_round_trip() {
        for call in [
            IoHeavyCall::WriteBatch { start: 5, count: 9 },
            IoHeavyCall::ReadBatch { start: 0, count: 1 },
        ] {
            assert_eq!(
                IoHeavyCall::decode_all(&call.to_encoded_bytes()).unwrap(),
                call
            );
        }
    }
}
