//! Blockbench `CPUHeavy`: in-contract sorting.
//!
//! The original contract allocates an integer array of parameterized size
//! and quicksorts it. Compute-bound: no state access, so in DCert's
//! Fig. 8 it shows long outside-enclave *and* inside-enclave execution
//! with almost no Merkle-proof traffic — which is why the relative enclave
//! overhead is smallest here.

use dcert_primitives::codec::Decode;
use dcert_primitives::hash::Address;
use dcert_vm::{Contract, ExecCtx, VmError};

/// Payload of a CPUHeavy call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuHeavyCall {
    /// Seed of the deterministic pseudo-random array.
    pub seed: u64,
    /// Array length to generate and sort.
    pub size: u32,
}

dcert_primitives::wire! {
    struct CpuHeavyCall { seed, size }
}

/// Maximum accepted array size (keeps a single call bounded).
pub const MAX_SIZE: u32 = 1 << 20;

/// The CPUHeavy contract (`CPU`).
#[derive(Debug, Clone, Copy)]
pub struct CpuHeavy;

impl Contract for CpuHeavy {
    fn name(&self) -> &str {
        "cpuheavy"
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        _sender: Address,
        payload: &[u8],
    ) -> Result<(), VmError> {
        let call =
            CpuHeavyCall::decode_all(payload).map_err(|_| VmError::BadPayload("cpuheavy call"))?;
        if call.size > MAX_SIZE {
            return Err(VmError::Aborted("array too large"));
        }
        // Deterministic xorshift* sequence, then sort — same work pattern
        // as Blockbench's quicksort benchmark.
        let mut x = call.seed | 1;
        let mut data: Vec<u64> = (0..call.size)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545F4914F6CDD1D)
            })
            .collect();
        data.sort_unstable();
        // Burn compute units proportional to n log n.
        let n = call.size as u64;
        ctx.burn(n * (64 - n.leading_zeros() as u64));
        // Prevent the optimizer from discarding the sort.
        if data.first() > data.last() {
            return Err(VmError::Aborted("sort violated order"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::Encode;
    use dcert_vm::{Call, ContractRegistry, Executor, InMemoryState};
    use std::sync::Arc;

    fn exec(payload: Vec<u8>) -> dcert_vm::BlockExecution {
        let mut registry = ContractRegistry::new();
        registry.register(Arc::new(CpuHeavy));
        let executor = Executor::new(Arc::new(registry));
        let calls = vec![Call::new(Address::from_seed(1), "cpuheavy", payload)];
        executor.execute_block(&InMemoryState::new(), &calls)
    }

    #[test]
    fn sorts_without_state_access() {
        let payload = CpuHeavyCall {
            seed: 7,
            size: 4096,
        }
        .to_encoded_bytes();
        let result = exec(payload);
        assert_eq!(result.committed(), 1);
        assert!(result.reads.is_empty());
        assert!(result.writes.is_empty());
        assert!(result.compute_units > 0);
    }

    #[test]
    fn rejects_bad_payload() {
        let result = exec(b"junk".to_vec());
        assert_eq!(result.committed(), 0);
    }

    #[test]
    fn rejects_oversized_array() {
        let payload = CpuHeavyCall {
            seed: 7,
            size: MAX_SIZE + 1,
        }
        .to_encoded_bytes();
        assert_eq!(exec(payload).committed(), 0);
    }

    #[test]
    fn payload_codec_round_trip() {
        let call = CpuHeavyCall { seed: 9, size: 128 };
        assert_eq!(
            CpuHeavyCall::decode_all(&call.to_encoded_bytes()).unwrap(),
            call
        );
    }
}
