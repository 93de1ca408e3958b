//! Blockbench `SmallBank`: the classic banking transaction mix.
//!
//! Each customer holds a *savings* and a *checking* balance; six operation
//! types (H-Store's SmallBank, as adopted by Blockbench) mix reads and
//! small read-modify-writes across one or two customers. Accounts are
//! lazily initialized with [`INITIAL_BALANCE`] on first touch (Blockbench
//! pre-creates them with a loader phase; lazy defaults produce the same
//! per-transaction access pattern without a separate loading stage).

use dcert_primitives::codec::Decode;
use dcert_primitives::hash::Address;
use dcert_vm::{Contract, ExecCtx, VmError};

/// Balance every account starts with.
pub const INITIAL_BALANCE: u64 = 10_000;

/// Payload of a SmallBank call. `customer` ids index the account space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankCall {
    /// Add `amount` to savings.
    TransactSavings {
        /// Customer id.
        customer: u64,
        /// Amount to add.
        amount: u64,
    },
    /// Add `amount` to checking.
    DepositChecking {
        /// Customer id.
        customer: u64,
        /// Amount to add.
        amount: u64,
    },
    /// Move `amount` of checking from `from` to `to`.
    SendPayment {
        /// Payer.
        from: u64,
        /// Payee.
        to: u64,
        /// Amount to move.
        amount: u64,
    },
    /// Deduct a check of `amount` from checking.
    WriteCheck {
        /// Customer id.
        customer: u64,
        /// Check amount.
        amount: u64,
    },
    /// Fold savings+checking of `from` into `to`'s checking.
    Amalgamate {
        /// Source customer.
        from: u64,
        /// Destination customer.
        to: u64,
    },
    /// Read both balances (observational).
    GetBalance {
        /// Customer id.
        customer: u64,
    },
}

dcert_primitives::wire! {
    enum BankCall {
        0 => TransactSavings { customer, amount },
        1 => DepositChecking { customer, amount },
        2 => SendPayment { from, to, amount },
        3 => WriteCheck { customer, amount },
        4 => Amalgamate { from, to },
        5 => GetBalance { customer },
    }
}

/// The SmallBank contract (`SB`).
#[derive(Debug, Clone, Copy)]
pub struct SmallBank;

fn savings_field(customer: u64) -> Vec<u8> {
    let mut f = b"sav-".to_vec();
    f.extend_from_slice(&customer.to_be_bytes());
    f
}

fn checking_field(customer: u64) -> Vec<u8> {
    let mut f = b"chk-".to_vec();
    f.extend_from_slice(&customer.to_be_bytes());
    f
}

fn load(ctx: &mut ExecCtx<'_>, field: &[u8]) -> Result<u64, VmError> {
    match ctx.get("smallbank", field)? {
        None => Ok(INITIAL_BALANCE),
        Some(bytes) => Ok(u64::from_be_bytes(
            bytes
                .try_into()
                .map_err(|_| VmError::Aborted("corrupt balance"))?,
        )),
    }
}

fn store(ctx: &mut ExecCtx<'_>, field: &[u8], value: u64) {
    ctx.set("smallbank", field, value.to_be_bytes().to_vec());
}

impl Contract for SmallBank {
    fn name(&self) -> &str {
        "smallbank"
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        _sender: Address,
        payload: &[u8],
    ) -> Result<(), VmError> {
        let call =
            BankCall::decode_all(payload).map_err(|_| VmError::BadPayload("smallbank call"))?;
        match call {
            BankCall::TransactSavings { customer, amount } => {
                let balance = load(ctx, &savings_field(customer))?;
                store(
                    ctx,
                    &savings_field(customer),
                    balance.saturating_add(amount),
                );
            }
            BankCall::DepositChecking { customer, amount } => {
                let balance = load(ctx, &checking_field(customer))?;
                store(
                    ctx,
                    &checking_field(customer),
                    balance.saturating_add(amount),
                );
            }
            BankCall::SendPayment { from, to, amount } => {
                let src = load(ctx, &checking_field(from))?;
                if src < amount {
                    return Err(VmError::Aborted("insufficient funds"));
                }
                let dst = load(ctx, &checking_field(to))?;
                store(ctx, &checking_field(from), src - amount);
                store(ctx, &checking_field(to), dst.saturating_add(amount));
            }
            BankCall::WriteCheck { customer, amount } => {
                let balance = load(ctx, &checking_field(customer))?;
                if balance < amount {
                    return Err(VmError::Aborted("insufficient funds"));
                }
                store(ctx, &checking_field(customer), balance - amount);
            }
            BankCall::Amalgamate { from, to } => {
                let savings = load(ctx, &savings_field(from))?;
                let checking = load(ctx, &checking_field(from))?;
                let dst = load(ctx, &checking_field(to))?;
                store(ctx, &savings_field(from), 0);
                store(ctx, &checking_field(from), 0);
                store(
                    ctx,
                    &checking_field(to),
                    dst.saturating_add(savings).saturating_add(checking),
                );
            }
            BankCall::GetBalance { customer } => {
                let total = load(ctx, &savings_field(customer))?
                    .saturating_add(load(ctx, &checking_field(customer))?);
                ctx.burn(1 + (total > 0) as u64);
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
        registry.register(Arc::new(SmallBank));
        Executor::new(Arc::new(registry))
    }

    fn call(op: BankCall) -> Call {
        Call::new(Address::from_seed(0), "smallbank", op.to_encoded_bytes())
    }

    fn checking(exec: &dcert_vm::BlockExecution, customer: u64) -> Option<u64> {
        exec.writes
            .get(&StateKey::new("smallbank", &checking_field(customer)))
            .and_then(|v| v.as_ref())
            .map(|b| u64::from_be_bytes(b.as_slice().try_into().unwrap()))
    }

    #[test]
    fn send_payment_moves_funds() {
        let exec = executor().execute_block(
            &InMemoryState::new(),
            &[call(BankCall::SendPayment {
                from: 1,
                to: 2,
                amount: 100,
            })],
        );
        assert_eq!(exec.committed(), 1);
        assert_eq!(checking(&exec, 1), Some(INITIAL_BALANCE - 100));
        assert_eq!(checking(&exec, 2), Some(INITIAL_BALANCE + 100));
    }

    #[test]
    fn overdraft_reverts() {
        let exec = executor().execute_block(
            &InMemoryState::new(),
            &[call(BankCall::SendPayment {
                from: 1,
                to: 2,
                amount: INITIAL_BALANCE + 1,
            })],
        );
        assert_eq!(exec.committed(), 0);
        assert!(exec.writes.is_empty());
    }

    #[test]
    fn amalgamate_zeroes_source() {
        let exec = executor().execute_block(
            &InMemoryState::new(),
            &[
                call(BankCall::TransactSavings {
                    customer: 1,
                    amount: 500,
                }),
                call(BankCall::Amalgamate { from: 1, to: 2 }),
            ],
        );
        assert_eq!(exec.committed(), 2);
        assert_eq!(checking(&exec, 1), Some(0));
        assert_eq!(
            checking(&exec, 2),
            Some(INITIAL_BALANCE + INITIAL_BALANCE + 500 + INITIAL_BALANCE)
        );
    }

    #[test]
    fn write_check_deducts() {
        let exec = executor().execute_block(
            &InMemoryState::new(),
            &[call(BankCall::WriteCheck {
                customer: 3,
                amount: 42,
            })],
        );
        assert_eq!(checking(&exec, 3), Some(INITIAL_BALANCE - 42));
    }

    #[test]
    fn get_balance_is_read_only() {
        let exec = executor().execute_block(
            &InMemoryState::new(),
            &[call(BankCall::GetBalance { customer: 5 })],
        );
        assert_eq!(exec.committed(), 1);
        assert!(exec.writes.is_empty());
        assert_eq!(exec.reads.len(), 2);
    }

    #[test]
    fn payload_codec_round_trip() {
        for op in [
            BankCall::TransactSavings {
                customer: 1,
                amount: 2,
            },
            BankCall::DepositChecking {
                customer: 1,
                amount: 2,
            },
            BankCall::SendPayment {
                from: 1,
                to: 2,
                amount: 3,
            },
            BankCall::WriteCheck {
                customer: 1,
                amount: 2,
            },
            BankCall::Amalgamate { from: 1, to: 2 },
            BankCall::GetBalance { customer: 1 },
        ] {
            assert_eq!(BankCall::decode_all(&op.to_encoded_bytes()).unwrap(), op);
        }
    }
}
