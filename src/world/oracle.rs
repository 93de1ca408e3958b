//! The query oracle: what a client may ask an SP, answered by reading the
//! chain itself.
//!
//! [`Oracle::replay`] runs the mined blocks through the world's
//! [`Executor`] on a plain map and keeps each block's write set and
//! transactions; every answer is then a scan, a filter and a fold over
//! them. It shares nothing with `dcert-query` or `dcert-merkle` — no index,
//! no tree, no proof, and its own spelling of the keyword rule — so an
//! index that drifts from the chain, or an SP that leaves rows out of an
//! answer, disagrees with it.

use std::collections::{BTreeMap, HashMap};

use dcert_chain::{Block, ChainState};
use dcert_primitives::hash::Hash;
use dcert_vm::{Executor, StateKey, StateReader, VmError};

/// The window fold of an aggregate query: the numeric values — exactly
/// eight bytes, big-endian — of the versions in the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold {
    pub count: u64,
    pub sum: u128,
    /// `u64::MAX` over no value.
    pub min: u64,
    /// 0 over no value.
    pub max: u64,
}

/// One replayed block: its write set and its transactions' ids and payloads.
struct Replayed {
    writes: BTreeMap<StateKey, Option<Vec<u8>>>,
    txs: Vec<(Hash, Vec<u8>)>,
}

/// The chain, replayed; height `h` is `blocks[h - 1]`.
pub struct Oracle {
    blocks: Vec<Replayed>,
}

/// Chain state as a plain map from hashed key paths to values.
struct PlainState(HashMap<Hash, Vec<u8>>);

impl StateReader for PlainState {
    fn read(&self, key: &StateKey) -> Result<Option<Vec<u8>>, VmError> {
        Ok(self.0.get(key.as_hash()).cloned())
    }
}

impl Oracle {
    /// Replays `blocks`, a chain from `genesis`, through `executor`.
    pub fn replay(executor: &Executor, genesis: &ChainState, blocks: &[Block]) -> Self {
        let mut state = PlainState(genesis.dump_entries().into_iter().collect());
        let blocks = blocks
            .iter()
            .map(|block| {
                let calls: Vec<_> = block.txs.iter().map(|tx| tx.call.clone()).collect();
                let writes = executor.execute_block(&state, &calls).writes;
                for (key, value) in &writes {
                    match value {
                        Some(value) => state.0.insert(*key.as_hash(), value.clone()),
                        None => state.0.remove(key.as_hash()),
                    };
                }
                let txs = block
                    .txs
                    .iter()
                    .map(|tx| (tx.id(), tx.call.payload.clone()));
                Replayed {
                    writes,
                    txs: txs.collect(),
                }
            })
            .collect();
        Oracle { blocks }
    }

    /// The blocks at heights `t1..=t2` that were mined, with their heights.
    fn window(&self, t1: u64, t2: u64) -> impl Iterator<Item = (u64, &Replayed)> {
        (1u64..)
            .zip(&self.blocks)
            .filter(move |(height, _)| (t1..=t2).contains(height))
    }

    /// Every version of `key` written at heights `t1..=t2`, oldest first
    /// (`None` is a deletion).
    pub fn history(&self, key: &StateKey, t1: u64, t2: u64) -> Vec<(u64, Option<Vec<u8>>)> {
        self.window(t1, t2)
            .filter_map(|(height, block)| Some((height, block.writes.get(key)?.clone())))
            .collect()
    }

    /// The fold of `key`'s numeric versions at heights `t1..=t2`.
    pub fn aggregate(&self, key: &StateKey, t1: u64, t2: u64) -> Fold {
        let empty = Fold {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        };
        self.history(key, t1, t2)
            .into_iter()
            .filter_map(|(_, version)| Some(u64::from_be_bytes(version?.try_into().ok()?)))
            .fold(empty, |fold, value| Fold {
                count: fold.count + 1,
                sum: fold.sum + u128::from(value),
                min: fold.min.min(value),
                max: fold.max.max(value),
            })
    }

    /// The transactions at heights `1..=height` whose payload carries every
    /// one of `words` (case-insensitive), in chain order; none for no word.
    pub fn keywords(&self, words: &[&str], height: u64) -> Vec<Hash> {
        if words.is_empty() {
            return Vec::new();
        }
        self.window(1, height)
            .flat_map(|(_, block)| &block.txs)
            .filter(|(_, payload)| {
                let found = keywords_of(payload);
                words
                    .iter()
                    .all(|word| found.contains(&word.to_ascii_lowercase()))
            })
            .map(|(id, _)| *id)
            .collect()
    }
}

/// A payload's keywords: its runs of ASCII letters and digits that begin
/// with a letter and are 3 to 16 long, lower-cased.
fn keywords_of(payload: &[u8]) -> Vec<String> {
    payload
        .split(|byte| !byte.is_ascii_alphanumeric())
        .filter(|run| run.first().is_some_and(u8::is_ascii_alphabetic))
        .filter(|run| (3..=16).contains(&run.len()))
        .map(|run| String::from_utf8_lossy(run).to_ascii_lowercase())
        .collect()
}
