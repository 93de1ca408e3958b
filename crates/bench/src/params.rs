//! The experiment parameter grid (Table 1 of the paper) and scaling.

/// Chain lengths for the bootstrapping experiment (Fig. 7). The paper
/// sweeps up to 100 k blocks; the **bold default** here is the second
/// entry.
pub const CHAIN_LENGTHS: &[u64] = &[20_000, 40_000, 60_000, 80_000, 100_000];

/// Block sizes (#transactions) for Fig. 9; default **32**.
pub const BLOCK_SIZES: &[usize] = &[8, 16, 32, 64, 128];

/// Default block size used by Fig. 8.
pub const DEFAULT_BLOCK_SIZE: usize = 32;

/// Numbers of authenticated indexes for Fig. 10; default **1**.
pub const INDEX_COUNTS: &[usize] = &[1, 2, 3, 4, 5];

/// Chain length for the verifiable-query experiments (Fig. 11).
pub const QUERY_CHAIN_LENGTH: u64 = 10_000;

/// Number of key-value tuples for the query experiments.
pub const QUERY_ACCOUNTS: u64 = 500;

/// Time-window distances from the latest block (Fig. 11).
pub const WINDOW_DISTANCES: &[u64] = &[2_000, 4_000, 6_000, 8_000, 10_000];

/// Width of each queried time window, in blocks.
pub const WINDOW_WIDTH: u64 = 100;

/// Number of sender accounts in the paper's setup.
pub const PAPER_SENDER_ACCOUNTS: usize = 100_000;

/// Sender accounts actually generated (keypair generation is the only
/// cost that depends on it; access patterns are uniform either way).
pub const SENDER_ACCOUNTS: usize = dcert::world::Chain::Poa.senders();

/// Blocks certified per measured configuration in Figs. 8–10.
pub const BLOCKS_PER_MEASUREMENT: u64 = 20;

/// Reads `DCERT_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("DCERT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(1.0)
}

/// Scales a count by `DCERT_SCALE`, keeping at least 1.
pub fn scaled(n: u64) -> u64 {
    ((n as f64 * scale()).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_never_hits_zero() {
        assert!(scaled(1) >= 1);
        assert!(scaled(100_000) >= 1);
    }

    #[test]
    fn grids_are_nonempty_and_sorted() {
        assert!(CHAIN_LENGTHS.windows(2).all(|w| w[0] < w[1]));
        assert!(BLOCK_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(INDEX_COUNTS.windows(2).all(|w| w[0] < w[1]));
        assert!(WINDOW_DISTANCES.windows(2).all(|w| w[0] < w[1]));
    }
}
