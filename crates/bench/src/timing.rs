//! The figure binaries' one clock and one row statistic.
//!
//! Every timed cell of a figure is the [`Spread`] of [`reps`] repetitions
//! of its row, each sample taken with `dcert_sgx::cost::timed`, the one
//! sanctioned clock outside the simulation modules. Rows that a figure
//! compares with each other run in [`rounds`]: every round runs each row
//! once and starts at a different one, so a neighbour that slows the
//! machine for a while taxes every row alike instead of one. A row that
//! stands alone [`repeat`]s back to back.

use std::fmt::{self, Debug};
use std::time::Duration;

use crate::params::scale;
use crate::report::fmt_duration;
use crate::shape;

/// Repetitions of each timed row at the current `DCERT_SCALE`.
pub fn reps() -> usize {
    reps_at(scale())
}

/// Five at full scale, where timing relations are read; one below it, so a
/// smoke run does exactly the work of one run of every row.
fn reps_at(scale: f64) -> usize {
    if scale >= 1.0 {
        5
    } else {
        1
    }
}

/// Prints, after a blank line, the line that says what a timed cell is.
pub fn note() {
    let k = reps();
    println!("\n(timed cells: median [q1–q3] over {k} run(s) of each row)");
}

/// Runs [`reps`] rounds over `rows` compared rows, each round every row
/// once, round `r` starting at row `r % rows`. A run returns its `N` timed
/// columns beside its counter columns; each row comes back as the
/// [`Spread`] of each timed column beside the counters, which must repeat
/// exactly across the row's runs (else a panic naming `what`).
pub fn rounds<const N: usize, C: PartialEq + Debug + Clone>(
    what: &str,
    rows: usize,
    run: impl FnMut(usize) -> ([Duration; N], C),
) -> Vec<([Spread; N], C)> {
    let runs = rounds_of(reps(), rows, run);
    runs.iter().map(|runs| summarize(what, runs)).collect()
}

/// [`rounds`] for a row that stands alone: its runs back to back.
pub fn repeat<const N: usize, C: PartialEq + Debug + Clone>(
    what: &str,
    mut run: impl FnMut() -> ([Duration; N], C),
) -> ([Spread; N], C) {
    rounds(what, 1, |_| run()).swap_remove(0)
}

fn rounds_of<T>(k: usize, rows: usize, mut run: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..rows).map(|_| Vec::with_capacity(k)).collect();
    for round in 0..k {
        for row in (0..rows).map(|i| (round + i) % rows) {
            out[row].push(run(row));
        }
    }
    out
}

/// A row's runs as [`rounds`] returns them ([`shape::constant`] on the
/// counters).
fn summarize<const N: usize, C>(what: &str, runs: &[([Duration; N], C)]) -> ([Spread; N], C)
where
    C: PartialEq + Debug + Clone,
{
    let counters: Vec<&C> = runs.iter().map(|(_, counters)| counters).collect();
    shape::constant(what, &counters);
    let spreads = std::array::from_fn(|i| Spread::of(runs.iter().map(|(times, _)| times[i])));
    (spreads, runs[0].1.clone())
}

/// A timed row's median and quartiles over its repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spread {
    pub median: Duration,
    pub q1: Duration,
    pub q3: Duration,
}

impl Spread {
    /// The spread of `samples`, interpolating linearly between ranks (so
    /// the median of an even count is the mean of the middle two).
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    pub fn of(samples: impl IntoIterator<Item = Duration>) -> Spread {
        let mut sorted: Vec<Duration> = samples.into_iter().collect();
        assert!(!sorted.is_empty(), "a timed row needs a sample");
        sorted.sort_unstable();
        // The `quarters`/4 quantile; `pos` is its rank in quarter steps.
        let at = |quarters: usize| {
            let pos = (sorted.len() - 1) * quarters;
            let below = sorted[pos / 4];
            let above = sorted.get(pos / 4 + 1).copied().unwrap_or(below);
            below + (above - below) * (pos % 4) as u32 / 4
        };
        Spread {
            median: at(2),
            q1: at(1),
            q3: at(3),
        }
    }

    /// The spread per item of a row whose samples each time `n` items.
    pub fn per(self, n: u32) -> Spread {
        Spread {
            median: self.median / n,
            q1: self.q1 / n,
            q3: self.q3 / n,
        }
    }
}

/// `median [q1–q3]`, each as [`fmt_duration`] writes it; a width pads
/// the whole cell.
impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [median, q1, q3] = [self.median, self.q1, self.q3].map(fmt_duration);
        f.pad(&format!("{median} [{q1}–{q3}]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(xs: &[u64]) -> Vec<Duration> {
        xs.iter().map(|&x| Duration::from_millis(x)).collect()
    }

    fn spread(median: u64, q1: u64, q3: u64) -> Spread {
        Spread {
            median: Duration::from_millis(median),
            q1: Duration::from_millis(q1),
            q3: Duration::from_millis(q3),
        }
    }

    #[test]
    fn spread_of_known_samples() {
        // One sample is its own median and quartiles.
        assert_eq!(Spread::of(ms(&[7])), spread(7, 7, 7));
        // Five, in any order: the middle three ranks.
        assert_eq!(Spread::of(ms(&[50, 10, 40, 20, 30])), spread(30, 20, 40));
        // An even count interpolates: ranks 0.75, 1.5 and 2.25 of four.
        assert_eq!(Spread::of(ms(&[40, 0, 80, 160])), spread(60, 30, 100));
        assert_eq!(
            Spread::of(ms(&[40, 0, 80, 160])).per(10).median.as_millis(),
            6
        );
        assert!(std::panic::catch_unwind(|| Spread::of(ms(&[]))).is_err());
        // A width pads the whole cell.
        assert_eq!(
            format!("{:>32}", spread(60, 30, 100)),
            "   60.00 ms [30.00 ms–100.00 ms]"
        );
    }

    #[test]
    fn summarize_spreads_each_column_and_pins_the_counters() {
        let run = |a, b, bytes| ([Duration::from_millis(a), Duration::from_millis(b)], bytes);
        let runs = [3, 1, 5, 2, 4].map(|t| run(t, 10 * t, 7));
        assert_eq!(
            summarize("bytes", &runs),
            ([spread(3, 2, 4), spread(30, 20, 40)], 7)
        );
        let moved = [run(1, 10, 7), run(1, 10, 8)];
        assert!(std::panic::catch_unwind(|| summarize("bytes", &moved)).is_err());
    }

    #[test]
    fn each_round_runs_every_row_starting_at_the_next() {
        let mut order = Vec::new();
        let outputs = rounds_of(4, 3, |row| {
            order.push(row);
            order.len()
        });
        assert_eq!(order, vec![0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]);
        // Each row's outputs in round order: row 0 ran 1st, 6th, 8th, 10th.
        assert_eq!(
            outputs,
            vec![vec![1, 6, 8, 10], vec![2, 4, 9, 11], vec![3, 5, 7, 12]]
        );
    }

    #[test]
    fn five_repetitions_at_full_scale_one_below() {
        for (scale, k) in [(0.002, 1), (0.5, 1), (0.999, 1), (1.0, 5), (4.0, 5)] {
            assert_eq!(reps_at(scale), k, "DCERT_SCALE={scale}");
        }
    }
}
