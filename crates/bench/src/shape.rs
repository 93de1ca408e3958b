//! What a figure binary asserts about itself, beside the row that shows it.

use dcert_obs::Registry;

use crate::params::scale;

/// Whether wall-clock shape claims are asserted: only at full scale are
/// the timed sections long enough for a timing relation to be stable.
pub fn wall_clock() -> bool {
    scale() >= 1.0
}

/// Asserts the experiment drove the instrumented components it claims to
/// measure: every named counter moved, every named histogram recorded.
pub fn recorded(obs: &Registry, counters: &[&str], histograms: &[&str]) {
    let snapshot = obs.snapshot();
    for name in counters {
        assert!(snapshot.counter(name) > 0, "counter `{name}` never moved");
    }
    for name in histograms {
        let count = snapshot.histograms.get(*name).map_or(0, |h| h.count);
        assert!(count > 0, "histogram `{name}` recorded nothing");
    }
}

/// Asserts every `ys` is the same value.
pub fn constant<Y: PartialEq + std::fmt::Debug>(what: &str, ys: &[Y]) {
    assert!(
        ys.windows(2).all(|w| w[0] == w[1]),
        "{what} must not vary: {ys:?}"
    );
}

/// Asserts `ys` grows strictly wherever `xs` does (and repeats where `xs`
/// repeats, as scaled-down grids may).
pub fn grows_with<X: PartialOrd, Y: PartialOrd + std::fmt::Debug>(what: &str, xs: &[X], ys: &[Y]) {
    for (x, y) in xs.windows(2).zip(ys.windows(2)) {
        assert!(
            (x[0] < x[1]) == (y[0] < y[1]) && (x[0] == x[1]) == (y[0] == y[1]),
            "{what} must grow with its axis: {ys:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_names_the_silent_metric() {
        let obs = Registry::new();
        obs.counter("a").inc();
        recorded(&obs, &["a"], &[]);
        let silent = std::panic::catch_unwind(|| recorded(&obs, &["a", "b"], &[]));
        assert!(silent.is_err(), "an unmoved counter must fail the figure");
        let silent = std::panic::catch_unwind(|| recorded(&obs, &[], &["h"]));
        assert!(silent.is_err(), "an empty histogram must fail the figure");
    }

    #[test]
    fn grows_with_follows_the_axis() {
        grows_with("bytes", &[1, 2, 2, 5], &[10, 20, 20, 21]);
        for flat in [[10, 10, 30], [10, 30, 20]] {
            let lost = std::panic::catch_unwind(|| grows_with("bytes", &[1, 2, 3], &flat));
            assert!(lost.is_err(), "{flat:?} does not grow with 1, 2, 3");
        }
    }
}
