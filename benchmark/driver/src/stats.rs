//! Order statistics over the samples a run collects.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Exact percentile (nearest rank on the sorted values); 0 when empty.
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        len => sorted[(len - 1) * pct.min(100) / 100],
    }
}

/// Median: the mean of the two middle values for an even count; 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => 0.0,
        len if len % 2 == 1 => sorted[mid],
        _ => (sorted[mid - 1] + sorted[mid]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Counts as floats, for the statistics above.
pub fn floats(counts: &[u64]) -> Vec<f64> {
    counts.iter().map(|&c| c as f64).collect()
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_on_small_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50), 50.0);
        assert_eq!(percentile(&values, 99), 99.0);
        assert_eq!(percentile(&values, 100), 100.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(floats(&[1, 2]), vec![1.0, 2.0]);
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
