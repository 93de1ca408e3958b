//! Output helpers for the figure/table binaries: aligned text rows.

use std::time::Duration;

/// Formats a duration with appropriate precision for table cells.
pub fn fmt_duration(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2} s", d.as_secs_f64())
    } else if d >= Duration::from_millis(1) {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.2} µs", d.as_secs_f64() * 1e6)
    }
}

/// Formats byte counts with binary units.
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1024 * 1024 * 1024 {
        format!("{:.2} GB", bytes as f64 / (1024.0 * 1024.0 * 1024.0))
    } else if bytes >= 1024 * 1024 {
        format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.2} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// The first 12 hex digits of a digest, for figure footers.
pub fn short(digest: &dcert_primitives::hash::Hash) -> String {
    digest.to_string()[..12].to_owned()
}

/// Prints the standard experiment banner.
pub fn banner(figure: &str, paper_expectation: &str) {
    println!("== {figure} ==");
    println!("paper expectation: {paper_expectation}");
    let scale = crate::params::scale();
    if (scale - 1.0).abs() > f64::EPSILON {
        println!("note: DCERT_SCALE={scale} — sizes scaled accordingly");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_by_magnitude() {
        assert!(fmt_duration(Duration::from_nanos(1_500)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(3)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with("s"));
    }

    #[test]
    fn bytes_format_by_magnitude() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert!(fmt_bytes(3 * 1024 * 1024).ends_with("MB"));
    }
}
