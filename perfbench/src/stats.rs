//! Sample statistics for the benchmark's metrics.
//!
//! Latencies are reported as a median and a tail percentile, and a
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p90 over 40 samples rests on four values and is noise.
//! A failed or refused operation is recorded as an infinite latency, so
//! it counts as missing every latency limit and pushes the percentiles
//! up instead of silently leaving the sample.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value, or `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond the requested rank.
    pub value: Option<f64>,
    /// Number of samples the percentile was taken over (failures
    /// included, as infinite values).
    pub samples: usize,
}

/// The `q`-th percentile (0 < q < 1) by the nearest-rank rule, reported
/// only when at least [`MIN_BEYOND`] samples lie strictly beyond its
/// rank. Infinite values (failed operations) take part like any other.
pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    assert!(q > 0.0 && q < 1.0, "percentile rank must be inside (0, 1)");
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let value = if n >= rank && n - rank >= MIN_BEYOND {
        Some(sorted[rank - 1])
    } else {
        None
    };
    Percentile { value, samples: n }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Failed operations over attempted ones (0 for no attempts).
pub fn fail_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 19 samples: the median's rank is 10, leaving 9 beyond it.
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        let p = percentile(&s, 0.5);
        assert_eq!(p.value, None);
        assert_eq!(p.samples, 19);
        // 20 samples: rank 10, ten beyond.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5).value, Some(10.0));
        // p90 needs 100 samples.
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9).value, None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&s, 0.9);
        assert_eq!(p.value, Some(90.0));
        assert_eq!(p.samples, 100);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (1..=40).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&s, 0.5).value, Some(20.0));
    }

    #[test]
    fn failures_miss_every_latency_limit() {
        // 100 operations, 15 failed: the failures sort above every
        // success, so p90 lands on a failure and reads infinite.
        let mut s: Vec<f64> = (1..=85).map(f64::from).collect();
        s.extend(std::iter::repeat_n(f64::INFINITY, 15));
        let p90 = percentile(&s, 0.9).value.unwrap();
        assert!(p90.is_infinite());
        // 5 failed: p90 is still a success, the 90th value, and the
        // median sits higher than it would without the failures.
        let mut s: Vec<f64> = (1..=95).map(f64::from).collect();
        s.extend(std::iter::repeat_n(f64::INFINITY, 5));
        assert_eq!(percentile(&s, 0.9).value, Some(90.0));
        let without: Vec<f64> = (1..=95).map(f64::from).collect();
        assert!(percentile(&without, 0.5).value < percentile(&s, 0.5).value);
    }

    #[test]
    fn median_and_fail_share() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(fail_share(0, 0), 0.0);
        assert_eq!(fail_share(50, 2), 0.04);
    }
}
