//! Order statistics with the benchmark's reporting rule: a median is always
//! reported, a higher percentile only when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a tail figure never rests on a handful of points.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`, or
/// `None` when `p` is above the median and fewer than [`MIN_BEYOND`]
/// samples lie beyond its rank. A median needs only one sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if p > 50.0 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts a copy ascending (NaN-free input; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (the nearest-rank p50), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The smallest sample count for which [`percentile`] reports `p`.
    pub(crate) fn min_samples_for(p: f64) -> usize {
        (1..=100_000)
            .find(|&n| percentile(&vec![0.0; n], p).is_some())
            .expect("every percentile below 100 becomes reportable")
    }

    #[test]
    fn median_is_reported_for_any_nonempty_sample() {
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of n samples has n - ceil(0.99 n) samples beyond its rank.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(50.0), 1);
    }

    #[test]
    fn nearest_rank_values() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 50.0001), None, "9 beyond is too few");
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0001), Some(11.0));
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
