//! Nearest-rank percentiles that carry their sample counts.

/// One percentile of a sample: the value, the sample size, and how many
/// samples lie strictly beyond its rank (the tail that supports it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`: the value at
/// rank `⌈p/100 · n⌉` of the sorted sample. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of a non-empty sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A percentile is reportable when at least ten samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let p90 = percentile(&xs, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p100 = percentile(&xs, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
    }

    #[test]
    fn order_and_small_samples() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 50.0).unwrap().value, 3.0);
        assert_eq!(percentile(&xs, 1.0).unwrap().value, 1.0);
        assert_eq!(percentile(&[7.0], 99.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(median(&[4.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_beyond_needs_a_thousand_samples_at_p99() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&xs, 99.0).unwrap().beyond < MIN_BEYOND);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0).unwrap().beyond, MIN_BEYOND);
    }
}
