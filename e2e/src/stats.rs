//! Order statistics for latency samples.

/// Samples that must lie beyond a reported percentile for it to be trusted
/// (choosing-metrics §1): p95 therefore needs at least 200 samples.
pub const TAIL_SAMPLES: usize = 10;

/// Sort samples ascending in place.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of an ascending slice; 0 when it is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Does a sample of `n` leave at least [`TAIL_SAMPLES`] beyond quantile `q`?
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= TAIL_SAMPLES as f64 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_odd_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert!(supports(20, 0.50));
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
    }
}
