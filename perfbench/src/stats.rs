//! Order statistics over timing samples.

/// Sorted copy (NaN-safe total order).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in [0, 1] of a sorted slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; panics on an empty sample (a workload that timed nothing is a
/// bug in the benchmark, not a measurement).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.5), quantile_sorted(&v, 0.75))
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The highest percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in (50, 100), e.g. 99.0.
    pub percentile: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// Highest of p90/p99/p99.9/p99.99 with >= 10 samples beyond it; `None`
/// when even p90 is not supported (fewer than 100 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    // Basis points, so that "a tenth of 100 samples" is exactly 10.
    [9999usize, 9990, 9900, 9000].into_iter().find_map(|bp| {
        let beyond = n * (10_000 - bp) / 10_000;
        (beyond >= 10).then(|| Tail {
            percentile: bp as f64 / 100.0,
            value: v[n - 1 - beyond],
            samples: n,
        })
    })
}

/// Interquartile range as a share of the median: the spread the driver
/// gates on, computed the way `statistics.quantiles(values, n=4)` does
/// (exclusive method).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "spread needs two samples");
    let at = |k: usize| {
        // Python's exclusive method: divmod(k*(n+1), 4), 1-based, clamped.
        let (j, delta) = (k * (n + 1) / 4, (k * (n + 1) % 4) as f64);
        let j = j.clamp(1, n - 1);
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(3) - at(1)) / quantile_sorted(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
    }

    #[test]
    fn geomean_weights_ratios_not_differences() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 90.0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
