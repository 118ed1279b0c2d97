//! Order statistics the harness reports: nearest-rank percentiles, medians,
//! geometric means and the quartile spread the acceptance test uses. (The
//! median-of-rounds rule itself lives with the rounds, in `harness::Timed`.)

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`.
/// Panics on an empty slice: a round without samples is a harness bug.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns the nearest-rank percentile.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, q)
}

/// Median with the usual mean-of-middle-two rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Highest percentile with at least ten samples beyond it, capped at p99.
pub fn tail_quantile(samples: usize) -> f64 {
    if samples >= 1000 {
        0.99
    } else if samples >= 200 {
        0.95
    } else {
        0.90
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method) — the acceptance test's definition of spread.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&mut s, 0.50), 50.0);
        assert_eq!(percentile(&mut s, 0.99), 99.0);
        assert_eq!(percentile(&mut s, 1.0), 100.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&[5.0, 500.0, 5.0, 5.0, 5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(150), 0.90);
    }

    #[test]
    fn geomean_of_ratios_is_ratio_of_geomeans() {
        let a = [2.0, 8.0];
        let b = [1.0, 2.0];
        let ratios: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x / y).collect();
        assert!((geomean(&ratios) - geomean(&a) / geomean(&b)).abs() < 1e-12);
        assert!((geomean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
