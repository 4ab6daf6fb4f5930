//! Order statistics over measured samples.

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so spreads printed
/// here match the ones computed from the printed values.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let n = 4usize;
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// The median (the middle quartile).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of already sorted samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }
}
