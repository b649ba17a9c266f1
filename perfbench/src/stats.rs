//! Order statistics over wall-clock samples.
//!
//! Every helper takes the samples unsorted and panics on an empty slice:
//! each call site has at least one timed repetition by construction.

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The smallest sample. Host noise on a shared machine only ever adds
/// time, so the fastest repetition is the steadiest estimate of the
/// work's own cost.
pub fn best(xs: &[f64]) -> f64 {
    sorted(xs)[0]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same "exclusive"
/// method as Python's `statistics.quantiles(xs, n=4)`, so spreads printed
/// here match the ones computed from the result lines. A single sample is
/// its own three quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_and_median() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), [1.5, 3.0, 4.5]);
        // Python extrapolates below three samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=122).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 61.0);
        assert_eq!(percentile(&xs, 90.0), 110.0);
        assert_eq!(percentile(&xs, 100.0), 122.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 90.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_are_a_bug() {
        median(&[]);
    }
}
