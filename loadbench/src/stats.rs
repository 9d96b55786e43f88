//! Order statistics.

/// Nearest-rank percentile `q ∈ [0, 1]` of an ascending slice (NaN when
/// empty).
pub fn percentile_sorted(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of an unsorted sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 0.5), 50.0);
        assert_eq!(percentile_sorted(&xs, 0.99), 99.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 100.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
