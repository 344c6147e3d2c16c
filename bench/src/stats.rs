//! Order statistics over raw samples.

/// Nearest-rank percentile of an ascending slice (`pct` in `0..=100`):
/// the smallest sample with at least `pct` percent of the samples at or
/// below it. Exact — no bucketing. Zero when empty.
pub fn percentile_sorted(sorted: &[u32], pct: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two when the count is even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(max − min) ÷ median`: how far the repetitions of one run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 99.9), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 50.0), 7);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        // Even count: nearest rank takes the lower middle, never a value
        // that was not observed.
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 51.0), 30);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
