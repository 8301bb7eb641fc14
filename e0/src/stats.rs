//! Order statistics over the benchmark's samples.

/// The `p`-quantile (`0.0..=1.0`) of an ascending slice, nearest rank.
/// Empty input reads as 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Mean of the middle half of the samples: as robust against stragglers
/// as a median, but an average of measured values, so a layer timing keeps
/// all its digits instead of snapping to one sample.
pub fn midmean(values: &[f64]) -> f64 {
    let s = sorted(values);
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

/// Split `n` samples into at most `parts` contiguous, near-equal ranges.
pub fn segments(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    (0..parts)
        .map(|k| (k * n / parts)..((k + 1) * n / parts))
        .filter(|r| !r.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_midmean() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // One straggler does not move the midmean.
        assert_eq!(midmean(&[1.0, 1.0, 1.0, 1.0, 1000.0]), 1.0);
        assert_eq!(midmean(&[]), 0.0);
        let segs = segments(10, 3);
        assert_eq!(segs.iter().map(|r| r.len()).sum::<usize>(), 10);
        assert_eq!(segments(2, 10).len(), 2);
    }
}
