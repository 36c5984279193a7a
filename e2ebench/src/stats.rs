//! Order statistics used by every workload: medians, the interquartile
//! mean and the tail-percentile rule.

/// Median of `values` (mean of the middle pair for even lengths); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of the middle half of `values`: a quarter (rounded down) of the
/// samples is dropped at each end.  Unlike the median it moves smoothly
/// when samples fall into two clusters in varying proportions, and unlike
/// the mean it ignores a few stalled samples.  `0.0` for an empty slice.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// A tail percentile chosen by the rule "the highest percentile that still
/// has at least [`TAIL_MIN_BEYOND`] samples beyond it".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99 when there are enough samples).
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles tried from the requested one downwards.
const LADDER: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// Nearest-rank index (0-based) of percentile `p` over `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The value at percentile `p` (nearest rank) of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len())]
}

/// The highest percentile at or below `want` (from 99, 98, 95, 90, 75, 50)
/// that leaves at least [`TAIL_MIN_BEYOND`] samples strictly beyond its
/// rank.  With fewer than 20 samples no percentile qualifies and the
/// maximum is reported as percentile 100, so a tiny sample can never
/// masquerade as a tail estimate.
pub fn tail(values: &[f64], want: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for &p in LADDER.iter().filter(|&&p| p <= want && p > 0.0) {
        if n > 0 && n - 1 - rank(p, n) >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: p,
                value: sorted[rank(p, n)],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: sorted.last().copied().unwrap_or(0.0),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        // Three samples keep all three; four keep the middle two.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 1.0, 4.0]), 3.0);
        // A stalled sample among eight is dropped.
        let values = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 50.0];
        assert_eq!(interquartile_mean(&values), 1.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank of p99 is index 989, leaving exactly 10 beyond.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values, 99.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn small_samples_fall_back_to_a_lower_percentile() {
        // 999 samples: p99 leaves only 9 beyond, p98 leaves 19.
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&values, 99.0).percentile, 98.0);
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 99.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        // 20 samples: only the median leaves 10 beyond.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values, 99.0).percentile, 50.0);
        // Fewer than 20: no percentile qualifies; the maximum is reported.
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        let t = tail(&values, 99.0);
        assert_eq!((t.percentile, t.value), (100.0, 19.0));
    }
}
