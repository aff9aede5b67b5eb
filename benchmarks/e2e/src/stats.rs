//! Order statistics for benchmark samples.
//!
//! Every timing the benchmark reports is a median over repetitions with
//! min / max / inter-quartile range and the sample count printed beside
//! it, so a reader can see how steady the number was.

/// Linear-interpolated percentile (`p` in `[0, 100]`) of an ascending
/// slice. Panics on an empty slice: a metric without samples is a bug in
/// the benchmark, not a value to report.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Ascending copy of `xs` (NaNs are a benchmark bug and panic).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in benchmark sample"));
    v
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile_sorted(&sorted(xs), 50.0)
}

/// Median, extremes, inter-quartile range and count of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let s = sorted(xs);
        Self {
            median: percentile_sorted(&s, 50.0),
            min: s[0],
            max: s[s.len() - 1],
            iqr: percentile_sorted(&s, 75.0) - percentile_sorted(&s, 25.0),
            n: s.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.0), 0.0);
        assert_eq!(percentile_sorted(&s, 95.0), 95.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn summary_reports_iqr_and_extremes() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5));
        assert_eq!(s.iqr, 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_a_bug() {
        median(&[]);
    }
}
