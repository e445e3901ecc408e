//! Small statistics toolkit for the figure harnesses (quartiles, box-plot
//! summaries, histograms).

/// Quantile of a *sorted* slice using linear interpolation (`q ∈ [0, 1]`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Sort a copy and return the median.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    quantile_sorted(&v, 0.5)
}

/// Arithmetic mean (`0` for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The five-number summary plus the mean (box-plot input).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

impl BoxStats {
    /// Compute from raw (unsorted) values.
    pub fn from(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "box stats of empty data");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Self {
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
            mean: mean(&v),
        }
    }
}

/// Equal-width histogram over `[lo, hi]`; values outside clamp to the edge
/// bins. Returns `(bin_lo, bin_hi, count)` triples.
pub fn histogram(values: &[f64], bins: usize, lo: f64, hi: f64) -> Vec<(f64, f64, usize)> {
    assert!(bins >= 1 && hi > lo);
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0usize; bins];
    for &v in values {
        let idx = (((v - lo) / width).floor() as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (lo + i as f64 * width, lo + (i + 1) as f64 * width, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_data() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
    }

    #[test]
    fn interpolated_quantile() {
        let v = [0.0, 10.0];
        assert_eq!(quantile_sorted(&v, 0.3), 3.0);
    }

    #[test]
    fn box_stats() {
        let b = BoxStats::from(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.mean, 3.0);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let h = histogram(&[-1.0, 0.1, 0.2, 0.9, 2.0], 2, 0.0, 1.0);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].2, 3); // -1.0 clamps into the first bin
        assert_eq!(h[1].2, 2); // 2.0 clamps into the last bin
    }

    #[test]
    fn median_unsorted() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
