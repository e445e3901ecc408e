//! Overloading-PE detection (Algorithm 1, line 19).
//!
//! "A PE is considered overloading if the z-score of its WIR in the
//! distribution of the WIR created from the database exceeds 3.0."
//!
//! Besides the paper's z-score test this module provides a robust variant
//! (median / MAD), which stays reliable when the overloader fraction is
//! large enough to inflate the standard deviation — a failure mode the
//! z-score rule exhibits above ~15 % overloaders (see tests). It changes
//! decisions end to end: over five seeds of `ablation_alpha` (fixed
//! α = 0.4) it beats the z-score at P = 32 and 64 and trails it at
//! P = 128 and 256.

use serde::{Deserialize, Serialize};

/// The paper's outlier threshold (Algorithm 1).
pub const DEFAULT_Z_THRESHOLD: f64 = 3.0;

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    mean_iter(values.iter().copied(), values.len())
}

/// Streaming [`mean`] over a population of `n` values — the identical
/// left-to-right summation, so the result is bit-identical to the slice
/// version without materializing the slice.
fn mean_iter<I: Iterator<Item = f64>>(values: I, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    values.sum::<f64>() / n as f64
}

/// Population standard deviation of `n` values (0 for fewer than two); the
/// iterator is replayed (`Clone`) for the two passes.
fn std_dev_iter<I: Iterator<Item = f64> + Clone>(values: I, n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let m = mean_iter(values.clone(), n);
    (values.map(|v| (v - m) * (v - m)).sum::<f64>() / n as f64).sqrt()
}

/// The `(mean, population σ)` pair parameterizing [`z_scores`], computed
/// streaming. With these, `z_from(x, mean, sd)` reproduces `z_scores`'s
/// entry for any `x` of the population bit-for-bit — the allocation-free
/// path for sparse-database consumers scoring `O(P)` populations.
pub fn z_params<I: Iterator<Item = f64> + Clone>(values: I, n: usize) -> (f64, f64) {
    (mean_iter(values.clone(), n), std_dev_iter(values, n))
}

/// z-score of `value` given precomputed [`z_params`] (0 when the
/// population has zero spread: nobody is an outlier).
pub fn z_from(value: f64, mean: f64, sd: f64) -> f64 {
    if sd == 0.0 {
        0.0
    } else {
        (value - mean) / sd
    }
}

/// Median of a slice (0 for an empty slice). `O(n log n)`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// z-scores of every element of `values` within `values`.
pub fn z_scores(values: &[f64]) -> Vec<f64> {
    let (m, sd) = z_params(values.iter().copied(), values.len());
    values.iter().map(|&v| z_from(v, m, sd)).collect()
}

/// Robust z-scores: `0.6745·(x − median)/MAD` (the 0.6745 factor makes the
/// MAD consistent with the standard deviation under normality).
///
/// When the MAD degenerates to zero (more than half the values identical),
/// falls back to the mean absolute deviation with its consistency factor
/// 1.2533; if that is also zero every score is zero (no spread, no outliers).
pub fn robust_z_scores(values: &[f64]) -> Vec<f64> {
    let med = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    let mad = median(&deviations);
    let (scale, factor) = if mad > 0.0 { (mad, 0.6745) } else { (mean(&deviations), 1.2533) };
    values.iter().map(|v| if scale == 0.0 { 0.0 } else { factor * (v - med) / scale }).collect()
}

/// Which detection statistic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionStat {
    /// The paper's plain z-score (mean/σ).
    ZScore,
    /// Median/MAD robust z-score (our extension).
    RobustZScore,
}

/// Per-rank overloading verdicts: `flags[r]` is true when rank `r`'s WIR is
/// an upper outlier at `threshold`. The driver scores one rank at a time
/// (`policy::outlier_score`); this whole-vector form pins the statistics in
/// the tests below.
#[cfg(test)]
fn detect_overloading(wirs: &[f64], threshold: f64, stat: DetectionStat) -> Vec<bool> {
    let scores = match stat {
        DetectionStat::ZScore => z_scores(wirs),
        DetectionStat::RobustZScore => robust_z_scores(wirs),
    };
    scores.iter().map(|&z| z > threshold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense, two-pass population standard deviation the streaming
    /// version must match bit for bit.
    fn std_dev(values: &[f64]) -> f64 {
        if values.len() < 2 {
            return 0.0;
        }
        let m = mean(values);
        (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
    }

    #[test]
    fn basic_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), 2.5);
        assert!((std_dev(&v) - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(z_scores(&[1.0]), vec![0.0]);
    }

    #[test]
    fn uniform_population_has_no_outliers() {
        let wirs = vec![2.0; 32];
        let flags = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn single_overloader_among_32_is_detected() {
        // The Fig. 4 scenario: one strongly erodible rock among 32 ranks.
        let mut wirs = vec![1.0; 32];
        wirs[7] = 50.0;
        let flags = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 1);
        assert!(flags[7]);
    }

    #[test]
    fn three_overloaders_among_32_detected() {
        // k=3, n=32: z = sqrt((n−k)/k) ≈ 3.11 > 3, just above threshold.
        let mut wirs = vec![0.0; 32];
        for r in [1, 10, 20] {
            wirs[r] = 1.0;
        }
        let flags = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 3);
    }

    #[test]
    fn zscore_misses_large_outlier_fractions_but_robust_does_not() {
        // k=8 of n=32 (25 %): z = sqrt(24/8) ≈ 1.73 < 3 — the paper's rule
        // goes blind; the MAD-based rule still flags them.
        let mut wirs = vec![0.0; 32];
        for w in wirs.iter_mut().take(8) {
            *w = 1.0;
        }
        let z = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert_eq!(z.iter().filter(|&&f| f).count(), 0, "plain z-score is blind here");
        let robust = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::RobustZScore);
        assert_eq!(robust.iter().filter(|&&f| f).count(), 8);
    }

    #[test]
    fn negative_outliers_not_flagged() {
        // Detection is one-sided: an *underloading* PE is not "overloading".
        let mut wirs = vec![10.0; 32];
        wirs[0] = -100.0;
        let flags = detect_overloading(&wirs, DEFAULT_Z_THRESHOLD, DetectionStat::ZScore);
        assert!(!flags[0]);
    }

    #[test]
    fn streaming_statistics_are_bit_identical_to_dense() {
        let v = [3.25, -1.5, 0.0, 7.0, 7.0, -2.75, 1e9, 0.125];
        let it = || v.iter().copied();
        assert_eq!(mean_iter(it(), v.len()).to_bits(), mean(&v).to_bits());
        assert_eq!(std_dev_iter(it(), v.len()).to_bits(), std_dev(&v).to_bits());
        let (m, sd) = z_params(it(), v.len());
        for (x, z) in v.iter().zip(z_scores(&v)) {
            assert_eq!(z_from(*x, m, sd).to_bits(), z.to_bits());
        }
    }

    #[test]
    fn zscores_standardize() {
        let v = [0.0, 10.0];
        let z = z_scores(&v);
        assert!((z[0] + 1.0).abs() < 1e-12);
        assert!((z[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn robust_zero_mad_falls_back_to_mean_deviation() {
        // Majority identical ⇒ MAD = 0; the mean-absolute-deviation fallback
        // still isolates the outlier.
        let v = [1.0, 1.0, 1.0, 9.0];
        let z = robust_z_scores(&v);
        assert!(z[3] > DEFAULT_Z_THRESHOLD, "outlier score {}", z[3]);
        assert!(z[0].abs() < 1.0);
    }

    #[test]
    fn robust_all_equal_is_silent() {
        let z = robust_z_scores(&[4.0; 16]);
        assert!(z.iter().all(|&s| s == 0.0));
    }
}
