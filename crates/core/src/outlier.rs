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
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Fold a population of `n` values of which `known` lists the
/// `(rank, value)` pairs, in ascending rank order; every other rank reads
/// 0.0. `value` folds one listed value and `gap` a run of `g ≥ 1`
/// consecutive unlisted ranks, so the fold visits what is listed, not `n`.
pub(crate) fn fold_population<A>(
    known: impl Iterator<Item = (usize, f64)>,
    n: usize,
    init: A,
    mut value: impl FnMut(A, f64) -> A,
    mut gap: impl FnMut(A, usize) -> A,
) -> A {
    let (mut acc, mut next) = (init, 0);
    for (rank, v) in known {
        if rank > next {
            acc = gap(acc, rank - next);
        }
        acc = value(acc, v);
        next = rank + 1;
    }
    if n > next {
        acc = gap(acc, n - next);
    }
    acc
}

/// `acc` after `g` steps of `acc = acc + c`, bit for bit, in a few steps
/// per binade crossed instead of `g`.
///
/// Inside one binade (same sign and exponent: one ulp) a step rounds on
/// the same grid whatever the value, so it adds the same δ — provided the
/// value it starts from came out of an in-binade step itself: a half-ulp
/// tie leaves an even mantissa, which then ties the same way every time.
/// So once three consecutive values share a binade, the rest of it is one
/// exact jump of `k·δ` in the bit pattern, to the last value inside the
/// binade (one ulp above its floor when the magnitude falls, which keeps
/// the finer grid below out of reach). A step that leaves `acc` unchanged
/// repeats for the rest of the run, and a non-finite value stays
/// non-finite (NaN as a class, not a payload).
pub(crate) fn repeat_add(mut acc: f64, c: f64, mut g: usize) -> f64 {
    const MANTISSA: i64 = (1 << 52) - 1;
    let mut from_binade = false;
    while g > 0 {
        let next = acc + c;
        g -= 1;
        if next.to_bits() == acc.to_bits() {
            return acc;
        }
        if !next.is_finite() {
            return if g > 0 { next + c } else { next };
        }
        let (was, now) = (acc.to_bits() as i64, next.to_bits() as i64);
        let in_binade = was >> 52 == now >> 52;
        acc = next;
        if in_binade && from_binade {
            // δ in ulps along the magnitude (both sides share the sign).
            let step = now - was;
            let mantissa = now & MANTISSA;
            let room =
                if step > 0 { (MANTISSA - mantissa) / step } else { (mantissa - 1).max(0) / -step };
            let k = g.min(room as usize);
            acc = f64::from_bits((now + k as i64 * step) as u64);
            g -= k;
        }
        from_binade = in_binade;
    }
    acc
}

/// The `(mean, population σ)` pair parameterizing [`z_scores`], for a
/// population of `n` values of which `known` lists the `(rank, value)`
/// pairs in ascending rank order; every other rank reads 0.0.
///
/// Bit for bit the dense two-pass fold over the default-filled vector
/// (`f64`'s `Sum`, which starts from −0.0, left to right), at the cost of
/// the listed pairs plus, per gap of unlisted ranks, one add for the mean
/// (`x + 0.0` is `x` for every `x` but −0.0, so one add stands for the
/// whole gap) and a few steps per binade crossed for the deviation. With
/// these, `z_from(x, mean, sd)` reproduces `z_scores`'s entry for any `x`
/// of the population; a dense slice is the case without gaps
/// (`values.iter().copied().enumerate()`).
pub fn z_params<I: Iterator<Item = (usize, f64)> + Clone>(known: I, n: usize) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    let sum = fold_population(known.clone(), n, -0.0, |s, v| s + v, |s, _| s + 0.0);
    let m = sum / n as f64;
    if n < 2 {
        return (m, 0.0);
    }
    let unlisted = (0.0 - m) * (0.0 - m);
    let squares = fold_population(
        known,
        n,
        -0.0,
        |s, v| s + (v - m) * (v - m),
        |s, g| repeat_add(s, unlisted, g),
    );
    (m, (squares / n as f64).sqrt())
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
    let (m, sd) = z_params(values.iter().copied().enumerate(), values.len());
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

    /// A SplitMix64 stream: test inputs without a dependency.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Equal bits, or both NaN.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// A dense population, then sparse ones — at most 40 listed ranks
    /// among up to a few thousand, gaps at both ends or none, values drawn
    /// from signed zeros, subnormals, infinities, NaN and ordinary
    /// magnitudes — fold to the dense statistics of the default-filled
    /// vector, bit for bit.
    #[test]
    fn streaming_statistics_are_bit_identical_to_dense() {
        let v = [3.25, -1.5, 0.0, 7.0, 7.0, -2.75, 1e9, 0.125];
        let (m, sd) = z_params(v.iter().copied().enumerate(), v.len());
        assert_eq!((m.to_bits(), sd.to_bits()), (mean(&v).to_bits(), std_dev(&v).to_bits()));
        for (x, z) in v.iter().zip(z_scores(&v)) {
            assert_eq!(z_from(*x, m, sd).to_bits(), z.to_bits());
        }

        let special = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 8.0,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
        ];
        let mut mix = Mix(44);
        for case in 0..3000 {
            let n = 1 + mix.below(if case % 10 == 0 { 4000 } else { 300 });
            let listed = mix.below(41.min(n + 1));
            let mut ranks: Vec<usize> = (0..listed).map(|_| mix.below(n)).collect();
            match case % 4 {
                0 => ranks.push(0),
                1 => ranks.push(n - 1),
                _ => {}
            }
            ranks.sort_unstable();
            ranks.dedup();
            let value = |mix: &mut Mix| match mix.below(6) {
                0 if case % 3 == 0 => special[mix.below(special.len())],
                0 | 1 => (mix.below(2001) as f64 - 1000.0) * 0.25,
                2 => (mix.next() >> 11) as f64 * 1e-9 - 4e6,
                _ => (mix.next() >> 11) as f64 / (1u64 << 53) as f64,
            };
            let known: Vec<(usize, f64)> = ranks.iter().map(|&r| (r, value(&mut mix))).collect();
            let mut dense = vec![0.0; n];
            known.iter().for_each(|&(r, v)| dense[r] = v);
            let (m, sd) = z_params(known.iter().copied(), n);
            let (dm, dsd) = (mean(&dense), std_dev(&dense));
            assert!(same(m, dm) && same(sd, dsd), "case {case}: {known:?} of {n}");
        }
        assert_eq!(z_params(std::iter::empty(), 0), (0.0, 0.0));
        assert_eq!(z_params(std::iter::empty(), 1).0.to_bits(), 0.0f64.to_bits());
    }

    /// `g` adds, one at a time.
    fn naive_repeat_add(mut acc: f64, c: f64, g: usize) -> f64 {
        for _ in 0..g {
            acc += c;
        }
        acc
    }

    /// Targeted cases, then random ones, against the naive loop.
    #[test]
    fn repeat_add_matches_the_naive_loop() {
        let half_ulp_of_one = f64::EPSILON / 2.0;
        let cases = [
            // Exactly half an ulp of `acc`: ties to even, then repeats.
            (1.0, half_ulp_of_one, 10_000),
            (1.0 + f64::EPSILON, half_ulp_of_one, 10_000),
            (3.0, 1.5 * f64::EPSILON, 5_000),
            (1.0, 3.0 * half_ulp_of_one, 5_000),
            (-1.0, half_ulp_of_one, 5_000),
            (2.0, -half_ulp_of_one, 5_000),
            // Falling onto a binade's floor, whose lower neighbour is finer.
            (2.0 + 20.0 * f64::EPSILON, -2.8 * f64::EPSILON, 40),
            // c = 0 and signed zeros.
            (5.0, 0.0, 100),
            (-0.0, 0.0, 7),
            (-0.0, -0.0, 7),
            (0.0, -0.0, 7),
            (-0.0, 0.1, 4096),
            // Subnormals, across the normal boundary and down to zero.
            (0.0, 5e-324, 9_000),
            (-0.0, f64::MIN_POSITIVE / 1024.0, 5_000),
            (f64::MIN_POSITIVE, -f64::MIN_POSITIVE / 1000.0, 3_000),
            (-f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE / 700.0, 2_000),
            (-10.0 * 5e-324, 5e-324, 10),
            // Long gaps through many binades, and into overflow.
            (1e-3, 0.7, 100_000),
            (0.0, 1.0 / 3.0, 65_536),
            (-1e6, 1.0 / 7.0, 50_000),
            (f64::MAX / 2.0, f64::MAX / 64.0, 100),
            (1.0, f64::INFINITY, 3),
            (f64::INFINITY, f64::NEG_INFINITY, 3),
            (f64::NAN, 1.0, 3),
            (1.0, f64::NAN, 3),
        ];
        for (acc, c, g) in cases {
            for g in [0, 1, 2, 3, g / 2 + 1, g] {
                let (got, want) = (repeat_add(acc, c, g), naive_repeat_add(acc, c, g));
                assert!(same(got, want), "{acc:e} + {c:e} × {g}: {got:e} vs {want:e}");
            }
        }

        // Random accumulators and addends, ulp-scaled ones and their
        // half-ulp ties among them.
        let mut mix = Mix(7);
        for case in 0..20_000 {
            let acc = f64::from_bits(mix.next() >> 2) * if case % 5 == 0 { -1.0 } else { 1.0 };
            let ulp = f64::from_bits(acc.abs().to_bits() + 1) - acc.abs();
            let c = match case % 4 {
                0 => ulp * (mix.below(64) as f64 + 0.5),
                1 => ulp * mix.below(1 << 20) as f64 / 1024.0,
                2 => acc.abs() * (mix.below(1000) as f64 + 1.0) * 1e-7,
                _ => f64::from_bits(mix.next() >> 2),
            };
            let g = mix.below(if case % 100 == 0 { 20_000 } else { 400 });
            let (got, want) = (repeat_add(acc, c, g), naive_repeat_add(acc, c, g));
            assert!(same(got, want), "case {case}: {acc:e} + {c:e} × {g}: {got:e} vs {want:e}");
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
