//! Sample summaries and the regression-bound comparison.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(min, max)` of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// How much a metric may get worse before it counts as a regression:
/// `rel` of the base value, but never less than `floor` in the metric's own
/// unit (so a 20 ms set-up is not failed over 5 ms of scheduler noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub floor: f64,
}

impl Bound {
    /// The allowed worsening, in the metric's unit, from `base`.
    pub fn allowance(&self, base: f64) -> f64 {
        (self.rel * base.abs()).max(self.floor)
    }
}

/// By how much `new` is worse than `base` (negative when it is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    }
}

/// Whether `new` is no worse than `base` by more than `bound` allows.
pub fn within_bound(better: Better, bound: Bound, base: f64, new: f64) -> bool {
    worse_by(better, base, new) <= bound.allowance(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn relative_bound_respects_direction() {
        let b = Bound { rel: 0.10, floor: 0.0 };
        // Lower is better: +9 % passes, +11 % fails, any improvement passes.
        assert!(within_bound(Better::Lower, b, 1.0, 1.09));
        assert!(!within_bound(Better::Lower, b, 1.0, 1.11));
        assert!(within_bound(Better::Lower, b, 1.0, 0.2));
        // Higher is better: the same numbers mirrored.
        assert!(within_bound(Better::Higher, b, 100.0, 91.0));
        assert!(!within_bound(Better::Higher, b, 100.0, 89.0));
        assert!(within_bound(Better::Higher, b, 100.0, 500.0));
    }

    #[test]
    fn floor_widens_small_bases_only() {
        let b = Bound { rel: 0.25, floor: 0.050 };
        // 20 ms set-up: 25 % would be 5 ms, the floor allows 50 ms.
        assert!(within_bound(Better::Lower, b, 0.020, 0.060));
        assert!(!within_bound(Better::Lower, b, 0.020, 0.071));
        // 1 s set-up: the relative part (250 ms) is the larger.
        assert!(within_bound(Better::Lower, b, 1.0, 1.24));
        assert!(!within_bound(Better::Lower, b, 1.0, 1.26));
    }

    #[test]
    fn absolute_bound_is_a_floor_with_no_relative_part() {
        let b = Bound { rel: 0.0, floor: 1e-6 };
        assert!(within_bound(Better::Higher, b, 1.06, 1.06));
        assert!(!within_bound(Better::Higher, b, 1.06, 1.05));
    }
}
