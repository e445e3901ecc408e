//! Load-balancing policies: the standard method and ULBA with a constant,
//! user-defined α (§III-A), optionally detecting overloaders with the
//! robust median/MAD statistic instead of the paper's z-score.

use crate::db::WirDatabase;
use crate::outlier::{robust_z_scores, z_from, z_params, DetectionStat, DEFAULT_Z_THRESHOLD};
use serde::{Deserialize, Serialize};

/// Full ULBA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UlbaConfig {
    /// The α every overloading PE submits (§III-A: "we consider that α is
    /// constant and user defined").
    pub alpha: f64,
    /// Outlier threshold on the WIR z-score (paper: 3.0).
    pub z_threshold: f64,
    /// Which detection statistic to use (paper: plain z-score).
    pub stat: DetectionStat,
}

impl UlbaConfig {
    /// The paper's configuration: fixed α, z-score threshold 3.0.
    pub fn fixed(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        Self { alpha, z_threshold: DEFAULT_Z_THRESHOLD, stat: DetectionStat::ZScore }
    }

    /// α this PE submits given its WIR z-score (0 when not overloading).
    pub fn alpha_for(&self, z: f64) -> f64 {
        if z > self.z_threshold {
            self.alpha
        } else {
            0.0
        }
    }
}

/// The top-level method selector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LbPolicy {
    /// The standard method: every PE submits α = 0 (perfect even split).
    Standard,
    /// ULBA: overloading PEs submit their α per the configuration.
    Ulba(UlbaConfig),
}

impl LbPolicy {
    /// The paper's ULBA with a fixed α.
    pub fn ulba_fixed(alpha: f64) -> Self {
        LbPolicy::Ulba(UlbaConfig::fixed(alpha))
    }

    /// α this PE submits at an LB step given its WIR z-score.
    pub fn alpha_for(&self, z: f64) -> f64 {
        match self {
            LbPolicy::Standard => 0.0,
            LbPolicy::Ulba(cfg) => cfg.alpha_for(z),
        }
    }
}

/// Renders the policy for reports and labels: `standard` or
/// `ulba-fixed:0.4` (the threshold and detection statistic are not shown).
impl std::fmt::Display for LbPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LbPolicy::Standard => f.write_str("standard"),
            LbPolicy::Ulba(cfg) => write!(f, "ulba-fixed:{}", cfg.alpha),
        }
    }
}

/// Outlier score of `rank` for the policy's configured detection statistic
/// in the dense WIR population implied by the database (unknown ranks
/// default to 0.0). The paper's plain z-score streams over the known
/// entries — bit-identical to scoring a materialized dense vector, without
/// allocating one; the median/MAD robust variant still sorts a dense copy
/// (it needs the order statistics anyway). Shared by every workload that
/// consumes a policy (erosion, synthetic scenarios).
pub fn outlier_score(policy: &LbPolicy, db: &WirDatabase, rank: usize) -> f64 {
    match policy {
        LbPolicy::Ulba(cfg) if cfg.stat == DetectionStat::RobustZScore => {
            robust_z_scores(&db.wirs_or(0.0))[rank]
        }
        _ => {
            let (m, sd) = z_params(db.wirs_iter(0.0), db.size());
            z_from(db.get(rank).map_or(0.0, |e| e.wir), m, sd)
        }
    }
}

/// Count and sum the positive α of a z-score stream (rank order).
fn fold_alphas(zs: impl Iterator<Item = f64>, cfg: &UlbaConfig) -> (usize, f64) {
    zs.fold((0usize, 0.0f64), |(n, sum), z| {
        let a = cfg.alpha_for(z);
        if a > 0.0 {
            (n + 1, sum + a)
        } else {
            (n, sum)
        }
    })
}

/// ULBA overhead anticipated for the next LB step (Eq. (11)), estimated on
/// rank 0 from its gossip database: `ᾱ·N̂/(P − N̂) · Wtot/(ω·P)`. Zero for
/// the standard policy and when no (or every) PE looks overloading.
pub fn estimate_ulba_overhead(
    policy: &LbPolicy,
    db: &WirDatabase,
    wtot_flops: f64,
    omega: f64,
    p: usize,
) -> f64 {
    let LbPolicy::Ulba(cfg) = policy else {
        return 0.0;
    };
    let (n_hat, alpha_sum) = if cfg.stat == DetectionStat::RobustZScore {
        fold_alphas(robust_z_scores(&db.wirs_or(0.0)).into_iter(), cfg)
    } else {
        let (m, sd) = z_params(db.wirs_iter(0.0), db.size());
        fold_alphas(db.wirs_iter(0.0).map(|w| z_from(w, m, sd)), cfg)
    };
    if n_hat == 0 || n_hat >= p {
        return 0.0;
    }
    let alpha_bar = alpha_sum / n_hat as f64;
    alpha_bar * n_hat as f64 / (p - n_hat) as f64 * wtot_flops / (omega * p as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::WirEntry;

    #[test]
    fn standard_always_zero() {
        assert_eq!(LbPolicy::Standard.alpha_for(100.0), 0.0);
    }

    #[test]
    fn fixed_alpha_gated_by_threshold() {
        let p = LbPolicy::ulba_fixed(0.4);
        assert_eq!(p.alpha_for(2.9), 0.0, "below threshold: not overloading");
        assert_eq!(p.alpha_for(3.0), 0.0, "the threshold itself is not an outlier");
        assert_eq!(p.alpha_for(3.1), 0.4);
        assert_eq!(p.alpha_for(50.0), 0.4, "fixed rule ignores magnitude");
    }

    #[test]
    fn threshold_is_the_configured_one() {
        let cfg = UlbaConfig { z_threshold: 1.5, ..UlbaConfig::fixed(0.3) };
        assert_eq!(cfg.alpha_for(1.5), 0.0);
        assert_eq!(cfg.alpha_for(1.6), 0.3);
        assert_eq!(LbPolicy::Ulba(cfg).alpha_for(2.9), 0.3, "below the paper's 3.0");
    }

    /// A balanced population flags no rank under either statistic, so
    /// Eq. (11) anticipates no overhead.
    #[test]
    fn overhead_estimate_is_zero_without_an_overloader() {
        let mut db = WirDatabase::new(8);
        for rank in 0..8 {
            db.update(WirEntry { rank, wir: 2.0, iteration: 1 });
        }
        let robust = UlbaConfig { stat: DetectionStat::RobustZScore, ..UlbaConfig::fixed(0.4) };
        for policy in [LbPolicy::ulba_fixed(0.4), LbPolicy::Ulba(robust)] {
            assert_eq!(estimate_ulba_overhead(&policy, &db, 1.0e12, 1.0e9, 8), 0.0, "{policy}");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn rejects_out_of_range_alpha() {
        UlbaConfig::fixed(1.5);
    }

    /// Two ranks at WIR 10 among fourteen at 1 inflate σ so that neither
    /// clears z = 3, while the median/MAD statistic flags both; Eq. (11)
    /// follows the flags.
    #[test]
    fn overhead_estimate_follows_the_detection_statistic() {
        let mut db = WirDatabase::new(16);
        for rank in 0..16 {
            db.update(WirEntry { rank, wir: if rank < 2 { 10.0 } else { 1.0 }, iteration: 1 });
        }
        let fixed = LbPolicy::ulba_fixed(0.4);
        let robust = UlbaConfig { stat: DetectionStat::RobustZScore, ..UlbaConfig::fixed(0.4) };
        let robust = LbPolicy::Ulba(robust);
        assert!(outlier_score(&fixed, &db, 0) < 3.0);
        assert!(outlier_score(&robust, &db, 0) > 3.0);
        assert_eq!(outlier_score(&robust, &db, 2), 0.0, "at the median");

        let (wtot, omega) = (1.0e12, 1.0e9);
        assert_eq!(estimate_ulba_overhead(&LbPolicy::Standard, &db, wtot, omega, 16), 0.0);
        assert_eq!(estimate_ulba_overhead(&fixed, &db, wtot, omega, 16), 0.0);
        let want = 0.4 * 2.0 / 14.0 * wtot / (omega * 16.0);
        assert_eq!(estimate_ulba_overhead(&robust, &db, wtot, omega, 16), want);
    }

    #[test]
    fn display_names_the_policy_and_its_alpha() {
        assert_eq!(LbPolicy::Standard.to_string(), "standard");
        assert_eq!(LbPolicy::ulba_fixed(0.4).to_string(), "ulba-fixed:0.4");
        let robust = UlbaConfig { stat: DetectionStat::RobustZScore, ..UlbaConfig::fixed(0.25) };
        assert_eq!(LbPolicy::Ulba(robust).to_string(), "ulba-fixed:0.25");
    }
}
