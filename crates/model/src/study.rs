//! Reusable experiment procedures behind Figs. 2 and 3 of the paper.
//!
//! The `ulba-bench` studies call these and print the series; keeping the
//! logic here makes the studies unit-testable and reusable from examples.

use crate::instance::{Instance, InstanceDistribution};
use crate::params::ModelParams;
use crate::schedule::{menon_schedule, sigma_plus_schedule, total_time, Method};
use crate::search::{anneal_schedule, optimal_schedule, AnnealSearchConfig};
use serde::{Deserialize, Serialize};

/// Relative gain (in percent) of `candidate` over `reference`:
/// positive means `candidate` is faster.
pub fn gain_percent(reference: f64, candidate: f64) -> f64 {
    (reference - candidate) / reference * 100.0
}

/// One data point of the Fig. 2 study.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig2Point {
    /// Total time of the simulated-annealing schedule (seconds).
    pub sa_time: f64,
    /// Total time of the σ⁺ analytic schedule (seconds).
    pub sigma_time: f64,
    /// Total time of the exact DP-optimal schedule (seconds) — our addition.
    pub optimal_time: f64,
    /// Gain (%) of σ⁺ over the SA heuristic (the quantity in Fig. 2).
    pub gain_vs_sa: f64,
    /// Gain (%) of σ⁺ over the exact optimum (always ≤ 0).
    pub gain_vs_optimal: f64,
}

/// Fig. 2 study: on each instance, compare the σ⁺-driven schedule against the
/// simulated-annealing search (and against the exact optimum).
///
/// All three use the ULBA model with the instance's sampled α.
pub fn fig2_point(instance: &Instance, sa_config: AnnealSearchConfig) -> Fig2Point {
    let params = &instance.params;
    let method = Method::Ulba { alpha: instance.alpha };
    let sigma = sigma_plus_schedule(params, instance.alpha);
    let sigma_time = total_time(params, &sigma, method);
    let sa = anneal_schedule(params, method, sa_config);
    let opt = optimal_schedule(params, method);
    Fig2Point {
        sa_time: sa.time,
        sigma_time,
        optimal_time: opt.time,
        gain_vs_sa: gain_percent(sa.time, sigma_time),
        gain_vs_optimal: gain_percent(opt.time, sigma_time),
    }
}

/// Run the full Fig. 2 study over `count` Table II instances.
pub fn fig2_study(count: usize, seed: u64, sa_config: AnnealSearchConfig) -> Vec<Fig2Point> {
    InstanceDistribution::default()
        .sample_many(count, seed)
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let cfg =
                AnnealSearchConfig { seed: sa_config.seed.wrapping_add(i as u64), ..sa_config };
            fig2_point(inst, cfg)
        })
        .collect()
}

/// One data point of the Fig. 3 study: the best-α ULBA gain over the standard
/// method for one instance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig3Point {
    /// Total time of the standard method on its Menon schedule (seconds).
    pub standard_time: f64,
    /// Total time of ULBA with the best α on its σ⁺ schedule (seconds).
    pub ulba_time: f64,
    /// The α that minimized the ULBA time.
    pub best_alpha: f64,
    /// Gain (%) of ULBA over the standard method.
    pub gain: f64,
}

/// Evaluate the standard method (Menon schedule) against ULBA with the best
/// of `alpha_samples` values of α uniformly spread over [0, 1] (the paper
/// tests 100 values per instance).
pub fn fig3_point(params: &ModelParams, alpha_samples: u32) -> Fig3Point {
    let standard_time = total_time(params, &menon_schedule(params), Method::Standard);
    let mut best_alpha = 0.0;
    let mut ulba_time = f64::INFINITY;
    for k in 0..alpha_samples {
        let alpha = if alpha_samples == 1 { 0.0 } else { k as f64 / (alpha_samples - 1) as f64 };
        let schedule = sigma_plus_schedule(params, alpha);
        let t = total_time(params, &schedule, Method::Ulba { alpha });
        if t < ulba_time {
            ulba_time = t;
            best_alpha = alpha;
        }
    }
    Fig3Point { standard_time, ulba_time, best_alpha, gain: gain_percent(standard_time, ulba_time) }
}

/// One bucket of the Fig. 3 sweep: a fixed overloading percentage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Bucket {
    /// Percentage of overloading PEs (N/P · 100).
    pub overloading_percent: f64,
    /// Per-instance results.
    pub points: Vec<Fig3Point>,
}

impl Fig3Bucket {
    /// Mean of the best-α values in this bucket.
    pub fn mean_best_alpha(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.best_alpha).sum::<f64>() / self.points.len() as f64
    }

    /// Gains (%) of all points, sorted ascending (box-plot input).
    pub fn sorted_gains(&self) -> Vec<f64> {
        let mut g: Vec<f64> = self.points.iter().map(|p| p.gain).collect();
        g.sort_by(|a, b| a.partial_cmp(b).expect("finite gains"));
        g
    }
}

/// The ten overloading percentages on Fig. 3's x-axis, exactly as labelled in
/// the paper: 1.0 %, 1.6 %, 2.4 %, 3.4 %, 4.8 %, 6.5 %, 8.7 %, 11.5 %,
/// 15.2 %, 20.0 %.
fn fig3_percentages() -> Vec<f64> {
    vec![1.0, 1.6, 2.4, 3.4, 4.8, 6.5, 8.7, 11.5, 15.2, 20.0]
}

/// Run the full Fig. 3 sweep: for each overloading percentage, sample
/// `instances_per_bucket` Table II instances with `N/P` pinned and score
/// ULBA's best-α gain over the standard method.
pub fn fig3_study(instances_per_bucket: usize, alpha_samples: u32, seed: u64) -> Vec<Fig3Bucket> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let dist = InstanceDistribution::default();
    let mut rng = StdRng::seed_from_u64(seed);
    fig3_percentages()
        .into_iter()
        .map(|pct| {
            let points = (0..instances_per_bucket)
                .map(|_| {
                    let p = dist.p_choices[rng.random_range(0..dist.p_choices.len())];
                    let n = ((p as f64 * pct / 100.0).round() as u32).clamp(1, p - 1);
                    let inst = dist.sample_with_p_n(&mut rng, p, Some(n));
                    fig3_point(&inst.params, alpha_samples)
                })
                .collect();
            Fig3Bucket { overloading_percent: pct, points }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_percent_signs() {
        assert!(gain_percent(10.0, 9.0) > 0.0);
        assert!(gain_percent(10.0, 11.0) < 0.0);
        assert_eq!(gain_percent(10.0, 10.0), 0.0);
    }

    #[test]
    fn fig3_point_never_negative_gain() {
        // ULBA's best α includes α = 0, which reproduces the standard method
        // exactly (same Menon schedule), so the gain is always ≥ 0 (§IV-A).
        let insts = InstanceDistribution::default().sample_many(25, 11);
        for inst in insts {
            let pt = fig3_point(&inst.params, 21);
            assert!(
                pt.gain >= -1e-9,
                "instance {:?} lost {}% with best alpha {}",
                inst.params,
                pt.gain,
                pt.best_alpha
            );
        }
    }

    #[test]
    fn fig3_percentages_match_paper_axis() {
        let pcts = fig3_percentages();
        assert_eq!(pcts.len(), 10);
        assert!((pcts[0] - 1.0).abs() < 1e-9);
        assert!((pcts[9] - 20.0).abs() < 1e-9);
        // Spot-check interior labels from the figure.
        assert!((pcts[1] - 1.6).abs() < 0.1);
        assert!((pcts[5] - 6.5).abs() < 0.2);
    }

    #[test]
    fn fig2_sigma_never_beats_exact_optimum() {
        let insts = InstanceDistribution::default().sample_many(5, 21);
        let cfg = AnnealSearchConfig { steps: 2_000, ..Default::default() };
        for inst in &insts {
            let pt = fig2_point(inst, cfg);
            assert!(pt.gain_vs_optimal <= 1e-9);
            assert!(pt.optimal_time <= pt.sa_time * (1.0 + 1e-9));
            assert!(pt.optimal_time <= pt.sigma_time * (1.0 + 1e-9));
        }
    }

    #[test]
    fn fig3_bucket_statistics() {
        let bucket = Fig3Bucket {
            overloading_percent: 5.0,
            points: vec![
                Fig3Point { standard_time: 10.0, ulba_time: 9.0, best_alpha: 0.5, gain: 10.0 },
                Fig3Point { standard_time: 10.0, ulba_time: 8.0, best_alpha: 0.7, gain: 20.0 },
            ],
        };
        assert!((bucket.mean_best_alpha() - 0.6).abs() < 1e-12);
        assert_eq!(bucket.sorted_gains(), vec![10.0, 20.0]);
    }
}
