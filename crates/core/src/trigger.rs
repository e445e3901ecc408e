//! The LB decision rule: one [`Trigger`] per run, fed every iteration's
//! wall time, answering "balance before the next iteration?".
//!
//! The paper activates an LB step "every time the degradation due to load
//! imbalance overcomes the average LB cost plus the overhead of ULBA",
//! implemented "using the approach proposed by Zhai et al. \[7\] that computes
//! the exact degradation of each iteration w.r.t. a reference iteration (in
//! our case, the one just after the last LB call)" — Algorithm 1 and
//! Eq. (9). [`TriggerKind::Zhai`] is that rule; the Menon interval
//! `τ = sqrt(2ωC/m̂)` re-estimated online, a fixed period and "never" are
//! the baselines of the ablation studies.
//!
//! Two callers run the same type: rank 0 of the simulator's LB loop
//! ([`crate::driver`]) and the analytical model's
//! [`trigger_driven_schedule`](crate::model_loop::trigger_driven_schedule).
//! Both observe iteration `i` and balance before `i + 1`; a trigger never
//! fires on the run's last iteration, where an LB step would be pointless.

use crate::wir::WirEstimator;
use std::collections::VecDeque;

/// Smoothing weight of the EWMA over measured LB costs ("the average LB
/// cost C" of Eq. (9), estimated online like Meta-Balancer does from
/// runtime instrumentation).
const COST_WEIGHT: f64 = 0.5;

/// Which rule drives LB activation — the config-level selector shared by
/// every workload (erosion, synthetic scenarios) and by the model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TriggerKind {
    /// The Zhai et al. cumulative-degradation trigger (the paper's choice).
    Zhai,
    /// The Menon fixed-interval trigger re-estimated online (ablation).
    Menon {
        /// Fallback/maximum interval in iterations (≥ 1).
        max_interval: u64,
    },
    /// Balance every `period ≥ 1` iterations (ablation).
    Periodic(u64),
    /// Never balance (static baseline).
    Never,
}

impl TriggerKind {
    /// An interval of zero iterations is a config error, caught here rather
    /// than as a panic inside rank 0 when the trigger is built.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TriggerKind::Menon { max_interval: 0 } | TriggerKind::Periodic(0) => {
                Err(format!("trigger interval must be at least 1 iteration, got {self:?}"))
            }
            _ => Ok(()),
        }
    }

    /// The trigger of a run of `iterations` iterations, its LB-cost
    /// estimate seeded with `initial_cost` seconds.
    pub fn build(self, initial_cost: f64, iterations: u64) -> Trigger {
        assert!(initial_cost >= 0.0, "LB cost estimate must be non-negative");
        self.validate().expect("valid trigger");
        let rule = match self {
            TriggerKind::Zhai => {
                Rule::Zhai { ref_time: None, recent: VecDeque::with_capacity(3), degradation: 0.0 }
            }
            TriggerKind::Menon { max_interval } => {
                Rule::Menon { slope: WirEstimator::new(8), last_lb: 0, max_interval }
            }
            TriggerKind::Periodic(period) => Rule::Periodic(period),
            TriggerKind::Never => Rule::Never,
        };
        Trigger { cost: initial_cost, iterations, rule }
    }
}

/// A running trigger: the EWMA of measured LB costs, the run length, and
/// the state of its [`TriggerKind`]'s rule. Built by [`TriggerKind::build`].
#[derive(Debug, Clone)]
pub struct Trigger {
    cost: f64,
    iterations: u64,
    rule: Rule,
}

#[derive(Debug, Clone)]
enum Rule {
    /// Algorithm 1: the reference time is the first iteration after the
    /// last LB step; each iteration's time is smoothed by the median of the
    /// last ≤ 3 (line 14); `degradation += median − reference` (line 15);
    /// fire when `degradation ≥ C + overhead` (line 16, Eq. (9)).
    Zhai {
        ref_time: Option<f64>,
        recent: VecDeque<f64>,
        degradation: f64,
    },
    /// Balance every `τ = sqrt(2C/ṁ_sec)` iterations, with `ṁ_sec` the
    /// slope of iteration *times* (s/iteration, i.e. `m̂/ω`) since the last
    /// LB step, capped at (and falling back to) `max_interval`.
    Menon {
        slope: WirEstimator,
        last_lb: u64,
        max_interval: u64,
    },
    /// Balance every `period` iterations (the "straightforward way" the
    /// paper criticizes in §II-A).
    Periodic(u64),
    Never,
}

impl Trigger {
    /// Observe the wall time `t_iter` (seconds) of completed iteration
    /// `iter`, with `overhead` seconds of anticipated ULBA overhead
    /// (Eq. (11); zero for the standard method, read only by the Zhai
    /// rule). Returns `true` when an LB step should run before the next
    /// iteration — never on the run's last iteration.
    pub fn observe(&mut self, iter: u64, t_iter: f64, overhead: f64) -> bool {
        debug_assert!(overhead >= 0.0 && overhead.is_finite());
        let fire = match &mut self.rule {
            Rule::Zhai { ref_time, recent, degradation } => {
                if recent.len() == 3 {
                    recent.pop_front();
                }
                recent.push_back(t_iter);
                let reference = *ref_time.get_or_insert(t_iter);
                *degradation += lower_median(recent) - reference;
                *degradation >= self.cost + overhead
            }
            Rule::Menon { slope, last_lb, max_interval } => {
                slope.push(iter, t_iter);
                let cap = *max_interval as f64;
                let tau = match slope.rate() {
                    Some(m_sec) if m_sec > 0.0 && self.cost > 0.0 => {
                        (2.0 * self.cost / m_sec).sqrt().min(cap)
                    }
                    _ => cap,
                };
                (iter.saturating_sub(*last_lb) + 1) as f64 >= tau
            }
            Rule::Periodic(period) => (iter + 1).is_multiple_of(*period),
            Rule::Never => false,
        };
        fire && iter + 1 < self.iterations
    }

    /// An LB step ran after iteration `iter` and cost `cost` seconds: fold
    /// the cost into the estimate and start a new interval.
    pub fn lb_completed(&mut self, iter: u64, cost: f64) {
        debug_assert!(cost >= 0.0 && cost.is_finite());
        self.cost = COST_WEIGHT * cost + (1.0 - COST_WEIGHT) * self.cost;
        match &mut self.rule {
            Rule::Zhai { ref_time, recent, degradation } => {
                *ref_time = None;
                recent.clear();
                *degradation = 0.0;
            }
            Rule::Menon { slope, last_lb, .. } => {
                slope.reset();
                *last_lb = iter + 1;
            }
            Rule::Periodic(_) | Rule::Never => {}
        }
    }

    /// Current LB-cost estimate (seconds).
    pub fn lb_cost(&self) -> f64 {
        self.cost
    }

    /// The Zhai rule's accumulated degradation (seconds) since the
    /// reference iteration; zero for the other rules.
    pub fn degradation(&self) -> f64 {
        match self.rule {
            Rule::Zhai { degradation, .. } => degradation,
            _ => 0.0,
        }
    }
}

/// Lower-middle median: with only two samples, prefer the smaller one so
/// a single spike cannot fire the trigger by itself.
fn lower_median(recent: &VecDeque<f64>) -> f64 {
    let mut v: Vec<f64> = recent.iter().copied().collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    v[(v.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Iteration of the first firing over `times`, or `None`.
    fn first_fire(t: &mut Trigger, times: impl Fn(u64) -> f64, overhead: f64) -> Option<u64> {
        (0..t.iterations).find(|&iter| t.observe(iter, times(iter), overhead))
    }

    #[test]
    fn ewma_cost_model_converges() {
        let mut t = TriggerKind::Zhai.build(2.0, 100);
        assert_eq!(t.lb_cost(), 2.0);
        t.lb_completed(0, 4.0);
        assert_eq!(t.lb_cost(), 3.0);
        for iter in 1..21 {
            t.lb_completed(iter, 10.0);
        }
        assert!((t.lb_cost() - 10.0).abs() < 0.01);
    }

    #[test]
    fn zhai_triggers_when_degradation_exceeds_cost() {
        // Iteration times grow by 0.25s/iter from a 1.0s reference:
        // degradation after k iters ≈ Σ (median−ref).
        let mut t = TriggerKind::Zhai.build(1.0, 20);
        let fired = first_fire(&mut t, |i| 1.0 + 0.25 * i as f64, 0.0).expect("must fire");
        // Cumulative degradation reaches 1.0 around iteration 3-4 (median
        // smoothing lags one step).
        assert!((3..=5).contains(&fired), "fired at {fired}");
    }

    #[test]
    fn zhai_never_fires_on_flat_times() {
        let mut t = TriggerKind::Zhai.build(0.5, 100);
        assert_eq!(first_fire(&mut t, |_| 2.0, 0.0), None, "flat times must not trigger");
        assert_eq!(t.degradation(), 0.0);
    }

    #[test]
    fn zhai_overhead_delays_trigger() {
        let run = |overhead: f64| {
            let mut t = TriggerKind::Zhai.build(1.0, 100);
            first_fire(&mut t, |i| 1.0 + 0.2 * i as f64, overhead).unwrap_or(u64::MAX)
        };
        assert!(
            run(2.0) > run(0.0),
            "a larger anticipated overhead must postpone the LB step (Eq. 9)"
        );
    }

    #[test]
    fn zhai_resets_after_lb() {
        let mut t = TriggerKind::Zhai.build(0.4, 100);
        let mut fired = 0;
        for iter in 0..6u64 {
            if t.observe(iter, 1.0 + 0.5 * iter as f64, 0.0) {
                fired += 1;
                t.lb_completed(iter, 0.4);
            }
        }
        assert!(fired >= 2, "resetting must allow repeated triggering, got {fired}");
        assert_eq!(t.degradation(), 0.0);
    }

    #[test]
    fn zhai_median_smoothing_ignores_single_spike() {
        let mut t = TriggerKind::Zhai.build(10.0, 100);
        assert!(!t.observe(0, 1.0, 0.0));
        let d0 = t.degradation();
        assert!(!t.observe(1, 100.0, 0.0)); // spike
        assert!(!t.observe(2, 1.0, 0.0));
        // Median of {1, 100, 1} is 1 → the spike contributes once via the
        // median of {1,100} at iter 1 but is suppressed at iter 2.
        assert!(t.degradation() < 100.0, "degradation {}", t.degradation());
        assert!(t.degradation() >= d0);
    }

    #[test]
    fn menon_tau_from_measurements() {
        // slope 0.01 s/iter → τ = sqrt(2·2/0.01) = 20.
        let mut t = TriggerKind::Menon { max_interval: 1000 }.build(2.0, 100);
        let fired = first_fire(&mut t, |i| 1.0 + 0.01 * i as f64, 0.0).expect("fires");
        assert!((15..=25).contains(&fired), "fired at {fired}");
    }

    #[test]
    fn menon_falls_back_without_slope() {
        let mut t = TriggerKind::Menon { max_interval: 10 }.build(1.0, 50);
        assert_eq!(first_fire(&mut t, |_| 5.0, 0.0), Some(9), "flat times: fallback interval");
    }

    #[test]
    fn menon_interval_is_capped_by_max_interval() {
        // An expensive LB on a shallow slope: τ = sqrt(2·10⁶/0.01) ≫ 10.
        let mut t = TriggerKind::Menon { max_interval: 10 }.build(1.0e6, 100);
        assert_eq!(first_fire(&mut t, |i| 1.0 + 0.01 * i as f64, 0.0), Some(9));
    }

    #[test]
    fn menon_interval_restarts_after_lb() {
        let mut t = TriggerKind::Menon { max_interval: 10 }.build(1.0, 100);
        assert_eq!(first_fire(&mut t, |_| 5.0, 0.0), Some(9));
        t.lb_completed(9, 1.0);
        let next = (10..100).find(|&iter| t.observe(iter, 5.0, 0.0));
        assert_eq!(next, Some(19), "the interval counts from the iteration after the LB step");
    }

    #[test]
    fn measured_cost_moves_the_zhai_threshold() {
        let fire_after = |measured: f64| {
            let mut t = TriggerKind::Zhai.build(0.1, 100);
            t.lb_completed(0, measured);
            (1..100).find(|&iter| t.observe(iter, 1.0 + 0.1 * iter as f64, 0.0))
        };
        let (cheap, dear) = (fire_after(0.1), fire_after(10.0));
        assert!(dear > cheap, "a dearer LB step must wait longer: {dear:?} vs {cheap:?}");
    }

    #[test]
    fn measured_cost_moves_the_menon_interval() {
        // ṁ = 0.01 s/iter; the EWMA costs 2 and 10 give τ = sqrt(2C/ṁ) ≈ 20 and ≈ 44.7.
        for (measured, fires) in [(2.0, Some(21)), (18.0, Some(45))] {
            let mut t = TriggerKind::Menon { max_interval: 1000 }.build(2.0, 1000);
            t.lb_completed(0, measured);
            assert_eq!((1..1000).find(|&i| t.observe(i, 1.0 + 0.01 * i as f64, 0.0)), fires);
        }
    }

    #[test]
    fn periodic_phase_is_fixed_by_iteration_zero() {
        // Unlike Menon's interval, the period does not restart at an LB step.
        let mut t = TriggerKind::Periodic(4).build(1.0, 100);
        t.lb_completed(5, 1.0);
        let fires: Vec<u64> = (6..16).filter(|&i| t.observe(i, 1.0, 0.0)).collect();
        assert_eq!(fires, vec![7, 11, 15]);
    }

    #[test]
    fn periodic_and_never() {
        let mut p = TriggerKind::Periodic(4).build(0.0, 100);
        let fires: Vec<u64> = (0..12).filter(|&i| p.observe(i, 1.0, 0.0)).collect();
        assert_eq!(fires, vec![3, 7, 11]);
        let mut n = TriggerKind::Never.build(0.0, 100);
        assert!((0..100).all(|i| !n.observe(i, 1.0e9, 0.0)));
    }

    #[test]
    fn no_trigger_fires_on_the_last_iteration() {
        let times = |i: u64| 1.0 + 0.1 * i as f64;
        for kind in
            [TriggerKind::Zhai, TriggerKind::Menon { max_interval: 10 }, TriggerKind::Periodic(5)]
        {
            let fire = first_fire(&mut kind.build(1.0, u64::MAX), times, 0.0).expect("fires");
            assert_eq!(
                first_fire(&mut kind.build(1.0, fire + 2), times, 0.0),
                Some(fire),
                "{kind:?}"
            );
            assert_eq!(first_fire(&mut kind.build(1.0, fire + 1), times, 0.0), None, "{kind:?}");
        }
    }

    #[test]
    fn zero_intervals_are_config_errors() {
        for kind in [TriggerKind::Periodic(0), TriggerKind::Menon { max_interval: 0 }] {
            let err = kind.validate().expect_err("zero interval");
            assert!(err.contains("trigger"), "{err}");
        }
        assert!(TriggerKind::Menon { max_interval: 0 }
            .validate()
            .unwrap_err()
            .contains("max_interval"));
        for kind in [TriggerKind::Zhai, TriggerKind::Never, TriggerKind::Periodic(1)] {
            kind.validate().unwrap();
        }
    }
}
