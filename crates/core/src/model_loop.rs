//! Closing the loop between the mechanism and the theory: drive the
//! simulator's [`Trigger`](crate::trigger::Trigger) with the *analytical*
//! model's iteration times (Eq. (2)/(5)) and emit the schedule it would
//! produce.
//!
//! The paper argues (§III-B) that triggering an LB step whenever the
//! accumulated degradation reaches `C` + overhead approximates the optimal
//! interval σ⁺. This module lets us verify that claim directly: the
//! Zhai-trigger-generated schedule should land within a few percent of the
//! σ⁺ schedule's total time on the very model that derived σ⁺ — see the
//! tests and the root integration suite.

use crate::trigger::TriggerKind;
use ulba_model::schedule::{Method, Schedule};
use ulba_model::{standard, ulba, ModelParams};

/// Run a `kind` trigger against the model's iteration times and return the
/// schedule of LB activations it produces.
///
/// Semantics match the application loop: the trigger, seeded with the
/// model's `C`, observes iteration `i`'s wall time; on a positive decision
/// the LB step happens before iteration `i + 1`. The anticipated overhead
/// is zero and the measured LB cost reported back is the model's `C`.
pub fn trigger_driven_schedule(
    params: &ModelParams,
    method: Method,
    kind: TriggerKind,
) -> Schedule {
    let mut trigger = kind.build(params.c, params.gamma as u64);
    let mut steps = Vec::new();
    let mut last_lb: u32 = 0;
    let mut balanced_start = true; // before the first LB, Eq. (2) from i = 0
    for i in 0..params.gamma {
        let t_rel = i - last_lb;
        let secs = if balanced_start {
            standard::iteration_time(params, 0, t_rel)
        } else {
            match method {
                Method::Standard => standard::iteration_time(params, last_lb, t_rel),
                Method::Ulba { alpha } => ulba::iteration_time(params, last_lb, t_rel, alpha),
            }
        };
        if trigger.observe(i as u64, secs, 0.0) {
            steps.push(i + 1);
            trigger.lb_completed(i as u64, params.c);
            last_lb = i + 1;
            balanced_start = false;
        }
    }
    Schedule::new(steps, params.gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulba_model::schedule::{menon_schedule, sigma_plus_schedule, total_time};

    fn params() -> ModelParams {
        ModelParams::example()
    }

    #[test]
    fn periodic_trigger_reproduces_periodic_schedule() {
        let p = params();
        let sched = trigger_driven_schedule(&p, Method::Standard, TriggerKind::Periodic(10));
        // Fires after iterations 9, 19, … → LB at 10, 20, …, 90: the slot
        // after iteration 99 ends the run (γ = 100) and is dropped.
        assert_eq!(sched, Schedule::periodic(10, p.gamma));
        assert_eq!(sched.steps().last(), Some(&90));
    }

    #[test]
    fn zhai_on_model_lands_near_menon_interval_standard() {
        // On the standard model, degradation after k iterations is
        // (m+a−ΔW/P-ish)·k²/2ω ≈ m̂k²/2ω; it reaches C at k ≈ τ_Menon·√1 —
        // the Zhai rule should fire within a small factor of τ.
        let p = params();
        let tau = standard::menon_tau(&p).unwrap();
        let sched = trigger_driven_schedule(&p, Method::Standard, TriggerKind::Zhai);
        assert!(!sched.steps().is_empty(), "imbalance growth must trigger");
        let first = sched.steps()[0] as f64;
        assert!(
            first >= 0.5 * tau && first <= 2.5 * tau,
            "first Zhai firing {first} vs Menon tau {tau}"
        );
    }

    #[test]
    fn zhai_schedule_cost_close_to_sigma_schedule_cost() {
        // The central §III-C claim: degradation-triggered balancing performs
        // like the analytic σ⁺ schedule.
        let p = params();
        for method in [Method::Standard, Method::Ulba { alpha: 0.4 }] {
            let triggered = trigger_driven_schedule(&p, method, TriggerKind::Zhai);
            let t_trig = total_time(&p, &triggered, method);
            let sigma = sigma_plus_schedule(&p, method.alpha());
            let t_sigma = total_time(&p, &sigma, method);
            let ratio = t_trig / t_sigma;
            assert!(
                (0.90..=1.15).contains(&ratio),
                "{method:?}: trigger-driven {t_trig:.3} vs sigma {t_sigma:.3} (ratio {ratio:.3})"
            );
        }
    }

    #[test]
    fn ulba_trigger_fires_less_often_than_standard() {
        // Anticipation on the model: with α > 0 the post-LB max grows slower
        // (σ⁻ plateau), so the same trigger fires fewer times.
        let p = params();
        let std_sched = trigger_driven_schedule(&p, Method::Standard, TriggerKind::Zhai);
        let ulba_sched =
            trigger_driven_schedule(&p, Method::Ulba { alpha: 0.4 }, TriggerKind::Zhai);
        assert!(
            ulba_sched.num_calls() < std_sched.num_calls(),
            "ULBA {} calls vs standard {} calls",
            ulba_sched.num_calls(),
            std_sched.num_calls()
        );
    }

    #[test]
    fn static_workload_never_triggers() {
        let mut p = params();
        p.m = 0.0;
        p.a = 0.0;
        let sched = trigger_driven_schedule(&p, Method::Standard, TriggerKind::Zhai);
        assert_eq!(sched.num_calls(), 0);
    }

    #[test]
    fn balanced_growth_still_triggers_the_degradation_rule() {
        // A known blind spot of the cumulative-degradation rule (visible in
        // the paper's own Fig. 4b as the "wasted" LB call at iteration 315):
        // iteration times rising due to *balanced* growth (m = 0, a > 0)
        // are indistinguishable from imbalance, so the trigger fires even
        // though rebalancing cannot help.
        let mut p = params();
        p.m = 0.0;
        p.a = 5.0e7; // every PE grows identically
        let sched = trigger_driven_schedule(&p, Method::Standard, TriggerKind::Zhai);
        assert!(
            sched.num_calls() > 0,
            "the degradation rule conflates balanced growth with imbalance"
        );
    }

    #[test]
    fn trigger_schedule_beats_never_balancing() {
        let p = params();
        let sched = trigger_driven_schedule(&p, Method::Standard, TriggerKind::Zhai);
        let with = total_time(&p, &sched, Method::Standard);
        let without = total_time(&p, &Schedule::empty(p.gamma), Method::Standard);
        assert!(with < without);
        // And is in the same league as the Menon schedule.
        let menon = total_time(&p, &menon_schedule(&p), Method::Standard);
        assert!(with <= menon * 1.10);
    }

    #[test]
    fn menon_trigger_reproduces_menon_schedule() {
        // The online Menon rule, fed the model's exact times and cost,
        // lands on the analytic Menon schedule step for step.
        let p = params();
        let kind = TriggerKind::Menon { max_interval: u64::from(p.gamma) };
        let sched = trigger_driven_schedule(&p, Method::Standard, kind);
        let menon = menon_schedule(&p);
        assert_eq!(sched.steps(), menon.steps());
        assert_eq!(
            total_time(&p, &sched, Method::Standard),
            total_time(&p, &menon, Method::Standard)
        );
    }
}
