//! Property-based tests of the analytical model's invariants.

use proptest::prelude::*;
use ulba_model::schedule::{
    iteration_series, menon_schedule, segment_time, sigma_plus_schedule, total_time, Method,
    Schedule,
};
use ulba_model::search::optimal_schedule;
use ulba_model::{standard, ulba, ModelParams};

/// Strategy for valid, imbalanced model parameters (Table II-ish ranges,
/// scaled down so closed forms stay well-conditioned).
fn params_strategy() -> impl Strategy<Value = ModelParams> {
    (
        4u32..200,        // p
        0.01f64..0.45,    // n as a fraction of p
        10u32..150,       // gamma
        1.0e9f64..1.0e12, // w0
        0.0f64..1.0e6,    // a
        1.0e3f64..1.0e8,  // m
        0.01f64..10.0,    // c
    )
        .prop_map(|(p, n_frac, gamma, w0, a, m, c)| ModelParams {
            p,
            n: ((p as f64 * n_frac) as u32).clamp(1, p - 1),
            gamma,
            w0,
            a,
            m,
            omega: 1.0e9,
            c,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The closed-form interval sums must equal the naive per-iteration sums
    /// for both methods.
    #[test]
    fn closed_forms_match_naive_sums(
        params in params_strategy(),
        lb_prev in 0u32..100,
        len in 0u32..200,
        alpha in 0.0f64..1.0,
    ) {
        let naive_std: f64 =
            (0..len).map(|t| standard::iteration_time(&params, lb_prev, t)).sum();
        let closed_std = standard::interval_compute_time(&params, lb_prev, len);
        prop_assert!((naive_std - closed_std).abs() <= 1e-9 * naive_std.max(1.0));

        let naive_ulba: f64 =
            (0..len).map(|t| ulba::iteration_time(&params, lb_prev, t, alpha)).sum();
        let closed_ulba = ulba::interval_compute_time(&params, lb_prev, len, alpha);
        prop_assert!((naive_ulba - closed_ulba).abs() <= 1e-9 * naive_ulba.max(1.0));
    }

    /// σ⁻ closes the workload gap: at σ⁻ the overloaders are still at or
    /// below the others, one iteration later they are at or above.
    #[test]
    fn sigma_minus_is_the_catchup_point(params in params_strategy(), alpha in 0.01f64..1.0) {
        let s = ulba::sigma_minus(&params, 0, alpha).expect("m > 0 and n > 0") as f64;
        let shares = ulba::post_lb_shares(&params, 0, alpha);
        let over = |t: f64| shares.overloading + (params.m + params.a) * t;
        let under = |t: f64| shares.non_overloading + params.a * t;
        let tol = 1e-9 * shares.non_overloading.max(1.0);
        prop_assert!(over(s) <= under(s) + tol);
        prop_assert!(over(s + 1.0) >= under(s + 1.0) - tol);
    }

    /// σ⁺ > σ⁻, and with α = 0 it equals the Menon interval.
    #[test]
    fn sigma_plus_bounds(params in params_strategy(), alpha in 0.0f64..1.0) {
        let sp = ulba::sigma_plus(&params, 0, alpha).expect("imbalance growth");
        if alpha > 0.0 {
            let sm = ulba::sigma_minus(&params, 0, alpha).unwrap() as f64;
            prop_assert!(sp > sm);
        } else {
            let tau = standard::menon_tau(&params).unwrap();
            prop_assert!((sp - tau).abs() <= 1e-9 * tau);
        }
    }

    /// ULBA with α = 0 gives exactly the standard total time on any schedule.
    #[test]
    fn alpha_zero_is_standard(params in params_strategy(), steps in proptest::collection::vec(1u32..150, 0..8)) {
        let schedule = Schedule::new(steps, params.gamma);
        let a = total_time(&params, &schedule, Method::Standard);
        let b = total_time(&params, &schedule, Method::Ulba { alpha: 0.0 });
        prop_assert!((a - b).abs() <= 1e-12 * a.max(1.0));
    }

    /// `total_time` walks the steps without building `boundaries()`: same
    /// intervals, same left-to-right order, so the same bits.
    #[test]
    fn total_time_is_the_sum_over_boundaries(
        params in params_strategy(),
        steps in proptest::collection::vec(1u32..150, 0..12),
        alpha in 0.0f64..1.0,
    ) {
        let schedule = Schedule::new(steps, params.gamma);
        for method in [Method::Standard, Method::Ulba { alpha }] {
            let windows: f64 = schedule
                .boundaries()
                .windows(2)
                .map(|w| segment_time(&params, w[0], w[1], method))
                .sum();
            prop_assert_eq!(total_time(&params, &schedule, method).to_bits(), windows.to_bits());
        }
    }

    /// The DP optimum is never beaten by the σ⁺ schedule, the Menon
    /// schedule, or the empty schedule.
    #[test]
    fn dp_is_a_lower_bound(params in params_strategy(), alpha in 0.0f64..1.0) {
        let method = Method::Ulba { alpha };
        let dp = optimal_schedule(&params, method);
        let sigma = total_time(&params, &sigma_plus_schedule(&params, alpha), method);
        let menon = total_time(&params, &menon_schedule(&params), method);
        let empty = total_time(&params, &Schedule::empty(params.gamma), method);
        let tol = 1e-9 * dp.time.max(1.0);
        prop_assert!(dp.time <= sigma + tol);
        prop_assert!(dp.time <= menon + tol);
        prop_assert!(dp.time <= empty + tol);
    }

    /// Total time equals the iteration series plus C per activation, and
    /// every segment cost is positive.
    #[test]
    fn series_and_segments_consistent(
        params in params_strategy(),
        steps in proptest::collection::vec(1u32..150, 0..6),
        alpha in 0.0f64..1.0,
    ) {
        let schedule = Schedule::new(steps, params.gamma);
        let method = Method::Ulba { alpha };
        let series = iteration_series(&params, &schedule, method);
        prop_assert_eq!(series.len(), params.gamma as usize);
        let total = total_time(&params, &schedule, method);
        let recon: f64 =
            series.iter().sum::<f64>() + schedule.num_calls() as f64 * params.c;
        prop_assert!((total - recon).abs() <= 1e-9 * total.max(1.0));

        let bounds = schedule.boundaries();
        for w in bounds.windows(2) {
            prop_assert!(segment_time(&params, w[0], w[1], method) > 0.0);
        }
    }

    /// Workload conservation of the post-LB shares (Eq. (6)).
    #[test]
    fn shares_conserve_workload(params in params_strategy(), alpha in 0.0f64..1.0, iter in 0u32..100) {
        let s = ulba::post_lb_shares(&params, iter, alpha);
        let total = s.overloading * params.n as f64
            + s.non_overloading * (params.p - params.n) as f64;
        prop_assert!((total - params.wtot(iter)).abs() <= 1e-9 * params.wtot(iter));
    }
}
