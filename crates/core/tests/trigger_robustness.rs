//! Failure-injection tests for the adaptive triggers: noisy timings,
//! pathological inputs, and trigger/cost-model feedback loops.

use ulba_core::trigger::TriggerKind;

/// Deterministic pseudo-noise in [-1, 1].
fn noise(i: u64) -> f64 {
    let x = i.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((x >> 40) as f64 / (1u64 << 24) as f64) * 2.0 - 1.0
}

#[test]
fn zhai_tolerates_bounded_noise_without_growth() {
    // Flat workload + 2 % noise: over 1000 iterations the trigger must not
    // fire more than a handful of times (noise is zero-mean, degradation
    // stays near zero).
    let mut t = TriggerKind::Zhai.build(0.5, u64::MAX);
    let mut fires = 0;
    for iter in 0..1000u64 {
        let time = 1.0 + 0.02 * noise(iter);
        if t.observe(iter, time, 0.0) {
            fires += 1;
            t.lb_completed(iter, 0.5);
        }
    }
    assert!(fires <= 2, "noise-only workload fired {fires} times");
}

#[test]
fn zhai_fires_despite_noise_when_growth_is_real() {
    let mut t = TriggerKind::Zhai.build(0.5, u64::MAX);
    let mut fired = false;
    for iter in 0..200u64 {
        let time = 1.0 + 0.01 * iter as f64 + 0.02 * noise(iter);
        if t.observe(iter, time, 0.0) {
            fired = true;
            break;
        }
    }
    assert!(fired, "real growth must fire through the noise");
}

#[test]
fn zhai_cost_model_feedback_converges() {
    // The measured LB cost feeds the threshold: alternating cheap/expensive
    // measurements must keep the EWMA bounded between the extremes.
    let mut t = TriggerKind::Zhai.build(1.0, u64::MAX);
    for k in 0..50u64 {
        t.lb_completed(k * 10, if k % 2 == 0 { 0.5 } else { 1.5 });
        let est = t.lb_cost();
        assert!((0.4..=1.6).contains(&est), "estimate {est} escaped the data range");
    }
}

#[test]
fn zhai_handles_decreasing_times() {
    // Times *decrease* after the reference (e.g. workload shrinks):
    // degradation goes negative; the trigger must not fire and must not
    // panic.
    let mut t = TriggerKind::Zhai.build(0.1, u64::MAX);
    for iter in 0..100u64 {
        let time = 2.0 - 0.01 * iter as f64;
        assert!(!t.observe(iter, time, 0.0), "shrinking workload must never trigger");
    }
    assert!(t.degradation() <= 0.0);
}

#[test]
fn menon_ignores_negative_slope() {
    let mut t = TriggerKind::Menon { max_interval: 50 }.build(1.0, u64::MAX);
    let mut fired_at = None;
    for iter in 0..200u64 {
        if t.observe(iter, 5.0 - 0.001 * iter as f64, 0.0) {
            fired_at = Some(iter);
            break;
        }
    }
    // Negative slope → fallback interval applies (49 observations in).
    assert_eq!(fired_at, Some(49));
}

#[test]
fn zhai_spike_then_recovery_does_not_latch() {
    // A one-iteration spike (e.g. OS jitter) followed by recovery: the
    // median-of-3 smoothing must prevent a permanent degradation offset.
    let mut t = TriggerKind::Zhai.build(5.0, u64::MAX);
    for iter in 0..50u64 {
        let time = if iter == 10 { 100.0 } else { 1.0 };
        assert!(!t.observe(iter, time, 0.0), "isolated spike must not fire (iter {iter})");
    }
    assert!(t.degradation() < 5.0, "degradation {} must not retain the spike", t.degradation());
}

#[test]
fn triggers_are_isolated_between_intervals() {
    // After lb_completed, history from the previous interval must not leak:
    // a high previous plateau followed by a low one must not fire
    // immediately.
    let mut t = TriggerKind::Zhai.build(0.3, u64::MAX);
    for iter in 0..20u64 {
        t.observe(iter, 10.0, 0.0);
    }
    t.lb_completed(20, 0.3);
    for iter in 21..40u64 {
        assert!(!t.observe(iter, 1.0, 0.0), "stale reference leaked into new interval");
    }
}
