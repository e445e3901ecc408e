//! Workspace-level smoke test: the `ulba` facade re-exports every member
//! crate under the names the rustdoc promises, and the quickstart pipeline
//! (the same flow as `examples/quickstart.rs`, shrunk) runs end to end
//! through those re-exports alone.

use ulba::prelude::*;

/// Every re-exported module path resolves and exposes its headline items.
#[test]
fn facade_reexports_resolve() {
    // ulba::model
    let params = ulba::model::ModelParams::example();
    assert!(params.p > 0);
    // ulba::anneal
    let schedule = ulba::anneal::CoolingSchedule::geometric(10.0, 0.1);
    assert!(schedule.temperature(0.0) >= schedule.temperature(1.0));
    // ulba::runtime
    let spec = ulba::runtime::MachineSpec::default();
    assert!(spec.speed(0) > 0.0);
    // ulba::core
    let policy = ulba::core::policy::LbPolicy::ulba_fixed(0.4);
    assert!(policy.alpha_for(5.0) > 0.0);
    // ulba::erosion
    let cfg = ulba::erosion::ErosionConfig::tiny(2, 1);
    assert!(cfg.iterations > 0);
}

/// The analytical quickstart from the facade rustdoc: ULBA on its σ⁺
/// schedule never loses to the standard method on the Menon schedule.
#[test]
fn quickstart_model_comparison() {
    let params = ModelParams::example();
    let std_time = total_time(&params, &menon_schedule(&params), Method::Standard);
    let ulba_time =
        total_time(&params, &sigma_plus_schedule(&params, 0.4), Method::Ulba { alpha: 0.4 });
    assert!(std_time.is_finite() && ulba_time.is_finite());
    assert!(ulba_time <= std_time, "anticipation must not lose here");
}

/// The distributed quickstart: a tiny erosion study runs on the virtual
/// cluster through the prelude alone.
#[test]
fn quickstart_erosion_run() {
    let mut cfg = ErosionConfig::tiny(4, 1);
    cfg.iterations = 30;
    cfg.policy = ulba::core::policy::LbPolicy::ulba_fixed(0.4);
    let result = run_erosion(&cfg);
    assert!(result.makespan > 0.0);
    assert!(result.total_eroded > 0);
}

/// The SPMD runtime quickstart from the prelude: an imbalanced two-rank
/// program reports the overloaded rank's clock as the makespan.
#[test]
fn quickstart_runtime_run() {
    let report = run(RunConfig::new(2), |mut ctx: SpmdCtx| async move {
        let flops = if ctx.rank() == 0 { 2.0e9 } else { 1.0e9 };
        ctx.compute(flops);
        ctx.barrier().await;
        ctx.mark_iteration(0);
    });
    assert!(report.makespan().as_secs() >= 2.0);
    assert!(report.mean_utilization() <= 1.0);
}

/// Backend selection through the prelude: the default pool reproduces the
/// sequential run exactly.
#[test]
fn quickstart_backend_selection() {
    let go = |backend: Backend| {
        run(RunConfig::new(3).with_backend(backend), |mut ctx| async move {
            ctx.compute(1.0e9 * (ctx.rank() + 1) as f64);
            let mine = ctx.now().as_secs();
            let peak = ctx.allreduce_max(mine).await;
            assert!((peak - 3.0).abs() < 1e-9, "slowest rank computed 3 GFLOP");
            ctx.barrier().await;
        })
    };
    let sequential = go(Backend::Sequential);
    let parallel = go(Backend::Parallel);
    assert_eq!(sequential.makespan().as_secs().to_bits(), parallel.makespan().as_secs().to_bits());
}
