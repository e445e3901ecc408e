//! Adversarial-scenario policy sweep: every generator family (slow node,
//! scatter, drifting hotspot, bursty, task graph) crossed with the LB
//! policies and gossip wire formats, batched on one shared
//! [`JobServer`] and recorded in `results/BENCH_scenarios.json`.
//!
//! Three claims are checked on every invocation:
//!
//! * **λ fidelity** — each scenario's achieved imbalance factor (verified
//!   analytically by the generator) stays within tolerance of the requested
//!   target — the same [`gates::lambda`] CI runs on the written report —
//!   and both values land in the report rows;
//! * **backend/shard invariance** — every parallel row is asserted
//!   bit-identical to its sequential twin in the grid, and one ULBA leg
//!   per family is additionally re-run serially with a different
//!   hub-shard count;
//! * **perf trajectory** — `gate_pes` appends the
//!   [`weak_scaling::gate_legs`], proving the scenario batch shares the
//!   pool without perturbing the seed numbers.

use super::weak_scaling;
use crate::gates;
use crate::output::print_table;
use crate::report::{perf_row, PerfRow, Report, Summary};
use std::path::Path;
use std::time::Instant;
use ulba_core::gossip::GossipWire;
use ulba_core::policy::LbPolicy;
use ulba_erosion::{run_erosion_batch, ErosionConfig};
use ulba_runtime::{Backend, JobServer};
use ulba_scenario::config::TriggerKind;
use ulba_scenario::{
    run_scenario, run_scenario_batch, submit_scenario, ScenarioConfig, ScenarioKind, ScenarioResult,
};

/// The policy arms of the sweep.
fn policies() -> [(&'static str, LbPolicy); 2] {
    [("standard", LbPolicy::Standard), ("ulba-fixed:0.4", LbPolicy::ulba_fixed(0.4))]
}

/// The backend arms of the sweep: the parallel arm goes through the
/// shared pool; the sequential arm occupies no pool worker and runs
/// serially at join, inside the same batch call.
const BACKENDS: [Backend; 2] = [Backend::Parallel, Backend::Sequential];

/// The scenario grid: every family × policy × wire × backend (backend
/// innermost, so each parallel row sits next to its sequential twin).
/// `wire_override` restricts the wire dimension (the `--gossip-wire`
/// flag).
fn scenario_sweep(
    smoke: bool,
    wire_override: Option<GossipWire>,
) -> Vec<(String, Backend, ScenarioConfig)> {
    let ranks = if smoke { 8 } else { 64 };
    let wires: Vec<GossipWire> = match wire_override {
        Some(wire) => vec![wire],
        None => vec![GossipWire::Full, GossipWire::Delta { full_every: 32 }],
    };
    let mut specs = Vec::new();
    for kind in ScenarioKind::ALL {
        for (plabel, policy) in policies() {
            for &wire in &wires {
                for backend in BACKENDS {
                    let mut cfg = if smoke {
                        ScenarioConfig::tiny(kind, ranks)
                    } else {
                        ScenarioConfig::new(kind, ranks)
                    };
                    cfg.policy = policy;
                    cfg.gossip_wire = wire;
                    cfg.backend = Some(backend);
                    // The Zhai trigger reacts to *degradation* w.r.t. the
                    // first iteration; these scenarios are adversarial from
                    // iteration 0, so it would never bootstrap. Drive the
                    // LB periodically instead, deliberately misaligned with
                    // the phase length (1.5×) so the WIR window spans phase
                    // boundaries — that is where the load *steps* live that
                    // the ULBA arm's z-scores can anticipate; an aligned
                    // period resets the window right at every boundary and
                    // blinds both arms equally.
                    cfg.trigger = TriggerKind::Periodic(cfg.phase_len + cfg.phase_len / 2);
                    specs.push((format!("{}+{plabel}", kind.name()), backend, cfg));
                }
            }
        }
    }
    specs
}

fn assert_identical(label: &str, a: &ScenarioResult, b: &ScenarioResult) {
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "[{label}] makespan diverged across backend/shards: {} vs {}",
        a.makespan,
        b.makespan
    );
    assert_eq!(a.lb_iterations, b.lb_iterations, "[{label}] LB schedule diverged");
    assert_eq!(a.total_work_units, b.total_work_units, "[{label}] work diverged");
    assert_eq!(a.traffic_checksum, b.traffic_checksum, "[{label}] traffic diverged");
    assert_eq!(a.db_entries_total, b.db_entries_total, "[{label}] db footprint diverged");
}

/// Run the scenario sweep. `workers` sizes the shared pool (0 = all
/// cores); `gate_pes` appends the erosion weak-scaling drift-gate legs;
/// `wire_override` restricts the wire dimension. Returns the report
/// (scenario rows carry `lambda_target`/`lambda_achieved`; `jobs` and
/// `batch_wall_s` summary keys) after writing it to `json`, if given.
pub fn run(
    workers: usize,
    gate_pes: &[usize],
    smoke: bool,
    wire_override: Option<GossipWire>,
    json: Option<&Path>,
) -> Report {
    let specs = scenario_sweep(smoke, wire_override);
    println!(
        "Scenario study — {} scenario jobs ({} families × {} policies × wires × {} backends){}",
        specs.len(),
        ScenarioKind::ALL.len(),
        policies().len(),
        BACKENDS.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let shared = JobServer::new(workers);
    // Untimed warmup primes the process heap before the timed batch.
    {
        let mut warm = specs[0].2.clone();
        warm.iterations = 1;
        warm.backend = Some(Backend::Parallel);
        let _ = submit_scenario(&shared, &warm).join();
    }

    // Parallel arms share the pool; sequential arms keep their explicit
    // backend and are deferred to serial execution by the same batch call.
    let cfgs: Vec<ScenarioConfig> =
        specs.iter().map(|(_, _, cfg)| cfg.clone().with_server(shared.clone())).collect();
    let batch_started = Instant::now();
    let results = run_scenario_batch(&cfgs);
    let mut batch_wall_s = batch_started.elapsed().as_secs_f64();

    for ((label, backend, cfg), res) in specs.iter().zip(&results) {
        assert_eq!(res.backend, *backend, "[{label}] an explicit backend wins over the server");
        assert_eq!(res.lambda_target, cfg.lambda, "[{label}/{backend}] target λ mangled in flight");
    }

    // Backend invariance: every parallel row must be bit-identical to its
    // sequential twin (adjacent in the grid — backend is the innermost
    // dimension).
    for (pair, twin_res) in specs.chunks(2).zip(results.chunks(2)) {
        assert_eq!(pair[0].0, pair[1].0, "grid ordering broke: backend must be innermost");
        assert_identical(&pair[0].0, &twin_res[0], &twin_res[1]);
    }

    // Shard invariance: one ULBA leg per family, re-run serially with a
    // different hub-shard count.
    for (i, ((label, _, cfg), batched)) in specs.iter().zip(&results).enumerate() {
        if !label.ends_with("ulba-fixed:0.4") || i % (2 * BACKENDS.len()) != 0 {
            continue;
        }
        let mut check = cfg.clone();
        check.server = None;
        check.backend = Some(Backend::Sequential);
        check.hub_shards = Some(3);
        let serial = run_scenario(&check);
        assert_identical(label, batched, &serial);
    }

    let mut rows: Vec<PerfRow> = specs
        .iter()
        .zip(&results)
        .map(|((label, _, cfg), res)| perf_row(label, cfg.ranks, cfg.gossip_wire, res, None))
        .collect();

    // The erosion weak-scaling drift-gate legs, batched on the same pool.
    if !gate_pes.is_empty() {
        let legs = weak_scaling::gate_legs(gate_pes, smoke);
        let cfgs: Vec<ErosionConfig> = legs
            .iter()
            .map(|(_, _, cfg)| {
                let mut cfg = cfg.clone().with_server(shared.clone());
                cfg.backend = Some(Backend::Parallel);
                cfg
            })
            .collect();
        let gate_started = Instant::now();
        let gate_results = run_erosion_batch(&cfgs);
        batch_wall_s += gate_started.elapsed().as_secs_f64();
        rows.extend(
            legs.iter().zip(&gate_results).map(|((label, ranks, cfg), res)| {
                perf_row(label, *ranks, cfg.gossip_wire, res, None)
            }),
        );
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.backend.clone(),
                r.pes.to_string(),
                r.gossip_wire.clone(),
                r.lambda_target.map_or_else(|| "-".into(), |l| format!("{l:.2}")),
                r.lambda_achieved.map_or_else(|| "-".into(), |l| format!("{l:.3}")),
                format!("{:.4}", r.makespan_virtual_s),
                r.lb_calls.to_string(),
                r.db_entries_total.to_string(),
            ]
        })
        .collect();
    print_table(
        "scenario sweep (batched, λ verified, backend/shard invariant)",
        &[
            "scenario",
            "backend",
            "PEs",
            "wire",
            "λ target",
            "λ achieved",
            "makespan [s]",
            "LB",
            "db entries",
        ],
        &table,
    );
    println!("\n{} jobs batched in {batch_wall_s:.2}s on one shared pool", rows.len());

    let summary = Summary { jobs: Some(rows.len() as u64), ..Summary::batch(batch_wall_s) };
    let report = Report { study: "scenarios".into(), smoke, summary, rows };
    // λ fidelity: the generator already asserts this at build time; the
    // study re-checks the *reported* values, with the gate CI runs on the
    // file, so a row can never drift from the construction invariant.
    let lambda = gates::lambda(&report);
    assert!(!gates::failed(&lambda), "λ fidelity: {lambda:?}");
    if let Some(path) = json {
        report.write(path);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_reports_lambda_and_verifies_invariance() {
        let json = std::env::temp_dir().join("ulba-scenarios-test").join("BENCH_scenarios.json");
        // run() hard-asserts λ fidelity and backend/shard bit-identity.
        let report = run(2, &[], true, None, Some(&json));
        assert_eq!(report.summary.jobs, Some(40), "5 families × 2 policies × 2 wires × 2 backends");
        assert!(report
            .rows
            .iter()
            .all(|r| r.lambda_target.is_some() && r.lambda_achieved.is_some()));
        assert!(report.rows.iter().all(|r| r.sim_wall_s.is_none()), "no per-row wall in a batch");
        assert!(report.rows.iter().any(|r| r.policy == "slow-node+ulba-fixed:0.4"));
        assert!(!gates::failed(&gates::scenario_grid(&report)), "the smoke grid is the full grid");
        assert_eq!(Report::read(&json), Ok(report));
    }

    #[test]
    fn wire_override_restricts_the_grid() {
        let specs = scenario_sweep(true, Some(GossipWire::Full));
        assert_eq!(specs.len(), 20, "5 families × 2 policies × 1 wire × 2 backends");
        assert!(specs.iter().all(|(_, _, c)| c.gossip_wire == GossipWire::Full));
    }
}
