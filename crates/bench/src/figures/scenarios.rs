//! Adversarial-scenario policy sweep: every generator family (slow node,
//! scatter, drifting hotspot, bursty, task graph) crossed with the LB
//! policies and gossip wire formats, batched on the global pool
//! ([`JobServer::global`](ulba_runtime::JobServer::global), sized by
//! `ULBA_WORKERS`, like every other study) and recorded in
//! `results/BENCH_scenarios.json`.
//!
//! Two claims are checked on every invocation:
//!
//! * **λ fidelity** — each scenario's achieved imbalance factor (verified
//!   analytically by the generator) stays within tolerance of the requested
//!   target — the same [`gates::lambda`] CI runs on the written report —
//!   and both values land in the report rows;
//! * **backend/shard invariance** — every parallel row is asserted
//!   bit-identical to its sequential twin in the grid, and one ULBA leg
//!   per family is additionally re-run alone on a private three-worker
//!   pool (three blocks, a hub-shard count of its own).
//!
//! `gate drift` then holds every row of a full-scale run to
//! `results/BENCH_scenarios.json`.

use crate::gates;
use crate::output::print_table;
use crate::report::{perf_row, PerfRow, Report};
use std::path::Path;
use std::time::Instant;
use ulba_core::gossip::GossipWire;
use ulba_core::policy::LbPolicy;
use ulba_runtime::Backend;
use ulba_scenario::config::TriggerKind;
use ulba_scenario::{
    run_scenario, run_scenario_batch, ScenarioConfig, ScenarioKind, ScenarioResult,
};

/// The policy arms of the sweep.
fn policies() -> [(&'static str, LbPolicy); 2] {
    [("standard", LbPolicy::Standard), ("ulba-fixed:0.4", LbPolicy::ulba_fixed(0.4))]
}

/// The backend arms of the sweep: the parallel arm goes through the
/// shared pool; the sequential arm occupies no pool worker and runs
/// serially at join, inside the same batch call.
const BACKENDS: [Backend; 2] = [Backend::Parallel, Backend::Sequential];

/// The gossip-wire arms of the sweep.
const WIRES: [GossipWire; 2] = [GossipWire::Full, GossipWire::Delta { full_every: 32 }];

/// The scenario grid: every family × policy × wire × backend (backend
/// innermost, so each parallel row sits next to its sequential twin).
fn scenario_sweep(smoke: bool) -> Vec<(String, Backend, ScenarioConfig)> {
    let ranks = if smoke { 8 } else { 64 };
    let mut specs = Vec::new();
    for kind in ScenarioKind::ALL {
        for (plabel, policy) in policies() {
            for wire in WIRES {
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

/// Run the scenario sweep on the global pool. Returns the report
/// (scenario rows carry `lambda_target`/`lambda_achieved`, the sweep's wall
/// is `batch_wall_s`) after writing it to `json`; `Err` if it cannot be
/// written.
pub fn run(smoke: bool, json: &Path) -> Result<Report, String> {
    let specs = scenario_sweep(smoke);
    println!(
        "Scenario study — {} scenario jobs ({} families × {} policies × {} wires × {} \
         backends){}",
        specs.len(),
        ScenarioKind::ALL.len(),
        policies().len(),
        WIRES.len(),
        BACKENDS.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // Untimed warmup primes the process heap before the timed batch.
    {
        let mut warm = specs[0].2.clone();
        warm.iterations = 1;
        warm.backend = Some(Backend::Parallel);
        let _ = run_scenario(&warm);
    }

    // Parallel arms share the global pool; sequential arms are deferred to
    // serial execution by the same batch call.
    let cfgs: Vec<ScenarioConfig> = specs.iter().map(|(_, _, cfg)| cfg.clone()).collect();
    let batch_started = Instant::now();
    let results = run_scenario_batch(&cfgs);
    let batch_wall_s = batch_started.elapsed().as_secs_f64();

    for ((label, backend, cfg), res) in specs.iter().zip(&results) {
        assert_eq!(res.backend, *backend, "[{label}] ran on another backend than its own");
        assert_eq!(res.lambda_target, cfg.lambda, "[{label}/{backend}] target λ mangled in flight");
    }

    // Backend invariance: every parallel row must be bit-identical to its
    // sequential twin (adjacent in the grid — backend is the innermost
    // dimension).
    for (pair, twin_res) in specs.chunks(2).zip(results.chunks(2)) {
        assert_eq!(pair[0].0, pair[1].0, "grid ordering broke: backend must be innermost");
        assert_identical(&pair[0].0, &twin_res[0], &twin_res[1]);
    }

    // Shard invariance: one ULBA leg per family, re-run alone on a private
    // three-worker pool (three blocks, a hub-shard count of its own).
    for (i, ((label, _, cfg), batched)) in specs.iter().zip(&results).enumerate() {
        if !label.ends_with("ulba-fixed:0.4") || i % (2 * BACKENDS.len()) != 0 {
            continue;
        }
        let mut check = cfg.clone();
        check.backend = Some(Backend::Parallel);
        check.workers = Some(3);
        let serial = run_scenario(&check);
        assert_identical(label, batched, &serial);
    }

    let rows: Vec<PerfRow> = specs
        .iter()
        .zip(&results)
        .map(|((label, _, cfg), res)| PerfRow {
            lambda_target: Some(res.lambda_target),
            lambda_achieved: Some(res.lambda_achieved),
            ..perf_row(label, cfg.ranks, cfg.gossip_wire, res, None)
        })
        .collect();

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

    let batch_wall_s = Some(batch_wall_s);
    let report = Report { study: "scenarios".into(), smoke, batch_wall_s, rows };
    // λ fidelity: the generator already asserts this at build time; the
    // study re-checks the *reported* values, with the gate CI runs on the
    // file, so a row can never drift from the construction invariant.
    let lambda = gates::lambda(&report);
    assert!(!gates::failed(&lambda), "λ fidelity: {lambda:?}");
    report.write(json)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_reports_lambda_and_verifies_invariance() {
        let json = std::env::temp_dir().join("ulba-scenarios-test").join("BENCH_scenarios.json");
        // run() hard-asserts λ fidelity and backend/shard bit-identity.
        let report = run(true, &json).unwrap();
        assert_eq!(report.rows.len(), 40, "5 families × 2 policies × 2 wires × 2 backends");
        assert!(report
            .rows
            .iter()
            .all(|r| r.lambda_target.is_some() && r.lambda_achieved.is_some()));
        assert!(report.rows.iter().all(|r| r.sim_wall_s.is_none()), "no per-row wall in a batch");
        assert!(report.rows.iter().any(|r| r.policy == "slow-node+ulba-fixed:0.4"));
        assert!(!gates::failed(&gates::scenario_grid(&report)), "the smoke grid is the full grid");
        assert_eq!(Report::read(&json), Ok(report));
    }
}
