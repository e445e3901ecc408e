//! Job-server batching study: the same sweep of erosion experiments run
//! (a) serially, standing up one worker pool per run and tearing it down
//! again ("one pool per run" — what a pre-job-server figure pipeline did),
//! and (b) as a single batch submitted to one shared [`JobServer`].
//!
//! Two claims are checked:
//!
//! * **correctness** — every batched result is bit-identical to its serial
//!   counterpart (hard assertion: sharing the pool must not perturb the
//!   virtual-time results);
//! * **throughput** — the batched sweep's wall time beats one-pool-per-run
//!   execution (recorded in `BENCH_job_server.json`; warn-only, since
//!   runner load and core counts vary).
//!
//! `gate_pes` appends the [`weak_scaling::gate_legs`] — the drift check
//! that proves the shared pool reproduces the seed numbers at `P = 16384`.

use super::weak_scaling;
use crate::output::print_table;
use crate::report::{perf_row, PerfRow, Report, Summary};
use std::path::Path;
use std::time::Instant;
use ulba_core::policy::LbPolicy;
use ulba_erosion::{run_erosion_batch, submit_erosion, ErosionConfig, ExperimentResult};
use ulba_runtime::{Backend, JobServer};

/// The base sweep: ≥ 8 jobs mixing PE counts, policies and seeds, every
/// config pinned to the parallel backend so both passes exercise the pool.
fn base_sweep(smoke: bool) -> Vec<(&'static str, usize, ErosionConfig)> {
    let pe_counts: &[usize] = if smoke { &[8, 16] } else { &[32, 64] };
    let policies = [("standard", LbPolicy::Standard), ("ulba", LbPolicy::ulba_fixed(0.4))];
    let mut specs = Vec::new();
    for &ranks in pe_counts {
        for (label, policy) in policies {
            for seed in [11u64, 23] {
                let mut cfg = if smoke {
                    let mut cfg = ErosionConfig::tiny(ranks, 1);
                    cfg.iterations = 40;
                    cfg
                } else {
                    ErosionConfig::scaled(ranks, 1)
                };
                cfg.policy = policy;
                cfg.seed = seed;
                specs.push((label, ranks, cfg));
            }
        }
    }
    specs
}

fn assert_identical(label: &str, serial: &ExperimentResult, batched: &ExperimentResult) {
    assert_eq!(
        batched.makespan.to_bits(),
        serial.makespan.to_bits(),
        "[{label}] shared-pool makespan diverged from the serial run"
    );
    assert_eq!(batched.lb_iterations, serial.lb_iterations, "[{label}] LB schedule diverged");
    assert_eq!(batched.total_eroded, serial.total_eroded, "[{label}] erosion diverged");
    assert_eq!(
        batched.final_total_weight, serial.final_total_weight,
        "[{label}] final weight diverged"
    );
    assert_eq!(
        batched.db_entries_total, serial.db_entries_total,
        "[{label}] database footprint diverged"
    );
}

/// Run the serial-vs-batched comparison. `workers` sizes both pools (0 =
/// all cores); `gate_pes` appends the weak-scaling drift-gate legs. Returns
/// the report — the batched pass's rows (no per-row wall: the jobs ran
/// concurrently) under the `jobs`, `serial_wall_s`, `batch_wall_s` and
/// `speedup` summary keys — after writing it to `json`, if given.
pub fn run(workers: usize, gate_pes: &[usize], smoke: bool, json: Option<&Path>) -> Report {
    let mut specs = base_sweep(smoke);
    specs.extend(weak_scaling::gate_legs(gate_pes, smoke));
    for (_, _, cfg) in &mut specs {
        cfg.backend = Some(Backend::Parallel);
    }
    println!(
        "Job-server study — {} jobs, serial one-pool-per-run vs one shared pool{}",
        specs.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // Explicit untimed warmup: one single-iteration job primes the process
    // heap, so the one-time page-zeroing cost does not land on the serial
    // pass's first job and skew the serial-vs-batched comparison.
    if let Some((_, ranks, cfg)) = specs.first() {
        let mut warm = cfg.clone();
        warm.iterations = 1;
        eprintln!("  [warmup P={ranks}] one untimed job before the timed passes");
        let pool = JobServer::new(workers);
        let _ = submit_erosion(&pool, &warm).join();
    }

    // Pass 1: one transient pool per run, joined before the next starts.
    let serial_started = Instant::now();
    let serial: Vec<ExperimentResult> = specs
        .iter()
        .map(|(_, _, cfg)| {
            let pool = JobServer::new(workers);
            submit_erosion(&pool, cfg).join()
        })
        .collect();
    let serial_wall_s = serial_started.elapsed().as_secs_f64();

    // Pass 2: the whole sweep on one shared pool, submitted at once.
    let shared = JobServer::new(workers);
    let cfgs: Vec<ErosionConfig> =
        specs.iter().map(|(_, _, cfg)| cfg.clone().with_server(shared.clone())).collect();
    let batch_started = Instant::now();
    let batched = run_erosion_batch(&cfgs);
    let batch_wall_s = batch_started.elapsed().as_secs_f64();

    for ((label, ranks, _), (serial_res, batched_res)) in
        specs.iter().zip(serial.iter().zip(&batched))
    {
        assert_identical(&format!("P={ranks} {label}"), serial_res, batched_res);
    }

    let speedup = if batch_wall_s > 0.0 { serial_wall_s / batch_wall_s } else { f64::NAN };
    let rows: Vec<PerfRow> = specs
        .iter()
        .zip(&batched)
        .map(|((label, ranks, cfg), res)| perf_row(label, *ranks, cfg.gossip_wire, res, None))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pes.to_string(),
                r.policy.clone(),
                r.gossip_wire.clone(),
                format!("{:.4}", r.makespan_virtual_s),
                r.lb_calls.to_string(),
                r.db_entries_total.to_string(),
            ]
        })
        .collect();
    print_table(
        "job-server sweep (batched results, bit-identical to serial)",
        &["PEs", "policy", "wire", "makespan [s]", "LB calls", "db entries"],
        &table,
    );
    println!(
        "\n{} jobs: serial (one pool per run) {serial_wall_s:.2}s, batched (shared pool) \
         {batch_wall_s:.2}s — speedup {speedup:.2}x",
        specs.len()
    );
    println!("shared pool, batched pass: {:?}", shared.stats());

    let summary = Summary {
        jobs: Some(specs.len() as u64),
        serial_wall_s: Some(serial_wall_s),
        batch_wall_s: Some(batch_wall_s),
        speedup: Some(speedup),
    };
    let report = Report { study: "job_server".into(), smoke, summary, rows };
    if let Some(path) = json {
        report.write(path);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_bit_identical_and_reports() {
        let json = std::env::temp_dir().join("ulba-jobsrv-test").join("BENCH_job_server.json");
        // run() hard-asserts serial/batched bit-identity internally.
        let report = run(2, &[], true, Some(&json));
        assert!(report.summary.jobs >= Some(8), "the sweep must batch at least 8 jobs");
        assert_eq!(Some(report.rows.len() as u64), report.summary.jobs);
        assert!(
            report.summary.serial_wall_s > Some(0.0) && report.summary.batch_wall_s > Some(0.0)
        );
        assert!(report.summary.speedup.is_some_and(f64::is_finite));
        assert!(report.rows.iter().all(|r| r.sim_wall_s.is_none()), "no per-row wall in a batch");
        assert_eq!(Report::read(&json), Ok(report));
    }
}
