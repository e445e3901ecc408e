//! One module per study; each `run` prints the figure's/table's rows and
//! writes them under `results/`: the model studies (`table2`, `fig2`,
//! `fig3`) as a CSV, the erosion-driven ones as a schema-3 report. A file
//! a study cannot write is its `Err`, naming the path.
//! `ulba-bench <study>` (`src/main.rs`) picks a study's defaults and flags
//! and calls its `run`, so `ulba-bench fig3` regenerates exactly one
//! artifact and `ulba-bench all` every paper artifact and ablation. The
//! erosion figures and ablations name their arms and print their tables;
//! [`sweep`] runs them and writes their report.

use crate::output::StudyOutput;
use crate::report::{perf_row, PerfRow, Report};
use std::time::Instant;
use ulba_erosion::{median_result, run_erosion_batch, ErosionConfig, ExperimentResult};

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod scenarios;
pub mod table2;
pub mod weak_scaling;

/// Standard seeds used for median-of-N erosion runs (the paper uses the
/// median of five runs).
pub const MEDIAN_SEEDS: [u64; 5] = [11, 23, 37, 53, 71];

/// The PE counts of the paper's scaling study (§IV-B).
pub const PAPER_PE_COUNTS: [usize; 4] = [32, 64, 128, 256];

/// `Err` naming the first seed on which a policy eroded a different number
/// of cells than `policies[0]`. The LB policy decides where a column lives,
/// never whether a cell erodes, so at figure scale this guards the same
/// physics that `crates/erosion/tests/policy_invariance.rs` checks at test
/// scale. `eroded` is policy-major: `eroded[p * seeds.len() + s]` is
/// policy `p` on `seeds[s]`.
pub fn check_same_erosion(
    cell: &str,
    policies: &[impl std::fmt::Display],
    seeds: &[u64],
    eroded: &[u64],
) -> Result<(), String> {
    assert_eq!(eroded.len(), policies.len() * seeds.len(), "one count per policy and seed");
    for (p, policy) in policies.iter().enumerate().skip(1) {
        for (s, seed) in seeds.iter().enumerate() {
            let (first, other) = (eroded[s], eroded[p * seeds.len() + s]);
            if first != other {
                return Err(format!(
                    "[{cell}] seed {seed}: {} eroded {first} cells but {policy} eroded {other}; \
                     the LB policy changed the erosion",
                    policies[0]
                ));
            }
        }
    }
    Ok(())
}

/// One arm of a [`sweep`] cell: its report label and its configuration
/// (the sweep sets the seed).
pub type Arm = (String, ErosionConfig);

/// Run the erosion study `study`: every arm × seed of `cells` goes to the
/// shared job server as one timed batch. A cell is one (P, rocks) point, so
/// its arms must erode the same cells on every seed ([`check_same_erosion`]
/// is the `Err`). Each arm reduces to its median-makespan run over `seeds`
/// (the paper reports the median of five runs), returned per cell in arm
/// order. The same medians are the rows of the schema-3 report at
/// `out.json`.
pub fn sweep(
    study: &str,
    cells: &[Vec<Arm>],
    seeds: &[u64],
    out: &StudyOutput,
) -> Result<Vec<Vec<ExperimentResult>>, String> {
    let cfgs: Vec<ErosionConfig> = cells
        .iter()
        .flatten()
        .flat_map(|(_, cfg)| seeds.iter().map(|&seed| ErosionConfig { seed, ..cfg.clone() }))
        .collect();
    let started = Instant::now();
    let mut runs = run_erosion_batch(&cfgs).into_iter();
    let batch_wall_s = started.elapsed().as_secs_f64();
    let (mut medians, mut rows) = (Vec::new(), Vec::new());
    for arms in cells {
        let cell: Vec<ExperimentResult> = runs.by_ref().take(arms.len() * seeds.len()).collect();
        let eroded: Vec<u64> = cell.iter().map(|r| r.total_eroded).collect();
        let labels: Vec<&str> = arms.iter().map(|(label, _)| label.as_str()).collect();
        let point = format!("P={} rocks={}", arms[0].1.ranks, arms[0].1.strong_rocks);
        check_same_erosion(&point, &labels, seeds, &eroded)?;
        let mut cell = cell.into_iter();
        let arm_medians: Vec<ExperimentResult> =
            arms.iter().map(|_| median_result(cell.by_ref().take(seeds.len()).collect())).collect();
        rows.extend(arms.iter().zip(&arm_medians).map(|((label, cfg), res)| PerfRow {
            strong_rocks: Some(cfg.strong_rocks),
            ..perf_row(label, cfg.ranks, cfg.gossip_wire, res, None)
        }));
        medians.push(arm_medians);
    }
    // A batch: the sweep's wall, no per-row one.
    let batch_wall_s = Some(batch_wall_s);
    Report { study: study.into(), smoke: out.smoke, batch_wall_s, rows }.write(&out.json)?;
    Ok(medians)
}

/// Gain of `time` over `baseline`, in percent of `baseline`.
pub fn gain_pct(baseline: f64, time: f64) -> f64 {
    (baseline - time) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulba_core::policy::LbPolicy;
    use ulba_erosion::run_erosion;

    #[test]
    fn a_sweep_reports_each_arms_median_and_refuses_arms_that_erode_differently() {
        let dir = std::env::temp_dir().join("ulba-sweep-test");
        let json = dir.join("BENCH_sweep.json");
        let out = StudyOutput { dir, smoke: true, json: json.clone() };
        let arm = |label: &str, rocks, policy| {
            let cfg = ErosionConfig { policy, iterations: 20, ..ErosionConfig::tiny(4, rocks) };
            (label.to_string(), cfg)
        };
        let (standard, ulba) = (LbPolicy::Standard, LbPolicy::ulba_fixed(0.4));
        let seeds = [11, 23, 37];
        let cell = vec![arm("standard", 1, standard), arm("ulba", 1, ulba)];
        let medians = sweep("sweep", std::slice::from_ref(&cell), &seeds, &out).unwrap();
        let report = crate::report::Report::read(&json).unwrap();
        assert_eq!(report.rows.len(), cell.len(), "one row per arm");
        for (((label, cfg), median), row) in cell.iter().zip(&medians[0]).zip(&report.rows) {
            let runs = seeds.map(|seed| run_erosion(&ErosionConfig { seed, ..cfg.clone() }));
            assert_eq!(median.makespan, median_result(runs.into()).makespan, "{label}");
            assert_eq!(
                (row.policy.as_str(), row.makespan_virtual_s),
                (label.as_str(), median.makespan)
            );
        }

        // Two rock counts in one cell erode differently: `Err`, and no
        // report is written.
        std::fs::remove_file(&json).unwrap();
        let cell = vec![arm("one rock", 1, ulba), arm("two rocks", 2, ulba)];
        let err = sweep("sweep", &[cell], &[11], &out).unwrap_err();
        assert!(err.starts_with("[P=4 rocks=1] seed 11: one rock eroded "), "{err}");
        assert!(!json.exists());
    }

    #[test]
    fn gain_is_the_time_saved_in_percent_of_the_baseline() {
        assert!((gain_pct(100.0, 84.0) - 16.0).abs() < 1e-12);
        assert_eq!(gain_pct(50.0, 50.0).to_string(), "0");
    }

    #[test]
    fn a_policy_that_erodes_differently_is_named_with_the_seed_and_both_counts() {
        let seeds = [11, 23];
        assert!(
            check_same_erosion("P=8 rocks=1", &["standard", "ulba"], &seeds, &[5, 6, 5, 6]).is_ok()
        );
        let err = check_same_erosion("P=8 rocks=1", &["a", "b", "c"], &seeds, &[5, 6, 5, 6, 5, 7])
            .unwrap_err();
        assert!(err.starts_with("[P=8 rocks=1] seed 23: a eroded 6 cells but c eroded 7"), "{err}");
    }
}
