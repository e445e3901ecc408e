//! Figure 4 — the erosion-application study.
//!
//! * **4a**: median running time over 5 seeds, standard(+Zhai) vs ULBA
//!   (α = 0.4), for P ∈ {32, 64, 128, 256} × {1, 2, 3} strongly erodible
//!   rocks. Paper: ULBA wins everywhere except 32 PEs / 3 rocks (equal),
//!   with gains up to 16 %.
//! * **4b**: per-iteration average PE utilization for 32 PEs / 1 rock, both
//!   methods; ULBA shows fewer utilization drops and 62.5 % fewer LB calls.

use super::check_same_erosion;
use crate::output::{bar, print_table, write_csv, StudyOutput};
use crate::report::{perf_row, PerfRow};
use std::time::Instant;
use ulba_core::policy::LbPolicy;
use ulba_erosion::{median_result, run_erosion_batch, ErosionConfig, ExperimentResult};

/// One Fig. 4a cell.
#[derive(Debug, Clone)]
pub struct Fig4aCell {
    /// PE count.
    pub ranks: usize,
    /// Strongly erodible rocks.
    pub strong: usize,
    /// Median standard-method makespan (s).
    pub standard: f64,
    /// Median ULBA makespan (s).
    pub ulba: f64,
}

impl Fig4aCell {
    /// ULBA gain over the standard method, in percent.
    pub fn gain(&self) -> f64 {
        (self.standard - self.ulba) / self.standard * 100.0
    }
}

fn config_for(ranks: usize, strong: usize, policy: LbPolicy) -> ErosionConfig {
    let mut cfg = ErosionConfig::scaled(ranks, strong);
    cfg.policy = policy;
    cfg
}

/// Run the Fig. 4a sweep as one batch: every (rocks, P, policy, seed)
/// combination is submitted to the shared job server at once, then reduced
/// to per-cell medians. The schema-3 report has one row per median (policy
/// `standard` / `ulba`, in sweep order — rows repeat per rock count).
/// `Err` if the two policies eroded different cell counts on a seed.
pub fn run_4a(
    pe_counts: &[usize],
    rock_counts: &[usize],
    seeds: &[u64],
    out: &StudyOutput,
) -> Result<Vec<Fig4aCell>, String> {
    println!(
        "Fig. 4a — erosion app: standard(+Zhai) vs ULBA (α = 0.4), median of \
         {} seed(s)",
        seeds.len()
    );
    let policies = [("standard", LbPolicy::Standard), ("ulba", LbPolicy::ulba_fixed(0.4))];
    let labels = policies.map(|(label, _)| label);
    let mut specs = Vec::new();
    for &strong in rock_counts {
        for &ranks in pe_counts {
            for (label, policy) in policies {
                specs.push((strong, ranks, label, policy));
            }
        }
    }
    let cfgs: Vec<ErosionConfig> = specs
        .iter()
        .flat_map(|&(strong, ranks, _, policy)| {
            seeds.iter().map(move |&seed| {
                let mut cfg = config_for(ranks, strong, policy);
                cfg.seed = seed;
                cfg
            })
        })
        .collect();
    let started = Instant::now();
    let results = run_erosion_batch(&cfgs);
    let sweep_wall = started.elapsed().as_secs_f64();
    let eroded: Vec<u64> = results.iter().map(|r| r.total_eroded).collect();
    for (cell, spec) in eroded.chunks(labels.len() * seeds.len()).zip(specs.chunks(labels.len())) {
        let (strong, ranks, ..) = spec[0];
        check_same_erosion(&format!("P={ranks} rocks={strong}"), &labels, seeds, cell)?;
    }
    let mut results = results.into_iter();
    let medians: Vec<ExperimentResult> =
        specs.iter().map(|_| median_result(results.by_ref().take(seeds.len()).collect())).collect();

    let mut cells = Vec::new();
    for (pair, spec) in medians.chunks(2).zip(specs.chunks(2)) {
        let (std_res, ulba_res) = (&pair[0], &pair[1]);
        let (strong, ranks, ..) = spec[0];
        eprintln!(
            "  [P={ranks} rocks={strong}] std {:.2}s ({} LB) vs ulba {:.2}s ({} LB)",
            std_res.makespan, std_res.lb_calls, ulba_res.makespan, ulba_res.lb_calls
        );
        cells.push(Fig4aCell {
            ranks,
            strong,
            standard: std_res.makespan,
            ulba: ulba_res.makespan,
        });
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.strong.to_string(),
                c.ranks.to_string(),
                format!("{:.2}", c.standard),
                format!("{:.2}", c.ulba),
                format!("{:+.1}%", c.gain()),
            ]
        })
        .collect();
    print_table(
        "Fig. 4a — median time [s]",
        &["erodible rocks", "PEs", "standard", "ULBA", "gain"],
        &rows,
    );
    let max_gain = cells.iter().map(Fig4aCell::gain).fold(f64::NEG_INFINITY, f64::max);
    println!("\nmaximum gain: {max_gain:+.1}% (paper: up to 16%)");

    let csv_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.strong.to_string(),
                c.ranks.to_string(),
                format!("{:.4}", c.standard),
                format!("{:.4}", c.ulba),
                format!("{:.3}", c.gain()),
            ]
        })
        .collect();
    write_csv(
        &out.dir,
        "fig4a_performance",
        &["strong_rocks", "pes", "standard_s", "ulba_s", "gain_pct"],
        &csv_rows,
    );

    let wire = cfgs[0].gossip_wire;
    let rows = specs
        .iter()
        .zip(&medians)
        .map(|(&(strong, ranks, label, _), res)| PerfRow {
            strong_rocks: Some(strong),
            ..perf_row(label, ranks, wire, res, None)
        })
        .collect();
    out.write_batch_report("fig4a", sweep_wall, rows);
    Ok(cells)
}

/// Run the Fig. 4b utilization study (32 PEs, 1 strong rock by default).
/// The standard and ULBA runs are submitted to the shared job server as
/// one batch of two; `Err` if they eroded different cell counts.
pub fn run_4b(
    ranks: usize,
    seed: u64,
    out: &StudyOutput,
) -> Result<(ExperimentResult, ExperimentResult), String> {
    println!("Fig. 4b — average PE utilization, {ranks} PEs, 1 strongly erodible rock");
    let mut std_cfg = config_for(ranks, 1, LbPolicy::Standard);
    std_cfg.seed = seed;
    let mut ulba_cfg = config_for(ranks, 1, LbPolicy::ulba_fixed(0.4));
    ulba_cfg.seed = seed;
    let (wire, strong) = (std_cfg.gossip_wire, std_cfg.strong_rocks);
    let started = Instant::now();
    let mut results = run_erosion_batch(&[std_cfg, ulba_cfg]);
    let sweep_wall = started.elapsed().as_secs_f64();
    let eroded: Vec<u64> = results.iter().map(|r| r.total_eroded).collect();
    check_same_erosion(&format!("P={ranks} rocks=1"), &["standard", "ulba"], &[seed], &eroded)?;
    let ulba_res = results.pop().expect("two results");
    let std_res = results.pop().expect("two results");

    println!("\niter   standard util          ULBA util");
    for (a, b) in std_res.iterations.iter().zip(&ulba_res.iterations) {
        if a.iter % 20 == 0 || a.lb_active || b.lb_active {
            println!(
                "{:4}  |{}| {:5.1}%{} |{}| {:5.1}%{}",
                a.iter,
                bar(a.mean_utilization, 16),
                a.mean_utilization * 100.0,
                if a.lb_active { " LB" } else { "   " },
                bar(b.mean_utilization, 16),
                b.mean_utilization * 100.0,
                if b.lb_active { " LB" } else { "   " },
            );
        }
    }
    let reduction = if std_res.lb_calls > 0 {
        100.0 * (std_res.lb_calls - ulba_res.lb_calls) as f64 / std_res.lb_calls as f64
    } else {
        0.0
    };
    println!(
        "\nLB calls: standard {} vs ULBA {} ({reduction:.1}% fewer; paper: 62.5% fewer)",
        std_res.lb_calls, ulba_res.lb_calls
    );
    println!(
        "mean utilization: standard {:.1}% vs ULBA {:.1}% (ULBA higher, as in the paper)",
        std_res.mean_utilization * 100.0,
        ulba_res.mean_utilization * 100.0
    );

    let csv_rows: Vec<Vec<String>> = std_res
        .iterations
        .iter()
        .zip(&ulba_res.iterations)
        .map(|(a, b)| {
            vec![
                a.iter.to_string(),
                format!("{:.4}", a.mean_utilization),
                (a.lb_active as u8).to_string(),
                format!("{:.4}", b.mean_utilization),
                (b.lb_active as u8).to_string(),
            ]
        })
        .collect();
    write_csv(
        &out.dir,
        "fig4b_utilization",
        &["iter", "std_utilization", "std_lb", "ulba_utilization", "ulba_lb"],
        &csv_rows,
    );

    let row = |label, res| PerfRow {
        strong_rocks: Some(strong),
        ..perf_row(label, ranks, wire, res, None)
    };
    let rows = vec![row("standard", &std_res), row("ulba", &ulba_res)];
    out.write_batch_report("fig4b", sweep_wall, rows);
    Ok((std_res, ulba_res))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_cell_gain() {
        let c = Fig4aCell { ranks: 32, strong: 1, standard: 100.0, ulba: 84.0 };
        assert!((c.gain() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_fig4a_runs() {
        let dir = std::env::temp_dir().join("ulba-fig4-test");
        let json = dir.join("BENCH_fig4a.json");
        let out = StudyOutput { dir, smoke: true, json: Some(json.clone()) };
        // Tiny scale smoke: 8 PEs, 1 and 2 rocks, 1 seed — checks
        // plumbing, not magnitudes.
        let cells = run_4a(&[8], &[1, 2], &[11], &out).unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.standard > 0.0 && c.ulba > 0.0));
        // A batch study: the sweep wall once, no per-row wall.
        let report = crate::report::Report::read(&json).unwrap();
        assert!(report.smoke && report.summary.batch_wall_s > Some(0.0));
        let spans: Vec<f64> = report.rows.iter().map(|r| r.makespan_virtual_s).collect();
        let expected: Vec<f64> = cells.iter().flat_map(|c| [c.standard, c.ulba]).collect();
        assert_eq!(spans, expected);
        assert!(report.rows.iter().all(|r| r.sim_wall_s.is_none()));
        // The rock count tells the rows of one (P, policy) apart.
        let keys: Vec<_> =
            report.rows.iter().map(|r| (r.strong_rocks, r.pes, r.policy.as_str())).collect();
        assert!(keys.iter().all(|k| k.0.is_some()), "{keys:?}");
        let distinct: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:?}");
    }
}
