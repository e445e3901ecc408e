//! Figure 4 — the erosion-application study.
//!
//! * **4a**: median running time over 5 seeds, standard(+Zhai) vs ULBA
//!   (α = 0.4), for P ∈ {32, 64, 128, 256} × {1, 2, 3} strongly erodible
//!   rocks. Paper: ULBA wins everywhere except 32 PEs / 3 rocks (equal),
//!   with gains up to 16 %.
//! * **4b**: per-iteration average PE utilization for 32 PEs / 1 rock, both
//!   methods; ULBA shows fewer utilization drops and 62.5 % fewer LB calls.

use super::{gain_pct, sweep, Arm};
use crate::output::{bar, print_table, write_csv, StudyOutput};
use ulba_core::policy::LbPolicy;
use ulba_erosion::{ErosionConfig, ExperimentResult};

/// The two arms of a Fig. 4 cell: standard and ULBA (α = 0.4).
fn arms(ranks: usize, strong: usize) -> Vec<Arm> {
    [("standard", LbPolicy::Standard), ("ulba", LbPolicy::ulba_fixed(0.4))]
        .map(|(label, policy)| {
            (label.into(), ErosionConfig { policy, ..ErosionConfig::scaled(ranks, strong) })
        })
        .into()
}

/// Run the Fig. 4a sweep (cells in rocks-major order), print the
/// median-time table and return each cell's `[standard, ulba]` medians;
/// `Err` if the two policies eroded different cell counts on a seed.
pub fn run_4a(
    pe_counts: &[usize],
    rock_counts: &[usize],
    seeds: &[u64],
    out: &StudyOutput,
) -> Result<Vec<Vec<ExperimentResult>>, String> {
    println!(
        "Fig. 4a — erosion app: standard(+Zhai) vs ULBA (α = 0.4), median of \
         {} seed(s)",
        seeds.len()
    );
    let cells: Vec<Vec<Arm>> = rock_counts
        .iter()
        .flat_map(|&strong| pe_counts.iter().map(move |&ranks| arms(ranks, strong)))
        .collect();
    let medians = sweep("fig4a", &cells, seeds, out)?;
    let gains: Vec<f64> = medians.iter().map(|m| gain_pct(m[0].makespan, m[1].makespan)).collect();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(&medians)
        .zip(&gains)
        .map(|((arms, m), gain)| {
            vec![
                arms[0].1.strong_rocks.to_string(),
                arms[0].1.ranks.to_string(),
                format!("{:.2}", m[0].makespan),
                format!("{:.2}", m[1].makespan),
                format!("{gain:+.1}%"),
            ]
        })
        .collect();
    print_table(
        "Fig. 4a — median time [s]",
        &["erodible rocks", "PEs", "standard", "ULBA", "gain"],
        &rows,
    );
    let max_gain = gains.into_iter().fold(f64::NEG_INFINITY, f64::max);
    println!("\nmaximum gain: {max_gain:+.1}% (paper: up to 16%)");
    Ok(medians)
}

/// LB calls ULBA saves over the standard method, in percent of the
/// standard method's (negative when ULBA makes more).
fn lb_call_reduction(standard: usize, ulba: usize) -> f64 {
    if standard > 0 {
        100.0 * (standard as f64 - ulba as f64) / standard as f64
    } else {
        0.0
    }
}

/// Run the Fig. 4b utilization study (32 PEs, 1 strong rock by default) as
/// one sweep cell and print the per-iteration utilization of both arms,
/// also written to `fig4b_utilization.csv`; `Err` if they eroded
/// different cell counts.
pub fn run_4b(
    ranks: usize,
    seed: u64,
    out: &StudyOutput,
) -> Result<(ExperimentResult, ExperimentResult), String> {
    println!("Fig. 4b — average PE utilization, {ranks} PEs, 1 strongly erodible rock");
    let mut medians = sweep("fig4b", &[arms(ranks, 1)], &[seed], out)?.remove(0);
    let ulba_res = medians.pop().expect("two arms");
    let std_res = medians.pop().expect("two arms");

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
    println!(
        "\nLB calls: standard {} vs ULBA {} ({:.1}% fewer; paper: 62.5% fewer)",
        std_res.lb_calls,
        ulba_res.lb_calls,
        lb_call_reduction(std_res.lb_calls, ulba_res.lb_calls)
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
    )?;
    Ok((std_res, ulba_res))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_ulba_lb_calls_are_a_negative_reduction() {
        // Regression: `3 - 5` in `usize` panicked in debug and wrapped in
        // release.
        assert_eq!(format!("{:.1}", lb_call_reduction(3, 5)), "-66.7");
        assert_eq!(format!("{:.1}", lb_call_reduction(8, 3)), "62.5");
        assert_eq!(lb_call_reduction(0, 2), 0.0);
    }

    #[test]
    fn tiny_fig4a_runs() {
        let dir = std::env::temp_dir().join("ulba-fig4-test");
        let json = dir.join("BENCH_fig4a.json");
        let out = StudyOutput { dir, smoke: true, json: json.clone() };
        // Tiny scale smoke: 8 PEs, 1 and 2 rocks, 1 seed — checks
        // plumbing, not magnitudes.
        let cells = run_4a(&[8], &[1, 2], &[11], &out).unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().flatten().all(|res| res.makespan > 0.0));
        // A batch study: the sweep wall once, no per-row wall.
        let report = crate::report::Report::read(&json).unwrap();
        assert!(report.smoke && report.batch_wall_s > Some(0.0));
        let spans: Vec<f64> = report.rows.iter().map(|r| r.makespan_virtual_s).collect();
        let expected: Vec<f64> = cells.iter().flatten().map(|res| res.makespan).collect();
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
