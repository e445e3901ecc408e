//! Figure 2 — probability distribution of the gain of the σ⁺ analytic LB
//! intervals over the heuristic (simulated-annealing) search, on 1000
//! Table II instances.
//!
//! Paper reference values: best gain +1.57 %, worst −5.58 %, average
//! −0.83 % (σ⁺ slightly worse than the SA optimum but close). We
//! additionally report the gain against the *exact* DP optimum, which the
//! paper could not compute.

use crate::output::{bar, print_table, write_csv};
use crate::stats::mean;
use std::path::Path;
use ulba_model::search::AnnealSearchConfig;
use ulba_model::study::{fig2_study, Fig2Point};

/// Run the Fig. 2 study and print the histogram; the CSV goes under `out`.
///
/// `Err` names the first instance on which the SA or the σ⁺ schedule lands
/// below the exact DP optimum by more than 1e-9 relative: a schedule cannot
/// beat the optimum, so one of the three evaluations is wrong.
pub fn run(
    instances: usize,
    sa_steps: u64,
    seed: u64,
    out: &Path,
) -> Result<Vec<Fig2Point>, String> {
    println!(
        "Fig. 2 — σ⁺ vs simulated-annealing schedules on {instances} Table II \
         instances (SA budget: {sa_steps} moves)"
    );
    let config = AnnealSearchConfig { steps: sa_steps, seed, probe_moves: 200 };
    let points = fig2_study(instances, seed, config);

    let gains: Vec<f64> = points.iter().map(|p| p.gain_vs_sa).collect();
    let vs_opt: Vec<f64> = points.iter().map(|p| p.gain_vs_optimal).collect();

    // The paper's histogram spans roughly −6 % … +2 %.
    let bins = crate::stats::histogram(&gains, 16, -6.0, 2.0);
    let total = gains.len() as f64;
    let rows: Vec<Vec<String>> = bins
        .iter()
        .map(|&(lo, hi, count)| {
            vec![
                format!("{lo:+.1}%..{hi:+.1}%"),
                format!("{:.3}", count as f64 / total),
                bar(count as f64 / total / 0.25, 28),
            ]
        })
        .collect();
    print_table("Gain histogram (σ⁺ vs heuristic)", &["bin", "probability", ""], &rows);

    let best = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let worst = gains.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "\nbest gain: {best:+.2}%   worst gain: {worst:+.2}%   average: {:+.2}%",
        mean(&gains)
    );
    println!("(paper: best +1.57%, worst −5.58%, average −0.83%)");
    println!(
        "vs exact DP optimum: average {:+.2}%, worst {:+.2}% (σ⁺ can never be positive here)",
        mean(&vs_opt),
        vs_opt.iter().copied().fold(f64::INFINITY, f64::min),
    );

    let csv_rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.6}", p.sa_time),
                format!("{:.6}", p.sigma_time),
                format!("{:.6}", p.optimal_time),
                format!("{:.4}", p.gain_vs_sa),
                format!("{:.4}", p.gain_vs_optimal),
            ]
        })
        .collect();
    write_csv(
        out,
        "fig2_gain_histogram",
        &["sa_time_s", "sigma_time_s", "optimal_time_s", "gain_vs_sa_pct", "gain_vs_optimal_pct"],
        &csv_rows,
    )?;
    for (i, p) in points.iter().enumerate() {
        let floor = p.optimal_time * (1.0 - 1e-9);
        if p.sa_time < floor || p.sigma_time < floor {
            return Err(format!(
                "fig2 instance {i}: SA {} s / σ⁺ {} s below the DP optimum {} s",
                p.sa_time, p.sigma_time, p.optimal_time
            ));
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fig2_run_has_paper_shape() {
        let points = run(12, 3_000, 7, &std::env::temp_dir().join("ulba-fig2-test"))
            .expect("no schedule beats the DP optimum");
        assert_eq!(points.len(), 12);
        // σ⁺ never beats the exact optimum; averages are small in magnitude.
        for p in &points {
            assert!(p.gain_vs_optimal <= 1e-9);
            assert!(p.gain_vs_sa.abs() < 50.0);
        }
    }
}
