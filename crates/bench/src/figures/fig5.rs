//! Figure 5 — hyper-parameter tuning of α: ULBA on the erosion application
//! with one strongly erodible rock, α ∈ {0.1 … 0.5} × P ∈ {32, 64, 128,
//! 256}.
//!
//! Paper claims: α strongly impacts performance (up to 14 % spread); no
//! significant gain above α = 0.4 for 32–128 PEs, while 256 PEs still
//! improves from 0.4 to 0.5 (larger P − N supports a larger α, Eq. (11)).

use super::{sweep, Arm};
use crate::output::{print_table, StudyOutput};
use ulba_core::policy::LbPolicy;
use ulba_erosion::{ErosionConfig, ExperimentResult};

/// The α grid of the paper's Fig. 5.
pub const ALPHAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// Spread between the worst and best time, as a percentage of the worst.
fn spread_percent(times: &[f64]) -> f64 {
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (worst - best) / worst * 100.0
}

/// Run the α sweep (one cell per P, arms `ulba-fixed:<α>` in [`ALPHAS`]
/// order), print the time-by-α table and return each cell's medians; `Err`
/// if two α values eroded different cell counts on a seed.
pub fn run(
    pe_counts: &[usize],
    seeds: &[u64],
    out: &StudyOutput,
) -> Result<Vec<Vec<ExperimentResult>>, String> {
    println!(
        "Fig. 5 — α tuning on the erosion app (1 strong rock, median of {} seed(s))",
        seeds.len()
    );
    let cells: Vec<Vec<Arm>> = pe_counts
        .iter()
        .map(|&ranks| {
            let arm = |alpha| {
                let policy = LbPolicy::ulba_fixed(alpha);
                let cfg = ErosionConfig { policy, ..ErosionConfig::scaled(ranks, 1) };
                (format!("ulba-fixed:{alpha}"), cfg)
            };
            ALPHAS.map(arm).into()
        })
        .collect();
    let medians = sweep("fig5", &cells, seeds, out)?;
    let times: Vec<Vec<f64>> =
        medians.iter().map(|m| m.iter().map(|res| res.makespan).collect()).collect();

    let mut header: Vec<String> = vec!["PEs".into()];
    header.extend(ALPHAS.iter().map(|a| format!("α={a}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = pe_counts
        .iter()
        .zip(&times)
        .map(|(ranks, times)| {
            let mut row = vec![ranks.to_string()];
            row.extend(times.iter().map(|t| format!("{t:.2}")));
            row
        })
        .collect();
    print_table("Fig. 5 — time [s] by α", &header_refs, &rows);
    for (ranks, times) in pe_counts.iter().zip(&times) {
        println!("P={ranks}: spread {:.1}% (paper: up to 14%)", spread_percent(times));
    }
    Ok(medians)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_computation() {
        assert!((spread_percent(&[100.0, 86.0]) - 14.0).abs() < 1e-12);
    }
}
