//! Figure 5 — hyper-parameter tuning of α: ULBA on the erosion application
//! with one strongly erodible rock, α ∈ {0.1 … 0.5} × P ∈ {32, 64, 128,
//! 256}.
//!
//! Paper claims: α strongly impacts performance (up to 14 % spread); no
//! significant gain above α = 0.4 for 32–128 PEs, while 256 PEs still
//! improves from 0.4 to 0.5 (larger P − N supports a larger α, Eq. (11)).

use super::check_same_erosion;
use crate::output::{print_table, write_csv, StudyOutput};
use crate::report::{perf_row, PerfRow};
use std::time::Instant;
use ulba_core::policy::LbPolicy;
use ulba_erosion::{median_result, run_erosion_batch, ErosionConfig, ExperimentResult};

/// The α grid of the paper's Fig. 5.
pub const ALPHAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// One Fig. 5 series: makespans by α for a fixed P.
#[derive(Debug, Clone)]
pub struct Fig5Series {
    /// PE count.
    pub ranks: usize,
    /// `(α, median makespan seconds)` pairs.
    pub points: Vec<(f64, f64)>,
}

impl Fig5Series {
    /// Spread between the worst and best α, as a percentage of the worst.
    fn spread_percent(&self) -> f64 {
        let best = self.points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let worst = self.points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        (worst - best) / worst * 100.0
    }
}

/// Run the α sweep as one batch: every (P, α, seed) combination is
/// submitted to the shared job server at once, then reduced to per-(P, α)
/// medians. The schema-3 report labels its rows `ulba-fixed:<α>`. `Err` if
/// two α values eroded different cell counts on a seed.
pub fn run(
    pe_counts: &[usize],
    seeds: &[u64],
    out: &StudyOutput,
) -> Result<Vec<Fig5Series>, String> {
    println!(
        "Fig. 5 — α tuning on the erosion app (1 strong rock, median of {} seed(s))",
        seeds.len()
    );
    let specs: Vec<(usize, f64)> = pe_counts
        .iter()
        .flat_map(|&ranks| ALPHAS.iter().map(move |&alpha| (ranks, alpha)))
        .collect();
    let cfgs: Vec<ErosionConfig> = specs
        .iter()
        .flat_map(|&(ranks, alpha)| {
            seeds.iter().map(move |&seed| {
                let mut cfg = ErosionConfig::scaled(ranks, 1);
                cfg.policy = LbPolicy::ulba_fixed(alpha);
                cfg.seed = seed;
                cfg
            })
        })
        .collect();
    let started = Instant::now();
    let results = run_erosion_batch(&cfgs);
    let sweep_wall = started.elapsed().as_secs_f64();
    let eroded: Vec<u64> = results.iter().map(|r| r.total_eroded).collect();
    let labels = ALPHAS.map(|alpha| format!("ulba-fixed:{alpha}"));
    for (cell, &ranks) in eroded.chunks(ALPHAS.len() * seeds.len()).zip(pe_counts) {
        check_same_erosion(&format!("P={ranks} rocks=1"), &labels, seeds, cell)?;
    }
    let mut results = results.into_iter();
    let medians: Vec<ExperimentResult> =
        specs.iter().map(|_| median_result(results.by_ref().take(seeds.len()).collect())).collect();

    let mut series = Vec::new();
    for (chunk, spec_chunk) in medians.chunks(ALPHAS.len()).zip(specs.chunks(ALPHAS.len())) {
        let ranks = spec_chunk[0].0;
        let mut points = Vec::new();
        for (res, &(_, alpha)) in chunk.iter().zip(spec_chunk) {
            eprintln!("  [P={ranks} α={alpha}] {:.2}s ({} LB)", res.makespan, res.lb_calls);
            points.push((alpha, res.makespan));
        }
        series.push(Fig5Series { ranks, points });
    }

    let mut header: Vec<String> = vec!["PEs".into()];
    header.extend(ALPHAS.iter().map(|a| format!("α={a}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let mut row = vec![s.ranks.to_string()];
            row.extend(s.points.iter().map(|(_, t)| format!("{t:.2}")));
            row
        })
        .collect();
    print_table("Fig. 5 — time [s] by α", &header_refs, &rows);
    for s in &series {
        println!("P={}: spread {:.1}% (paper: up to 14%)", s.ranks, s.spread_percent());
    }

    let csv_rows: Vec<Vec<String>> = series
        .iter()
        .flat_map(|s| {
            s.points
                .iter()
                .map(move |(a, t)| vec![s.ranks.to_string(), format!("{a}"), format!("{t:.4}")])
        })
        .collect();
    write_csv(&out.dir, "fig5_alpha_tuning", &["pes", "alpha", "time_s"], &csv_rows);

    let (wire, strong) = (cfgs[0].gossip_wire, cfgs[0].strong_rocks);
    let rows = specs
        .iter()
        .zip(&medians)
        .map(|(&(ranks, alpha), res)| PerfRow {
            strong_rocks: Some(strong),
            ..perf_row(&format!("ulba-fixed:{alpha}"), ranks, wire, res, None)
        })
        .collect();
    out.write_batch_report("fig5", sweep_wall, rows);
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_computation() {
        let s = Fig5Series { ranks: 32, points: vec![(0.1, 100.0), (0.4, 86.0)] };
        assert!((s.spread_percent() - 14.0).abs() < 1e-12);
    }
}
