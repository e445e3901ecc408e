//! Figure 3 — box plots of the theoretical performance gain of ULBA (best α
//! out of 100 sampled values) over the standard LB method, as a function of
//! the percentage of overloading PEs, on 1000 Table II instances per bucket.
//!
//! Paper claims: ULBA is never worse (gain ≥ 0 because α = 0 reproduces the
//! standard method), gains reach ~21 % and shrink as the overloading
//! percentage grows; the average best α decreases from ~0.93 to ~0.08.

use crate::output::{print_table, write_csv};
use std::path::Path;
use ulba_model::study::{fig3_study, Fig3Bucket};

/// Run the Fig. 3 sweep and print the per-bucket box statistics; the CSV
/// goes under `out`.
pub fn run(
    instances_per_bucket: usize,
    alpha_samples: u32,
    seed: u64,
    out: &Path,
) -> Result<Vec<Fig3Bucket>, String> {
    println!(
        "Fig. 3 — standard LB vs ULBA gain by overloading percentage \
         ({instances_per_bucket} instances × {alpha_samples} α values per bucket)"
    );
    let buckets = fig3_study(instances_per_bucket, alpha_samples, seed);

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for b in &buckets {
        let stats = crate::stats::BoxStats::from(&b.sorted_gains());
        rows.push(vec![
            format!("{:.1}%", b.overloading_percent),
            format!("{:+.2}%", stats.min),
            format!("{:+.2}%", stats.q1),
            format!("{:+.2}%", stats.median),
            format!("{:+.2}%", stats.q3),
            format!("{:+.2}%", stats.max),
            format!("{:.2}", b.mean_best_alpha()),
        ]);
        csv_rows.push(vec![
            format!("{:.1}", b.overloading_percent),
            format!("{:.4}", stats.min),
            format!("{:.4}", stats.q1),
            format!("{:.4}", stats.median),
            format!("{:.4}", stats.q3),
            format!("{:.4}", stats.max),
            format!("{:.4}", stats.mean),
            format!("{:.4}", b.mean_best_alpha()),
        ]);
    }
    print_table(
        "ULBA gain over standard by % overloading PEs",
        &["overloading", "min", "q1", "median", "q3", "max", "mean α*"],
        &rows,
    );
    let max_gain = buckets
        .iter()
        .flat_map(|b| b.points.iter().map(|p| p.gain))
        .fold(f64::NEG_INFINITY, f64::max);
    println!("\nmaximum gain observed: {max_gain:+.1}% (paper: up to 21%)");
    println!("(α* decreasing with the overloading percentage reproduces the paper's trend)");

    write_csv(
        out,
        "fig3_gain_by_overloading",
        &[
            "overloading_pct",
            "gain_min",
            "gain_q1",
            "gain_median",
            "gain_q3",
            "gain_max",
            "gain_mean",
            "mean_best_alpha",
        ],
        &csv_rows,
    )?;
    Ok(buckets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fig3_run_shape() {
        let buckets = run(10, 11, 3, &std::env::temp_dir().join("ulba-fig3-test")).unwrap();
        assert_eq!(buckets.len(), 10);
        for b in &buckets {
            // Never worse than standard (α = 0 fallback).
            assert!(b.sorted_gains()[0] >= -1e-9);
        }
        // Mean best α at 1 % overloading exceeds mean best α at 20 %.
        assert!(
            buckets[0].mean_best_alpha() > buckets[9].mean_best_alpha(),
            "α* must decrease with the overloading fraction"
        );
    }
}
