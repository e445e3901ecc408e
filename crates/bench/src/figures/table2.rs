//! Table II — validation of the random-application-parameter distributions.
//!
//! Samples instances and reports each parameter's observed range and mean
//! against the specification, plus the derived identities (`ΔW = aP + mN`,
//! `C` in balanced-iteration units).

use crate::output::{print_table, write_csv};
use std::path::Path;
use ulba_model::instance::InstanceDistribution;

/// Run the sampler validation on `count` instances; the CSV goes under `out`.
pub fn run(count: usize, seed: u64, out: &Path) -> Result<(), String> {
    println!("Table II — sampling {count} instances and validating the distributions");
    let dist = InstanceDistribution::default();
    let instances = dist.sample_many(count, seed);

    struct Row {
        name: &'static str,
        expected: String,
        values: Vec<f64>,
    }
    let mut rows = [
        Row { name: "P", expected: "{256,512,1024,2048}".into(), values: vec![] },
        Row { name: "N/P", expected: "U(0.01, 0.2)".into(), values: vec![] },
        Row { name: "gamma", expected: "100".into(), values: vec![] },
        Row { name: "W0/P [GFLOP]", expected: "U(0.52, 11.65)".into(), values: vec![] },
        Row { name: "dW/(W0/P)", expected: "U(0.01, 0.3)".into(), values: vec![] },
        Row { name: "mN/dW (y)", expected: "U(0.8, 1.0)".into(), values: vec![] },
        Row { name: "alpha", expected: "U(0, 1)".into(), values: vec![] },
        Row { name: "C/t_bal (z)", expected: "U(0.1, 3.0)".into(), values: vec![] },
    ];
    for inst in &instances {
        let p = inst.params;
        rows[0].values.push(p.p as f64);
        rows[1].values.push(p.n as f64 / p.p as f64);
        rows[2].values.push(p.gamma as f64);
        rows[3].values.push(p.w0 / p.p as f64 / 1.0e9);
        rows[4].values.push(p.delta_w() / (p.w0 / p.p as f64));
        rows[5].values.push(p.m * p.n as f64 / p.delta_w());
        rows[6].values.push(inst.alpha);
        rows[7].values.push(p.c / p.balanced_iteration_time());
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let s = crate::stats::BoxStats::from(&r.values);
            vec![
                r.name.to_string(),
                r.expected.clone(),
                format!("{:.3}", s.min),
                format!("{:.3}", s.mean),
                format!("{:.3}", s.max),
            ]
        })
        .collect();
    print_table(
        "Table II parameter validation",
        &["parameter", "specified", "observed min", "mean", "max"],
        &table,
    );

    // The ΔW decomposition identity must hold for every sample.
    let max_residual = instances
        .iter()
        .map(|i| {
            let p = i.params;
            ((p.a * p.p as f64 + p.m * p.n as f64) - p.delta_w()).abs() / p.delta_w()
        })
        .fold(0.0f64, f64::max);
    println!("\nmax |aP + mN − ΔW| / ΔW over all samples: {max_residual:.2e} (identity check)");

    write_csv(
        out,
        "table2_distributions",
        &["parameter", "specified", "observed_min", "observed_mean", "observed_max"],
        &table,
    )
    .map(drop)
}

#[cfg(test)]
mod tests {
    #[test]
    fn table2_runs() {
        super::run(50, 5, &std::env::temp_dir().join("ulba-table2-test")).unwrap();
    }
}
