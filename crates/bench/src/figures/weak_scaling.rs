//! Weak-scaling study of the erosion application across execution backends.
//!
//! The paper evaluates `P ≤ 256`; the related work it builds on (two-level
//! dynamic LB, optimal-LB-criteria studies) shows that trigger and gossip
//! behaviour changes qualitatively in the thousands-of-PEs regime. This
//! study keeps the per-PE domain fixed (weak scaling) and sweeps
//! `P ∈ {64, 256, 1024, 4096}` under the standard method and ULBA, on a
//! selectable runtime backend — ranks are suspended futures, not threads,
//! which is what makes `P = 4096` (and `P = 16384`, and with the sparse WIR
//! database `P = 65536`) tractable.
//!
//! Reported per (P, policy): virtual makespan, LB calls, mean PE
//! utilization, load-imbalance statistics (max/mean busy ratio, idle
//! fraction), the *real* wall-clock cost of simulating the run (the
//! backend comparison axis), and the memory story — aggregate WIR-database
//! entries plus the process's peak RSS — that gates the `P = 65536` CI
//! leg. Every sweep starts with one explicit *untimed* single-iteration
//! warmup run, so the process's one-time heap-growth/page-zeroing cost is
//! not booked against the first timed leg's `sim_wall_s`.
//! `ulba-bench weak_scaling` writes one schema-3
//! [`Report`](crate::report::Report) covering all backends of an invocation
//! (the CI perf-trajectory artifacts `BENCH_weak_scaling.json` and
//! `BENCH_p65536.json`).

use crate::output::print_table;
use crate::report::{perf_row, PerfRow};
use std::time::Instant;
use ulba_core::gossip::{GossipMode, GossipWire};
use ulba_core::policy::LbPolicy;
use ulba_erosion::{run_erosion, ErosionConfig};
use ulba_runtime::Backend;

/// Default PE sweep of the study.
pub const WEAK_SCALING_PE_COUNTS: [usize; 4] = [64, 256, 1024, 4096];

/// Weak-scaling configuration: a fixed per-PE domain small enough that
/// `P = 4096` stays tractable, with the overloaded-PE *fraction* held
/// roughly constant across `P` (one strongly erodible rock per 64 PEs) so
/// the ULBA regime is comparable along the sweep.
fn config_for(ranks: usize, policy: LbPolicy, smoke: bool) -> ErosionConfig {
    let mut cfg = ErosionConfig::tiny(ranks, (ranks / 64).max(1).min(ranks));
    cfg.policy = policy;
    if smoke {
        // CI-sized: a few minutes even at P = 4096 on the sequential
        // backend. Ring gossip keeps snapshot sizes O(iterations) instead
        // of O(P) over a short run.
        cfg.cols_per_pe = 32;
        cfg.height = 32;
        cfg.rock_radius = 7;
        cfg.iterations = 10;
        cfg.gossip = GossipMode::Ring;
    } else {
        cfg.iterations = 100;
    }
    cfg
}

/// The legs of the study, `(policy label, P, config)`: per PE count the
/// standard method and ULBA (α = 0.4) on the default gossip wire.
fn legs(pe_counts: &[usize], smoke: bool) -> Vec<(&'static str, usize, ErosionConfig)> {
    let policies = [("standard", LbPolicy::Standard), ("ulba", LbPolicy::ulba_fixed(0.4))];
    pe_counts
        .iter()
        .flat_map(|&ranks| {
            policies.map(|(label, policy)| (label, ranks, config_for(ranks, policy, smoke)))
        })
        .collect()
}

/// Run the weak-scaling sweep on `backend` with
/// the given gossip wire format; one row per leg.
pub fn run(pe_counts: &[usize], backend: Backend, wire: GossipWire, smoke: bool) -> Vec<PerfRow> {
    println!(
        "Weak scaling — erosion app, fixed per-PE domain, standard vs ULBA \
         (α = 0.4), backend: {backend}, gossip wire: {wire}{}",
        if smoke { ", smoke" } else { "" }
    );
    let mut legs = legs(pe_counts, smoke);
    for (_, _, cfg) in &mut legs {
        cfg.backend = Some(backend);
        cfg.gossip_wire = wire;
    }
    // Explicit untimed warmup: the first simulation in a process pays a
    // one-time heap-growth + page-zeroing cost (hundreds of seconds at the
    // largest P) that used to land entirely on the first timed leg's
    // `sim_wall_s`. A single-iteration run of the first configuration
    // faults in the allocator before any timer starts.
    if let Some((_, ranks, cfg)) = legs.first() {
        let mut warm = cfg.clone();
        warm.iterations = 1;
        eprintln!("  [warmup P={ranks}] one untimed iteration before the timed legs");
        let _ = run_erosion(&warm);
    }
    let mut rows = Vec::new();
    for (label, ranks, cfg) in &legs {
        let started = Instant::now();
        let res = run_erosion(cfg);
        let sim_secs = started.elapsed().as_secs_f64();
        let row = perf_row(label, *ranks, wire, &res, Some(sim_secs));
        eprintln!(
            "  [P={ranks} {label} {backend} S={}] makespan {:.2}s, {} LB calls, \
             util {:.1}%, λ {:.3}, {} db entries, peak RSS {}, simulated in {sim_secs:.2}s",
            row.hub_shards,
            row.makespan_virtual_s,
            row.lb_calls,
            row.mean_utilization * 100.0,
            row.busy_max_over_mean,
            row.db_entries_total,
            row.peak_rss_bytes.map_or_else(
                || "n/a".into(),
                |b| format!("{:.0} MiB", b as f64 / (1 << 20) as f64)
            ),
        );
        rows.push(row);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pes.to_string(),
                r.policy.clone(),
                r.hub_shards.to_string(),
                format!("{:.2}", r.makespan_virtual_s),
                r.lb_calls.to_string(),
                format!("{:.1}%", r.mean_utilization * 100.0),
                format!("{:.3}", r.busy_max_over_mean),
                r.db_entries_total.to_string(),
                format!("{:.2}", r.sim_wall_s.unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    print_table(
        &format!("Weak scaling — backend {backend}, wire {wire}"),
        &[
            "PEs",
            "policy",
            "hub shards",
            "time [s]",
            "LB calls",
            "utilization",
            "λ",
            "db entries",
            "sim wall [s]",
        ],
        &table,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    #[test]
    fn smoke_rows_are_what_perf_row_gives_and_the_report_round_trips() {
        let rows = run(&[8], Backend::Sequential, GossipWire::default(), true);
        assert_eq!(rows.len(), 2, "standard + ULBA");
        for (row, (label, ranks, mut cfg)) in rows.iter().zip(legs(&[8], true)) {
            cfg.backend = Some(Backend::Sequential);
            let expected =
                perf_row(label, ranks, cfg.gossip_wire, &run_erosion(&cfg), row.sim_wall_s);
            // The RSS probe is monotone over the process, not a property of the run.
            assert_eq!(*row, PerfRow { peak_rss_bytes: row.peak_rss_bytes, ..expected });
            assert!(
                row.sim_wall_s.is_some_and(|s| s > 0.0),
                "serial studies keep the per-run wall"
            );
        }
        let report = Report { study: "weak_scaling".into(), smoke: true, batch_wall_s: None, rows };
        assert_eq!(Report::parse(&report.to_json()), Ok(report));
    }
}
