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
//! CSV: `results/weak_scaling_<backend>.csv` — one file per backend,
//! so runs on different backends can be compared side by side instead of
//! overwriting each other. [`write_json_report`] additionally emits one
//! machine-readable JSON document (schema 3) covering all backends of an
//! invocation (the CI perf-trajectory artifacts `BENCH_weak_scaling.json`
//! and `BENCH_p65536.json`).

use crate::output::{peak_rss_bytes, print_table, write_csv, write_schema3_report, PerfRow};
use std::path::{Path, PathBuf};
use std::time::Instant;
use ulba_core::gossip::{GossipMode, GossipWire};
use ulba_core::policy::LbPolicy;
use ulba_erosion::{run_erosion, ErosionConfig};
use ulba_runtime::Backend;

/// Default PE sweep of the study.
pub const WEAK_SCALING_PE_COUNTS: [usize; 4] = [64, 256, 1024, 4096];

/// One (P, policy, backend) measurement.
#[derive(Debug, Clone)]
pub struct WeakScalingRow {
    /// PE count.
    pub ranks: usize,
    /// Policy label (`standard` / `ulba`).
    pub policy: &'static str,
    /// The backend that drove the run (`sequential` / `parallel`) — what
    /// the requested one (or `None`) resolved to.
    pub backend: String,
    /// Resolved leaf shard count of the rendezvous hub the run used
    /// (`--hub-shards` / `ULBA_HUB_SHARDS`; default `min(workers, 64)`).
    pub hub_shards: usize,
    /// Gossip wire-format label (`full` / `delta:<N>`).
    pub gossip_wire: String,
    /// Virtual makespan in seconds.
    pub makespan: f64,
    /// Number of LB steps performed.
    pub lb_calls: usize,
    /// Mean PE utilization over the run.
    pub mean_utilization: f64,
    /// Load-imbalance factor λ: max busy time over mean busy time.
    pub busy_max_over_mean: f64,
    /// Fraction of total accounted virtual time spent idle (waiting).
    pub idle_fraction: f64,
    /// Real wall-clock seconds spent simulating the run.
    pub sim_secs: f64,
    /// Aggregate WIR-database entries resident at run end, summed over
    /// ranks (the sparse database's footprint; dense held `P²`).
    pub db_entries_total: u64,
    /// Process peak RSS in bytes after this row (Linux `VmHWM`; `None`
    /// where the platform lacks the probe). Monotone across rows of one
    /// invocation.
    pub peak_rss_bytes: Option<u64>,
}

/// Weak-scaling configuration: a fixed per-PE domain small enough that
/// `P = 4096` stays tractable, with the overloaded-PE *fraction* held
/// roughly constant across `P` (one strongly erodible rock per 64 PEs) so
/// the ULBA regime is comparable along the sweep.
pub(crate) fn config_for(
    ranks: usize,
    policy: LbPolicy,
    wire: GossipWire,
    smoke: bool,
) -> ErosionConfig {
    let mut cfg = ErosionConfig::tiny(ranks, (ranks / 64).max(1).min(ranks));
    cfg.policy = policy;
    cfg.gossip_wire = wire;
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

/// Run the weak-scaling sweep on `backend` (`None` = runtime default) with
/// the given gossip wire format.
pub fn run(
    pe_counts: &[usize],
    backend: Option<Backend>,
    wire: GossipWire,
    smoke: bool,
) -> Vec<WeakScalingRow> {
    let backend_label = backend.map_or_else(|| "default".to_string(), |b| b.to_string());
    println!(
        "Weak scaling — erosion app, fixed per-PE domain, standard vs ULBA \
         (α = 0.4), backend: {backend_label}, gossip wire: {wire}{}",
        if smoke { ", smoke" } else { "" }
    );
    // Explicit untimed warmup: the first simulation in a process pays a
    // one-time heap-growth + page-zeroing cost (hundreds of seconds at the
    // largest P) that used to land entirely on the first timed leg's
    // `sim_wall_s`. A single-iteration run of the first configuration
    // faults in the allocator before any timer starts.
    if let Some(&ranks) = pe_counts.first() {
        let mut warm = config_for(ranks, LbPolicy::Standard, wire, smoke);
        warm.backend = backend;
        warm.iterations = 1;
        eprintln!("  [warmup P={ranks}] one untimed iteration before the timed legs");
        let _ = run_erosion(&warm);
    }
    let mut rows = Vec::new();
    for &ranks in pe_counts {
        for (label, policy) in
            [("standard", LbPolicy::Standard), ("ulba", LbPolicy::ulba_fixed(0.4))]
        {
            let mut cfg = config_for(ranks, policy, wire, smoke);
            cfg.backend = backend;
            let started = Instant::now();
            let res = run_erosion(&cfg);
            let sim_secs = started.elapsed().as_secs_f64();
            let busy: Vec<f64> = res.rank_metrics.iter().map(|m| m.busy).collect();
            let busy_mean = busy.iter().sum::<f64>() / busy.len() as f64;
            let busy_max_over_mean = if busy_mean > 0.0 {
                busy.iter().copied().fold(0.0f64, f64::max) / busy_mean
            } else {
                1.0
            };
            let total: f64 = res.rank_metrics.iter().map(|m| m.total()).sum();
            let idle_fraction = if total > 0.0 {
                res.rank_metrics.iter().map(|m| m.idle).sum::<f64>() / total
            } else {
                0.0
            };
            let peak_rss = peak_rss_bytes();
            eprintln!(
                "  [P={ranks} {label} {backend_label} S={}] makespan {:.2}s, {} LB calls, \
                 util {:.1}%, λ {:.3}, {} db entries, peak RSS {}, simulated in {sim_secs:.2}s",
                res.hub_shards,
                res.makespan,
                res.lb_calls,
                res.mean_utilization * 100.0,
                busy_max_over_mean,
                res.db_entries_total,
                peak_rss.map_or_else(
                    || "n/a".into(),
                    |b| format!("{:.0} MiB", b as f64 / (1 << 20) as f64)
                ),
            );
            rows.push(WeakScalingRow {
                ranks,
                policy: label,
                backend: res.backend.to_string(),
                hub_shards: res.hub_shards,
                gossip_wire: wire.to_string(),
                makespan: res.makespan,
                lb_calls: res.lb_calls,
                mean_utilization: res.mean_utilization,
                busy_max_over_mean,
                idle_fraction,
                sim_secs,
                db_entries_total: res.db_entries_total,
                peak_rss_bytes: peak_rss,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.ranks.to_string(),
                r.policy.to_string(),
                r.hub_shards.to_string(),
                format!("{:.2}", r.makespan),
                r.lb_calls.to_string(),
                format!("{:.1}%", r.mean_utilization * 100.0),
                format!("{:.3}", r.busy_max_over_mean),
                r.db_entries_total.to_string(),
                format!("{:.2}", r.sim_secs),
            ]
        })
        .collect();
    print_table(
        &format!("Weak scaling — backend {backend_label}, wire {wire}"),
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
    let csv_rows: Vec<Vec<String>> = rows.iter().map(csv_row).collect();
    let path = write_csv(&format!("weak_scaling_{backend_label}"), CSV_HEADER, &csv_rows);
    println!("wrote {}", path.display());
    rows
}

const CSV_HEADER: &[&str] = &[
    "pes",
    "policy",
    "backend",
    "hub_shards",
    "gossip_wire",
    "makespan_s",
    "lb_calls",
    "mean_utilization",
    "busy_max_over_mean",
    "idle_fraction",
    "sim_wall_s",
    "db_entries_total",
    "peak_rss_bytes",
];

fn csv_row(r: &WeakScalingRow) -> Vec<String> {
    vec![
        r.ranks.to_string(),
        r.policy.to_string(),
        r.backend.clone(),
        r.hub_shards.to_string(),
        r.gossip_wire.clone(),
        format!("{}", r.makespan),
        r.lb_calls.to_string(),
        format!("{}", r.mean_utilization),
        format!("{}", r.busy_max_over_mean),
        format!("{}", r.idle_fraction),
        format!("{}", r.sim_secs),
        r.db_entries_total.to_string(),
        r.peak_rss_bytes.map_or_else(String::new, |b| b.to_string()),
    ]
}

/// Serialize the collected rows as the machine-readable perf-trajectory
/// report (`BENCH_weak_scaling.json` / `BENCH_p65536.json` in CI): per
/// (backend, P, policy) the real wall-clock simulation cost, the virtual
/// makespan, the imbalance statistics, and the memory story (aggregate
/// database entries + peak RSS). Returns the written path.
///
/// Schema 3 = schema 2 plus `gossip_wire`, `db_entries_total` and
/// `peak_rss_bytes` (nullable).
pub fn write_json_report(rows: &[WeakScalingRow], smoke: bool, path: &Path) -> PathBuf {
    let rows: Vec<PerfRow> = rows
        .iter()
        .map(|r| PerfRow {
            backend: r.backend.clone(),
            pes: r.ranks,
            policy: r.policy.to_string(),
            hub_shards: r.hub_shards,
            gossip_wire: r.gossip_wire.clone(),
            sim_wall_s: r.sim_secs,
            makespan_virtual_s: r.makespan,
            lb_calls: r.lb_calls,
            mean_utilization: r.mean_utilization,
            busy_max_over_mean: r.busy_max_over_mean,
            idle_fraction: r.idle_fraction,
            db_entries_total: r.db_entries_total,
            peak_rss_bytes: r.peak_rss_bytes,
            lambda_target: None,
            lambda_achieved: None,
        })
        .collect();
    write_schema3_report("weak_scaling", smoke, &[], &rows, path)
}
