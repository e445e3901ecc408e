//! Adversarial-scenario policy sweep: every generator family (slow node,
//! scatter, drifting hotspot, bursty, task graph) × LB policy × gossip
//! wire, batched on one shared worker pool, with the achieved imbalance
//! factor λ verified against its target and backend/hub-shard bit-identity
//! re-checked on a serial leg per family. Writes
//! `results/BENCH_scenarios.json`.
//!
//! `--workers N` (or `ULBA_WORKERS`) sizes the pool (default: all cores);
//! `--ranks 16384` appends the weak-scaling drift-gate legs (standard +
//! ULBA per PE count) whose makespans CI compares against
//! `results/BENCH_seed.json`; `--gossip-wire full|delta[:N]` restricts the
//! wire dimension; `--smoke` (or `ULBA_QUICK=1`) shrinks the sweep;
//! `--json <path>` overrides the report location. `--backend` is ignored:
//! the sweep is about the policies, so the grid pins both backends itself.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};
use ulba_bench::figures::scenarios;

fn main() {
    let mut flags = EROSION_STUDY_FLAGS.to_vec();
    flags.push("--gossip-wire");
    let cli = Cli::from_env(&flags);
    let gate_pes = cli.ranks.clone().unwrap_or_default();
    let json = cli.report_path("scenarios");
    let workers = cli.workers.unwrap_or(0);
    scenarios::run(workers, &gate_pes, cli.smoke, cli.gossip_wire, Some(&json));
}
