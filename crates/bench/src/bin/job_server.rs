//! Job-server batching study: a sweep of ≥ 8 erosion experiments run
//! serially (one worker pool per run) and again as a single batch on one
//! shared pool, with bit-identity asserted between the two passes and the
//! wall-time comparison recorded in `results/BENCH_job_server.json`.
//!
//! `--workers N` (or `ULBA_WORKERS`) sizes both pools (default: all
//! cores); `--ranks 16384` appends the weak-scaling drift-gate legs
//! (standard + ULBA per PE count) whose makespans CI compares against
//! `results/BENCH_seed.json`; `--smoke` (or `ULBA_QUICK=1`) shrinks the
//! base sweep; `--json <path>` overrides the report location. `--backend`
//! is ignored: the comparison is about the pool, so every job pins the
//! parallel backend.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};
use ulba_bench::figures::job_server;

fn main() {
    let cli = Cli::from_env(EROSION_STUDY_FLAGS);
    let gate_pes = cli.ranks.clone().unwrap_or_default();
    let json = cli.report_path("job_server");
    job_server::run(cli.workers.unwrap_or(0), &gate_pes, cli.smoke, Some(&json));
}
