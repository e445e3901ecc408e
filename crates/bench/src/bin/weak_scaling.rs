//! Weak-scaling study: erosion at P ∈ {64, 256, 1024, 4096}, standard vs
//! ULBA, on selectable runtime backends.
//!
//! `--backend sequential` or `--backend parallel` selects who polls the
//! rank futures (parallel uses all cores, tunable with `--workers N`).
//! `--backends sequential,parallel` runs the sweep once per backend in a
//! single invocation so their simulation wall-clocks can be compared;
//! `--ranks 16384` (or `--ranks 65536`, opened by the sparse WIR database)
//! narrows the sweep to one PE count; `--hub-shards N` pins the
//! rendezvous-hub shard count (default: `min(workers, 64)`; the CI
//! perf-trajectory job sweeps `1` vs default); `--gossip-wire full|delta`
//! (or `delta:<N>` for an anti-entropy period of `N` iterations) selects
//! the gossip payload format — `full` matches the committed seed baselines
//! bit-for-bit, `delta` is what the `P = 65536` CI leg runs; `--smoke` (or
//! `ULBA_QUICK=1`) shrinks the domain for CI; `--json <path>` additionally
//! writes the machine-readable schema-3 perf-trajectory report covering
//! every backend of the invocation (CI uploads `BENCH_weak_scaling.json`
//! and `BENCH_p65536.json`).
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};
use ulba_bench::figures::weak_scaling::{self, WEAK_SCALING_PE_COUNTS};
use ulba_bench::report::{Report, Summary};

fn main() {
    let mut flags = EROSION_STUDY_FLAGS.to_vec();
    flags.extend(["--backends", "--gossip-wire"]);
    let cli = Cli::from_env(&flags);
    // --backend is also the process default (ULBA_BACKEND); the per-run
    // backend below still wins.
    let backends: Vec<Option<ulba_runtime::Backend>> = match &cli.backends {
        Some(list) => list.iter().copied().map(Some).collect(),
        None => vec![cli.backend],
    };
    let pes = cli.ranks.clone().unwrap_or_else(|| WEAK_SCALING_PE_COUNTS.to_vec());
    let wire = cli.gossip_wire.unwrap_or_default();
    let mut rows = Vec::new();
    for backend in backends {
        rows.extend(weak_scaling::run(&pes, backend, wire, cli.smoke, &cli.results));
    }
    if let Some(path) = &cli.json {
        let summary = Summary::default();
        Report { study: "weak_scaling".into(), smoke: cli.smoke, summary, rows }.write(path);
    }
}
