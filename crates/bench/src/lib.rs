//! `ulba-bench` — the benchmark harness regenerating every table and figure
//! of Boulmier et al. (IEEE CLUSTER 2019), plus ablation studies and
//! Criterion microbenchmarks.
//!
//! | artifact | binary | library entry |
//! |---|---|---|
//! | Table II | `table2` | [`figures::table2::run`] |
//! | Fig. 2 | `fig2` | [`figures::fig2::run`] |
//! | Fig. 3 | `fig3` | [`figures::fig3::run`] |
//! | Fig. 4a | `fig4a` | [`figures::fig4::run_4a`] |
//! | Fig. 4b | `fig4b` | [`figures::fig4::run_4b`] |
//! | Fig. 5 | `fig5` | [`figures::fig5::run`] |
//! | E-A1…E-A4 | `ablation_*` | [`figures::ablations`] |
//! | weak scaling, P ≤ 2^20 | `weak_scaling` | [`figures::weak_scaling::run`] |
//! | batched vs one-pool-per-run | `job_server` | [`figures::job_server::run`] |
//! | adversarial-scenario sweep | `scenarios` | [`figures::scenarios::run`] |
//! | everything | `all_figures` | — |
//! | CI gates over `BENCH_*.json` | `bench_gate` | [`gates::run`] |
//!
//! The erosion-driven studies emit a schema-3 [`report::Report`]
//! (`results/BENCH_<study>.json`); [`gates`] holds every check CI runs on
//! one. Only the binaries read argv and the environment, once, through
//! [`cli::Cli`]: `ULBA_QUICK=1` (or `--smoke`) shrinks instance counts and
//! seeds; `ULBA_RESULTS=<dir>` redirects the output; `ULBA_INSTANCES`,
//! `ULBA_SEEDS`, `ULBA_SA_STEPS`, `ULBA_ALPHA_SAMPLES` override study sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod gates;
pub mod output;
pub mod report;
pub mod stats;
