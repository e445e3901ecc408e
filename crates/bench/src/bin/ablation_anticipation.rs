//! Ablation E-A4: anticipatory (predicted-weight) partitioning.
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks 32,64` overrides the PE sweep.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};

fn main() {
    let cli = Cli::from_env(EROSION_STUDY_FLAGS);
    let pes = cli.ranks.clone().unwrap_or_else(|| vec![32, 64, 128]);
    let out = cli.study_output("ablation_anticipation");
    ulba_bench::figures::ablations::anticipation_ablation(&pes, 11, &out);
}
