//! Ablation E-A2: α rule (fixed vs dynamic z-scaled vs robust detection).
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks 32,64` overrides the PE sweep.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};

fn main() {
    let cli = Cli::from_env(EROSION_STUDY_FLAGS);
    let pes = cli.ranks.clone().unwrap_or_else(|| vec![32, 64]);
    let out = cli.study_output("ablation_alpha");
    ulba_bench::figures::ablations::alpha_rule_ablation(&pes, 11, &out);
}
