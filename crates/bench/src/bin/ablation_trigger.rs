//! Ablation E-A1: LB trigger choice.
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks <p>` overrides the PE count.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};

fn main() {
    let cli = Cli::from_env(EROSION_STUDY_FLAGS);
    let pes = cli.ranks.as_ref().map_or(64, |pes| pes[0]);
    let out = cli.study_output("ablation_trigger");
    ulba_bench::figures::ablations::trigger_ablation(pes, 11, &out);
}
