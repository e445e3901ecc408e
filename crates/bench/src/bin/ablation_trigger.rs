//! Ablation E-A1: LB trigger choice.
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks <p>` overrides the PE count.
use ulba_bench::output::{
    apply_cli_backend, cli_ranks, enforce_cli_flags, json_report_path, EROSION_STUDY_FLAGS,
    SMOKE_FLAGS,
};

fn main() {
    enforce_cli_flags(EROSION_STUDY_FLAGS, SMOKE_FLAGS);
    apply_cli_backend();
    let pes = cli_ranks().map_or(64, |pes| pes[0]);
    ulba_bench::figures::ablations::trigger_ablation(
        pes,
        11,
        Some(&json_report_path("ablation_trigger")),
    );
}
