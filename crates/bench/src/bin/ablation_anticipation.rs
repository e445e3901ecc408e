//! Ablation E-A4: anticipatory (predicted-weight) partitioning.
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks 32,64` overrides the PE sweep.
use ulba_bench::output::{
    apply_cli_backend, cli_ranks, enforce_cli_flags, json_report_path, EROSION_STUDY_FLAGS,
    SMOKE_FLAGS,
};

fn main() {
    enforce_cli_flags(EROSION_STUDY_FLAGS, SMOKE_FLAGS);
    apply_cli_backend();
    let pes = cli_ranks().unwrap_or_else(|| vec![32, 64, 128]);
    ulba_bench::figures::ablations::anticipation_ablation(
        &pes,
        11,
        Some(&json_report_path("ablation_anticipation")),
    );
}
