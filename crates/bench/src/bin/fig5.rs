//! Regenerates Fig. 5 (α tuning).
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks 64,256` overrides the PE sweep.
use ulba_bench::figures::{MEDIAN_SEEDS, PAPER_PE_COUNTS};
use ulba_bench::output::{
    apply_cli_backend, cli_ranks, enforce_cli_flags, env_usize, json_report_path, quick_mode,
    EROSION_STUDY_FLAGS, SMOKE_FLAGS,
};

fn main() {
    enforce_cli_flags(EROSION_STUDY_FLAGS, SMOKE_FLAGS);
    apply_cli_backend();
    let seeds = env_usize("ULBA_SEEDS", if quick_mode() { 1 } else { 3 });
    let pes: Vec<usize> = cli_ranks().unwrap_or_else(|| {
        if quick_mode() {
            vec![32, 64]
        } else {
            PAPER_PE_COUNTS.to_vec()
        }
    });
    ulba_bench::figures::fig5::run(
        &pes,
        &MEDIAN_SEEDS[..seeds.clamp(1, 5)],
        Some(&json_report_path("fig5")),
    );
}
