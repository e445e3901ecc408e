//! Regenerates Fig. 4a (erosion app: standard vs ULBA, P × rock sweep).
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
    let seeds = env_usize("ULBA_SEEDS", if quick_mode() { 1 } else { 5 });
    let pes: Vec<usize> = cli_ranks().unwrap_or_else(|| {
        if quick_mode() {
            vec![32, 64]
        } else {
            PAPER_PE_COUNTS.to_vec()
        }
    });
    let rocks: Vec<usize> = if quick_mode() { vec![1] } else { vec![1, 2, 3] };
    ulba_bench::figures::fig4::run_4a(
        &pes,
        &rocks,
        &MEDIAN_SEEDS[..seeds.clamp(1, 5)],
        Some(&json_report_path("fig4a")),
    );
}
