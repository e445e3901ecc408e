//! Regenerates Fig. 5 (α tuning).
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks 64,256` overrides the PE sweep.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};
use ulba_bench::figures::{MEDIAN_SEEDS, PAPER_PE_COUNTS};

fn main() {
    let cli = Cli::from_env(EROSION_STUDY_FLAGS);
    let seeds = cli.seeds.unwrap_or(if cli.smoke { 1 } else { 3 });
    let pes: Vec<usize> = cli.ranks.clone().unwrap_or_else(|| {
        if cli.smoke {
            vec![32, 64]
        } else {
            PAPER_PE_COUNTS.to_vec()
        }
    });
    ulba_bench::figures::fig5::run(&pes, &MEDIAN_SEEDS[..seeds], &cli.study_output("fig5"));
}
