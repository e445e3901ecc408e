//! Regenerates Fig. 4a (erosion app: standard vs ULBA, P × rock sweep).
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks 64,256` overrides the PE sweep.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};
use ulba_bench::figures::{MEDIAN_SEEDS, PAPER_PE_COUNTS};

fn main() {
    let cli = Cli::from_env(EROSION_STUDY_FLAGS);
    let seeds = cli.seeds.unwrap_or(if cli.smoke { 1 } else { 5 });
    let pes: Vec<usize> = cli.ranks.clone().unwrap_or_else(|| {
        if cli.smoke {
            vec![32, 64]
        } else {
            PAPER_PE_COUNTS.to_vec()
        }
    });
    let rocks: Vec<usize> = if cli.smoke { vec![1] } else { vec![1, 2, 3] };
    let out = cli.study_output("fig4a");
    ulba_bench::figures::fig4::run_4a(&pes, &rocks, &MEDIAN_SEEDS[..seeds], &out);
}
