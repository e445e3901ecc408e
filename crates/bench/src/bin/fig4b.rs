//! Regenerates Fig. 4b (average PE utilization timeline, 32 PEs, 1 rock).
//! `--backend <sequential|parallel>` selects the runtime backend;
//! `--ranks <p>` overrides the PE count.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};

fn main() {
    let cli = Cli::from_env(EROSION_STUDY_FLAGS);
    let pes = cli.ranks.as_ref().map_or(32, |pes| pes[0]);
    ulba_bench::figures::fig4::run_4b(pes, 11, &cli.study_output("fig4b"));
}
