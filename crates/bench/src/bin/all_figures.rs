//! Regenerates every paper artifact and all ablations in one run.
//! `ULBA_QUICK=1` for a fast smoke pass; `--backend <sequential|parallel>`
//! selects the runtime backend for every erosion study.
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};
use ulba_bench::figures::{self, MEDIAN_SEEDS, PAPER_PE_COUNTS};

fn main() {
    let cli = Cli::from_env(EROSION_STUDY_FLAGS);
    let started = std::time::Instant::now();
    let n = cli.instances.unwrap_or(if cli.smoke { 100 } else { 1000 });
    let sa_steps = cli.sa_steps.unwrap_or(if cli.smoke { 5_000 } else { 20_000 });
    let seeds = cli.seeds.unwrap_or(if cli.smoke { 1 } else { 5 });
    let pes: Vec<usize> = if cli.smoke { vec![32, 64] } else { PAPER_PE_COUNTS.to_vec() };
    let rocks: Vec<usize> = if cli.smoke { vec![1] } else { vec![1, 2, 3] };

    // Every study writes its own `BENCH_<study>.json`, whatever `--json` says.
    let out = |study: &str| Cli { json: None, ..cli.clone() }.study_output(study);
    figures::table2::run(n, 2019, &cli.results);
    figures::fig2::run(n, sa_steps as u64, 2019, &cli.results).expect("fig2 in-run check");
    figures::fig3::run(n, 100, 2019, &cli.results);
    figures::fig4::run_4a(&pes, &rocks, &MEDIAN_SEEDS[..seeds], &out("fig4a"));
    figures::fig4::run_4b(32, 11, &out("fig4b"));
    figures::fig5::run(&pes, &MEDIAN_SEEDS[..seeds.min(3)], &out("fig5"));
    figures::ablations::trigger_ablation(64, 11, &out("ablation_trigger"));
    figures::ablations::alpha_rule_ablation(&[32, 64], 11, &out("ablation_alpha"));
    figures::ablations::gossip_ablation(64, 11, &out("ablation_gossip"));
    figures::ablations::anticipation_ablation(&[32, 64, 128], 11, &out("ablation_anticipation"));
    let wire = ulba_core::gossip::GossipWire::default();
    figures::weak_scaling::run(&[64, 256], None, wire, cli.smoke, &cli.results);

    eprintln!("\nall figures regenerated in {:.1?}", started.elapsed());
}
