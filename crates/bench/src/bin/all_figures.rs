//! Regenerates every paper artifact and all ablations in one run.
//! `ULBA_QUICK=1` for a fast smoke pass; `--backend <sequential|parallel>`
//! selects the runtime backend for every erosion study.
use ulba_bench::figures::{self, MEDIAN_SEEDS, PAPER_PE_COUNTS};
use ulba_bench::output::{
    apply_cli_backend, enforce_cli_flags, env_usize, quick_mode, results_dir, EROSION_STUDY_FLAGS,
    SMOKE_FLAGS,
};

fn main() {
    enforce_cli_flags(EROSION_STUDY_FLAGS, SMOKE_FLAGS);
    apply_cli_backend();
    let started = std::time::Instant::now();
    let n = env_usize("ULBA_INSTANCES", if quick_mode() { 100 } else { 1000 });
    let sa_steps = env_usize("ULBA_SA_STEPS", if quick_mode() { 5_000 } else { 20_000 });
    let seeds = env_usize("ULBA_SEEDS", if quick_mode() { 1 } else { 5 }).clamp(1, 5);
    let pes: Vec<usize> = if quick_mode() { vec![32, 64] } else { PAPER_PE_COUNTS.to_vec() };
    let rocks: Vec<usize> = if quick_mode() { vec![1] } else { vec![1, 2, 3] };

    let bench = |study: &str| results_dir().join(format!("BENCH_{study}.json"));
    figures::table2::run(n, 2019);
    figures::fig2::run(n, sa_steps as u64, 2019);
    figures::fig3::run(n, 100, 2019);
    figures::fig4::run_4a(&pes, &rocks, &MEDIAN_SEEDS[..seeds], Some(&bench("fig4a")));
    figures::fig4::run_4b(32, 11, Some(&bench("fig4b")));
    figures::fig5::run(&pes, &MEDIAN_SEEDS[..seeds.min(3)], Some(&bench("fig5")));
    figures::ablations::trigger_ablation(64, 11, Some(&bench("ablation_trigger")));
    figures::ablations::alpha_rule_ablation(&[32, 64], 11, Some(&bench("ablation_alpha")));
    figures::ablations::gossip_ablation(64, 11, Some(&bench("ablation_gossip")));
    figures::ablations::anticipation_ablation(
        &[32, 64, 128],
        11,
        Some(&bench("ablation_anticipation")),
    );
    figures::weak_scaling::run(
        &[64, 256],
        None,
        ulba_core::gossip::GossipWire::default(),
        quick_mode(),
    );

    eprintln!("\nall figures regenerated in {:.1?}", started.elapsed());
}
