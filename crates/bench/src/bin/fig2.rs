//! Regenerates Fig. 2 (σ⁺ vs simulated-annealing schedule quality).
use ulba_bench::cli::Cli;

fn main() {
    let cli = Cli::from_env(&[]);
    let n = cli.instances.unwrap_or(if cli.smoke { 100 } else { 1000 });
    let steps = cli.sa_steps.unwrap_or(if cli.smoke { 5_000 } else { 20_000 });
    if let Err(err) = ulba_bench::figures::fig2::run(n, steps as u64, 2019, &cli.results) {
        println!("::error::{err}");
        std::process::exit(1);
    }
}
