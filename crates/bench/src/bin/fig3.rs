//! Regenerates Fig. 3 (ULBA gain by overloading percentage).
use ulba_bench::cli::Cli;

fn main() {
    let cli = Cli::from_env(&[]);
    let n = cli.instances.unwrap_or(if cli.smoke { 100 } else { 1000 });
    let alphas = cli.alpha_samples.unwrap_or(100);
    ulba_bench::figures::fig3::run(n, alphas as u32, 2019, &cli.results);
}
