//! Regenerates Table II (parameter-distribution validation).
use ulba_bench::cli::Cli;

fn main() {
    let cli = Cli::from_env(&[]);
    let n = cli.instances.unwrap_or(if cli.smoke { 100 } else { 1000 });
    ulba_bench::figures::table2::run(n, 2019, &cli.results);
}
