//! The repo's benchmark. `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload in this process and prints one JSON
//! result line; without `--workload` it runs the whole suite in child
//! processes. See README.md.

mod cli;
mod drives;
mod json;
mod metrics;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cli::USAGE);
        return ExitCode::SUCCESS;
    }
    let args = match cli::parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; run the benchmark with --release");
        return ExitCode::from(2);
    }
    // Hermetic: nothing the program reads from the environment survives.
    // No thread has been started yet.
    for name in suite::SCRUBBED_ENV {
        std::env::remove_var(name);
    }

    let outcome = match &args.workload {
        None if args.reference => run::reference_leg().map(|r| (r, run::Pass::Reference)),
        None => {
            return match suite::run(&args) {
                Ok(code) => ExitCode::from(code),
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(name) => match workloads::Kind::from_name(name) {
            None => {
                eprintln!("error: unknown workload {name:?}\n{}", cli::USAGE);
                return ExitCode::from(2);
            }
            Some(kind) if args.trace => {
                run::traced(kind, args.seed, args.seconds, args.smoke, &args.out)
                    .map(|r| (r, run::Pass::PerLayer))
            }
            Some(kind) => run::end_to_end(kind, args.seed, args.seconds, args.smoke)
                .map(|r| (r, run::Pass::EndToEnd)),
        },
    };
    match outcome.and_then(|(result, pass)| Ok((result.to_json(pass).write()?, result.correct()))) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
