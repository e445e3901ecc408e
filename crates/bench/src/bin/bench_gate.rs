//! `bench_gate <gate>[,<gate>…] <report.json>…` — run CI gates over
//! schema-3 reports (see `ulba_bench::gates` for what each gate checks and
//! how hard). Every gate checks each report on its own, except `wall`,
//! which judges the first report and compares it against the others. The
//! seed baseline is `results/BENCH_seed.json`, relative to the working
//! directory. Findings print as GitHub annotations (`::error::` /
//! `::warning::`); exit 1 on any hard finding or unreadable report, 2 on a
//! usage error or an unknown gate name.
use std::path::Path;
use ulba_bench::gates::{self, Gate, Severity};
use ulba_bench::report::Report;

fn main() {
    let mut args = std::env::args().skip(1);
    let names = args.next().unwrap_or_default();
    let paths: Vec<String> = args.collect();
    let gates: Result<Vec<Gate>, String> = names.split(',').map(str::parse).collect();
    let gates = match gates {
        Ok(gates) if !paths.is_empty() => gates,
        Ok(_) => usage("no report given"),
        Err(err) => usage(&err),
    };
    let read = |path: &str| {
        Report::read(Path::new(path)).unwrap_or_else(|err| {
            println!("::error::{err}");
            std::process::exit(1);
        })
    };
    let seed = read("results/BENCH_seed.json");
    let reports: Vec<(String, Report)> = paths.iter().map(|p| (p.clone(), read(p))).collect();
    let findings = gates::run(&gates, &reports, &seed.rows);
    for finding in &findings {
        let prefix = match finding.severity {
            Severity::Info => "",
            Severity::Warn => "::warning::",
            Severity::Hard => "::error::",
        };
        println!("{prefix}{}", finding.message);
    }
    std::process::exit(i32::from(gates::failed(&findings)));
}

fn usage(err: &str) -> ! {
    eprintln!("{err}\nusage: bench_gate <gate>[,<gate>…] <report.json>…");
    std::process::exit(2);
}
