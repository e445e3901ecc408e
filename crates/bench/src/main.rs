//! `ulba-bench <study> [--smoke] [flags]` — the one entry point of the
//! harness, one row of [`STUDIES`] per study. An `Err` from a study prints
//! `::error::<msg>` and exits 1; a flag the study does not read, a
//! `--ranks` list given to a study that runs one PE count, no study name or
//! an unknown one exits 2.
//!
//! `ulba-bench gate <gate>[,<gate>…] <report.json>…` runs the CI gates of
//! `ulba_bench::gates` over schema-3 reports, against the seed baseline
//! `results/BENCH_seed.json` (relative to the working directory). Findings
//! print as GitHub annotations; exit 1 on any hard finding or unreadable
//! report, 2 on a usage error or an unknown gate name.

use std::path::Path;
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};
use ulba_bench::figures::weak_scaling::WEAK_SCALING_PE_COUNTS;
use ulba_bench::figures::{self, MEDIAN_SEEDS, PAPER_PE_COUNTS};
use ulba_bench::gates::{self, Gate, Severity};
use ulba_bench::report::{Report, Summary};
use ulba_runtime::Backend;

/// One `ulba-bench <name>` command.
struct Study {
    name: &'static str,
    /// The value-taking flags `run` reads (`--smoke` is always accepted).
    flags: &'static [&'static str],
    run: fn(&Cli) -> Result<(), String>,
}

/// Every study, in the order the usage lists them; the first
/// [`PAPER_STUDIES`] are what `all` runs, in this order.
const STUDIES: &[Study] = &[
    Study { name: "table2", flags: &[], run: table2 },
    Study { name: "fig2", flags: &[], run: fig2 },
    Study { name: "fig3", flags: &[], run: fig3 },
    Study { name: "fig4a", flags: EROSION_STUDY_FLAGS, run: fig4a },
    Study { name: "fig4b", flags: EROSION_STUDY_FLAGS, run: fig4b },
    Study { name: "fig5", flags: EROSION_STUDY_FLAGS, run: fig5 },
    Study { name: "ablation_trigger", flags: EROSION_STUDY_FLAGS, run: ablation_trigger },
    Study { name: "ablation_alpha", flags: EROSION_STUDY_FLAGS, run: ablation_alpha },
    Study { name: "ablation_gossip", flags: EROSION_STUDY_FLAGS, run: ablation_gossip },
    Study { name: "ablation_anticipation", flags: EROSION_STUDY_FLAGS, run: ablation_anticipation },
    Study {
        name: "weak_scaling",
        flags: &["--backend", "--backends", "--workers", "--ranks", "--gossip-wire", "--json"],
        run: weak_scaling,
    },
    Study { name: "job_server", flags: &["--workers", "--ranks", "--json"], run: job_server },
    Study {
        name: "scenarios",
        flags: &["--workers", "--ranks", "--gossip-wire", "--json"],
        run: scenarios,
    },
    // Each row writes its own report at its own PE counts, so `all` takes
    // neither `--json` nor `--ranks`.
    Study { name: "all", flags: &["--backend", "--workers"], run: all },
];

/// The studies that run at one PE count: `--ranks <p>` replaces it, and a
/// list is refused rather than cut to its first entry.
const ONE_PE_STUDIES: &[&str] = &["fig4b", "ablation_gossip", "ablation_trigger"];

/// What a study row adds to [`Cli::parse`]'s checks: a one-PE study takes
/// one `--ranks` entry.
fn check(study: &Study, cli: &Cli) -> Result<(), String> {
    match &cli.ranks {
        Some(pes) if pes.len() > 1 && ONE_PE_STUDIES.contains(&study.name) => Err(format!(
            "{} takes one PE count (`--ranks <p>`), got {} entries: {pes:?}",
            study.name,
            pes.len()
        )),
        _ => Ok(()),
    }
}

/// Table II, Figs. 2–5 and the ablations E-A1…E-A4. `weak_scaling` is a
/// runtime-scaling study with CI legs of its own, so `all` stops before it.
const PAPER_STUDIES: usize = 10;

fn lookup(name: &str) -> Result<&'static Study, String> {
    STUDIES.iter().find(|study| study.name == name).ok_or_else(|| {
        let what = match name {
            "" => "no study given".to_string(),
            _ => format!("unknown study `{name}`"),
        };
        let mut usage = format!("{what}\nusage: ulba-bench <study> [--smoke] [flags], studies:");
        let rows = STUDIES.iter().map(|s| (s.name, s.flags.join(" ")));
        for (name, args) in rows.chain([("gate", GATE_ARGS.to_string())]) {
            usage.push_str(format!("\n  {name:<22} {args}").trim_end());
        }
        usage
    })
}

/// What `ulba-bench gate` takes instead of flags.
const GATE_ARGS: &str = "<gate>[,<gate>…] <report.json>…";

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let result = if name == "gate" {
        gate(std::env::args().skip(2))
    } else {
        let study = lookup(&name).unwrap_or_else(|usage| usage_error(&usage));
        let cli = Cli::from_env(study.flags);
        check(study, &cli).unwrap_or_else(|err| usage_error(&err));
        (study.run)(&cli)
    };
    if let Err(err) = result {
        println!("::error::{err}");
        std::process::exit(1);
    }
}

fn usage_error(usage: &str) -> ! {
    eprintln!("{usage}");
    std::process::exit(2);
}

/// `ULBA_INSTANCES`, else 1000 model instances (100 at smoke scale).
fn instances(cli: &Cli) -> usize {
    cli.instances.unwrap_or(if cli.smoke { 100 } else { 1000 })
}

/// `ULBA_ALPHA_SAMPLES`, else the paper's 100 α values per instance.
fn alpha_samples(cli: &Cli) -> u32 {
    cli.alpha_samples.unwrap_or(100) as u32
}

/// The first `ULBA_SEEDS` median seeds, else `full` of them (one at smoke
/// scale).
fn seeds(cli: &Cli, full: usize) -> &'static [u64] {
    &MEDIAN_SEEDS[..cli.seeds.unwrap_or(if cli.smoke { 1 } else { full })]
}

fn pes(cli: &Cli, default: &[usize]) -> Vec<usize> {
    cli.ranks.clone().unwrap_or_else(|| default.to_vec())
}

/// The one PE count of a [`ONE_PE_STUDIES`] row ([`check`] refused a list).
fn pe_count(cli: &Cli, default: usize) -> usize {
    cli.ranks.as_ref().map_or(default, |pes| pes[0])
}

/// Table II (parameter-distribution validation).
fn table2(cli: &Cli) -> Result<(), String> {
    figures::table2::run(instances(cli), 2019, &cli.results);
    Ok(())
}

/// Fig. 2 (σ⁺ vs simulated-annealing schedule quality); `Err` if the SA or
/// the σ⁺ schedule of an instance lands below the exact DP optimum.
fn fig2(cli: &Cli) -> Result<(), String> {
    let steps = cli.sa_steps.unwrap_or(if cli.smoke { 5_000 } else { 20_000 });
    figures::fig2::run(instances(cli), steps as u64, 2019, &cli.results).map(drop)
}

/// Fig. 3 (ULBA gain by overloading percentage).
fn fig3(cli: &Cli) -> Result<(), String> {
    figures::fig3::run(instances(cli), alpha_samples(cli), 2019, &cli.results);
    Ok(())
}

/// Fig. 4a (erosion app: standard vs ULBA, P × rock sweep); `--ranks`
/// overrides the PE sweep. `Err` if the two policies erode differently.
fn fig4a(cli: &Cli) -> Result<(), String> {
    let pes = pes(cli, if cli.smoke { &[32, 64] } else { &PAPER_PE_COUNTS });
    let rocks: &[usize] = if cli.smoke { &[1] } else { &[1, 2, 3] };
    figures::fig4::run_4a(&pes, rocks, seeds(cli, 5), &cli.study_output("fig4a")).map(drop)
}

/// Fig. 4b (average PE utilization timeline, 1 rock); `--ranks <p>`
/// overrides the 32 PEs. `Err` if the two policies erode differently.
fn fig4b(cli: &Cli) -> Result<(), String> {
    figures::fig4::run_4b(pe_count(cli, 32), 11, &cli.study_output("fig4b")).map(drop)
}

/// Fig. 5 (α tuning); `--ranks` overrides the PE sweep. `Err` if two α
/// values erode differently.
fn fig5(cli: &Cli) -> Result<(), String> {
    let pes = pes(cli, if cli.smoke { &[32, 64] } else { &PAPER_PE_COUNTS });
    figures::fig5::run(&pes, seeds(cli, 3), &cli.study_output("fig5")).map(drop)
}

/// Ablation E-A2: α rule (standard vs fixed α, z-score vs robust detection).
fn ablation_alpha(cli: &Cli) -> Result<(), String> {
    let out = cli.study_output("ablation_alpha");
    figures::ablations::alpha_rule_ablation(&pes(cli, &[32, 64]), seeds(cli, 1), &out)
}

/// Ablation E-A4: anticipatory (predicted-weight) partitioning.
fn ablation_anticipation(cli: &Cli) -> Result<(), String> {
    let out = cli.study_output("ablation_anticipation");
    figures::ablations::anticipation_ablation(&pes(cli, &[32, 64, 128]), seeds(cli, 1), &out)
}

/// Ablation E-A3: gossip dissemination mode; `--ranks <p>` overrides the
/// 64 PEs.
fn ablation_gossip(cli: &Cli) -> Result<(), String> {
    let out = cli.study_output("ablation_gossip");
    figures::ablations::gossip_ablation(pe_count(cli, 64), seeds(cli, 1), &out)
}

/// Ablation E-A1: LB trigger choice; `--ranks <p>` overrides the 64 PEs.
fn ablation_trigger(cli: &Cli) -> Result<(), String> {
    let out = cli.study_output("ablation_trigger");
    figures::ablations::trigger_ablation(pe_count(cli, 64), seeds(cli, 1), &out)
}

/// Weak scaling: erosion at P ∈ {64, 256, 1024, 4096}, standard vs ULBA,
/// once per `--backends` entry so their simulation wall-clocks compare;
/// `--json` writes one schema-3 report covering every backend.
fn weak_scaling(cli: &Cli) -> Result<(), String> {
    // --backend is also the process default (ULBA_BACKEND); the per-run
    // backend below still wins.
    let backends: Vec<Option<Backend>> = match &cli.backends {
        Some(list) => list.iter().copied().map(Some).collect(),
        None => vec![cli.backend],
    };
    let pes = pes(cli, &WEAK_SCALING_PE_COUNTS);
    let wire = cli.gossip_wire.unwrap_or_default();
    let mut rows = Vec::new();
    for backend in backends {
        rows.extend(figures::weak_scaling::run(&pes, backend, wire, cli.smoke, &cli.results));
    }
    if let Some(path) = &cli.json {
        let summary = Summary::default();
        Report { study: "weak_scaling".into(), smoke: cli.smoke, summary, rows }.write(path);
    }
    Ok(())
}

/// Serial one-pool-per-run vs one shared pool. Every job pins the parallel
/// backend, so no `--backend`; `--ranks` appends the drift-guard legs.
fn job_server(cli: &Cli) -> Result<(), String> {
    let json = cli.report_path("job_server");
    figures::job_server::run(cli.workers.unwrap_or(0), &pes(cli, &[]), cli.smoke, Some(&json));
    Ok(())
}

/// The adversarial-scenario sweep. Its grid pins both backends, so no
/// `--backend`; `--ranks` appends the drift-guard legs.
fn scenarios(cli: &Cli) -> Result<(), String> {
    let (workers, json) = (cli.workers.unwrap_or(0), cli.report_path("scenarios"));
    figures::scenarios::run(workers, &pes(cli, &[]), cli.smoke, cli.gossip_wire, Some(&json));
    Ok(())
}

/// The first [`PAPER_STUDIES`] rows, in order, stopping at the first `Err`.
fn all(cli: &Cli) -> Result<(), String> {
    let started = std::time::Instant::now();
    for study in &STUDIES[..PAPER_STUDIES] {
        (study.run)(cli)?;
    }
    eprintln!("\nall studies regenerated in {:.1?}", started.elapsed());
    Ok(())
}

/// `ulba-bench gate`: see the module documentation. `Err` is an
/// unreadable report; a hard finding exits 1 after every finding printed.
fn gate(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let names = args.next().unwrap_or_default();
    let paths: Vec<String> = args.collect();
    let usage = |err: &str| usage_error(&format!("{err}\nusage: ulba-bench gate {GATE_ARGS}"));
    let gates: Vec<Gate> = match names.split(',').map(str::parse).collect() {
        Ok(_) if paths.is_empty() => usage("no report given"),
        Ok(gates) => gates,
        Err(err) => usage(&err),
    };
    let seed = Report::read(Path::new("results/BENCH_seed.json"))?;
    let reports: Vec<(String, Report)> = paths
        .iter()
        .map(|path| Ok((path.clone(), Report::read(Path::new(path))?)))
        .collect::<Result<_, String>>()?;
    let findings = gates::run(&gates, &reports, &seed.rows);
    for finding in &findings {
        let prefix = match finding.severity {
            Severity::Info => "",
            Severity::Warn => "::warning::",
            Severity::Hard => "::error::",
        };
        println!("{prefix}{}", finding.message);
    }
    if gates::failed(&findings) {
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(study: &str, args: &[&str], env: &[(&str, &str)]) -> Result<Cli, String> {
        let lookup_env =
            |var: &str| env.iter().find(|(k, _)| *k == var).map(|(_, v)| v.to_string());
        let study = lookup(study)?;
        let cli = Cli::parse(args.iter().map(|s| s.to_string()), lookup_env, study.flags)?;
        check(study, &cli)?;
        Ok(cli)
    }

    /// A valid value for each value flag a row may list.
    const SAMPLES: [(&str, &str); 6] = [
        ("--backend", "parallel"),
        ("--backends", "sequential,parallel"),
        ("--workers", "2"),
        ("--ranks", "64"),
        ("--gossip-wire", "delta:4"),
        ("--json", "x.json"),
    ];

    #[test]
    fn every_row_takes_the_flags_it_lists_and_no_other() {
        for study in STUDIES {
            let (listed, other): (Vec<_>, Vec<_>) =
                SAMPLES.iter().partition(|(flag, _)| study.flags.contains(flag));
            assert_eq!(listed.len(), study.flags.len(), "{}: a flag without a sample", study.name);
            let args: Vec<&str> =
                listed.iter().flat_map(|(f, v)| [*f, *v]).chain(["--smoke"]).collect();
            parse(study.name, &args, &[]).unwrap_or_else(|err| panic!("{}: {err}", study.name));
            for (flag, value) in other {
                let err = parse(study.name, &[flag, value], &[]).unwrap_err();
                assert!(err.starts_with(&format!("unknown argument `{flag}`")), "{}", study.name);
            }
        }
        assert_eq!(STUDIES[PAPER_STUDIES].name, "weak_scaling", "`all` stops before it");
    }

    #[test]
    fn ignored_flags_and_unknown_studies_are_rejected() {
        // Regression: `all_figures` took `--ranks` and `--json` and ignored
        // them; `job_server` and `scenarios` did the same with `--backend`.
        for (study, args) in [
            ("scenarios", ["--backend", "parallel"]),
            ("job_server", ["--backend", "sequential"]),
            ("all", ["--ranks", "64"]),
            ("all", ["--json", "x"]),
            ("fig2", ["--ranks", "8"]),
        ] {
            let err = parse(study, &args, &[]).unwrap_err();
            assert!(err.starts_with(&format!("unknown argument `{}`", args[0])), "{study}: {err}");
        }
        for (name, what) in
            [("fig6", "unknown study `fig6`"), ("all_figures", "unknown"), ("", "no study")]
        {
            let err = parse(name, &[], &[]).unwrap_err();
            let listed: Vec<&str> =
                err.lines().skip(2).filter_map(|l| l.split_whitespace().next()).collect();
            let names: Vec<&str> = STUDIES.iter().map(|s| s.name).chain(["gate"]).collect();
            assert!(err.starts_with(what) && listed == names, "`{name}`: {err}");
        }
    }

    #[test]
    fn no_study_takes_a_block_count() {
        // The block count follows `--workers`; the flag that set it is gone.
        for study in STUDIES {
            let err = parse(study.name, &["--hub-shards", "4"], &[]).unwrap_err();
            assert!(err.starts_with("unknown argument `--hub-shards`"), "{}: {err}", study.name);
        }
    }

    #[test]
    fn one_pe_studies_refuse_a_ranks_list() {
        // Regression: these ran on the first entry and ignored the rest.
        for study in ONE_PE_STUDIES {
            let err = parse(study, &["--ranks", "32,64"], &[]).unwrap_err();
            assert!(err.starts_with(study) && err.contains("takes one PE count"), "{err}");
            assert_eq!(pe_count(&parse(study, &["--ranks", "48"], &[]).unwrap(), 32), 48);
        }
        assert_eq!(parse("fig4a", &["--ranks", "32,64"], &[]).unwrap().ranks, Some(vec![32, 64]));
    }

    #[test]
    fn all_runs_fig3_and_fig5_with_the_environment_knobs() {
        // Regression: `all_figures` ran fig3 on 100 α values whatever
        // `ULBA_ALPHA_SAMPLES` said, and fig5 on at most 3 seeds.
        let env = [("ULBA_ALPHA_SAMPLES", "7"), ("ULBA_SEEDS", "5")];
        let cli = parse("all", &["--smoke"], &env).unwrap();
        assert_eq!(alpha_samples(&cli), 7);
        assert_eq!(seeds(&cli, 3), MEDIAN_SEEDS);
        // The ablations read the same knob: 5 seeds instead of their one.
        assert_eq!(seeds(&cli, 1), MEDIAN_SEEDS);
        // Without the knobs, the rows' own defaults; an ablation's is seed 11.
        let cli = parse("all", &[], &[]).unwrap();
        assert_eq!((alpha_samples(&cli), seeds(&cli, 3).len(), seeds(&cli, 5).len()), (100, 3, 5));
        assert_eq!(seeds(&cli, 1), [11]);
    }

    #[test]
    fn ci_and_docs_name_only_studies_that_exist() {
        for file in [".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let mut named = 0;
            for (at, _) in text.match_indices("ulba-bench ") {
                let rest = text[at + "ulba-bench ".len()..].trim_start_matches("-- ");
                let word: String =
                    rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
                if !word.is_empty() {
                    assert!(word == "gate" || lookup(&word).is_ok(), "{file}: `ulba-bench {word}`");
                    named += 1;
                }
            }
            assert!(named > 0, "{file} names no study");
            // One binary per study but `all` was deleted, and two more.
            let deleted = STUDIES.iter().map(|s| s.name).chain(["all_figures", "bench_gate"]);
            for bin in deleted {
                assert!(!text.contains(&format!("--bin {bin}")), "{file}: `--bin {bin}`");
            }
        }
    }
}
