//! `ulba-bench <study> [--smoke] [flags]` — the one entry point of the
//! harness, one row of [`STUDIES`] per study. An `Err` from a study (an
//! in-run check, an output file it cannot write) prints `::error::<msg>`
//! and exits 1; a flag the study does not read, a `--ranks` list given to a
//! study that runs one PE count, an environment variable nothing reads, no
//! study name or an unknown one exits 2. The runs read the runtime's own
//! `ULBA_BACKEND` and `ULBA_WORKERS`.
//!
//! `ulba-bench gate <gate>[,<gate>…] <report.json>…` runs the CI gates of
//! `ulba_bench::gates` over schema-3 reports; `drift` and `wall` compare
//! each with the committed report of its file name, `results/<name>`
//! (relative to the working directory). Findings print as GitHub
//! annotations; exit 1 on any hard finding or unreadable report, 2 on a
//! usage error or an unknown gate name.

use std::path::Path;
use ulba_bench::cli::{Cli, EROSION_STUDY_FLAGS};
use ulba_bench::figures::weak_scaling::WEAK_SCALING_PE_COUNTS;
use ulba_bench::figures::{self, MEDIAN_SEEDS, PAPER_PE_COUNTS};
use ulba_bench::gates::{self, Gate, Severity};
use ulba_bench::report::Report;
use ulba_runtime::RunConfig;

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
        flags: &["--backends", "--ranks", "--gossip-wire", "--json"],
        run: weak_scaling,
    },
    Study { name: "scenarios", flags: &["--json"], run: scenarios },
    // Each row writes its own report at its own PE counts, so `all` takes
    // neither `--json` nor `--ranks`.
    Study { name: "all", flags: &[], run: all },
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

/// 1000 model instances, 100 at smoke scale.
fn instances(cli: &Cli) -> usize {
    if cli.smoke {
        100
    } else {
        1000
    }
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
    figures::table2::run(instances(cli), 2019, &cli.results)
}

/// Fig. 2 (σ⁺ vs simulated-annealing schedule quality); `Err` if the SA or
/// the σ⁺ schedule of an instance lands below the exact DP optimum.
fn fig2(cli: &Cli) -> Result<(), String> {
    let steps = if cli.smoke { 5_000 } else { 20_000 };
    figures::fig2::run(instances(cli), steps, 2019, &cli.results).map(drop)
}

/// Fig. 3 (ULBA gain by overloading percentage), on the paper's 100 α
/// values per instance.
fn fig3(cli: &Cli) -> Result<(), String> {
    figures::fig3::run(instances(cli), 100, 2019, &cli.results).map(drop)
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
/// once per `--backends` entry so their simulation wall-clocks compare,
/// into one schema-3 report covering every backend; without `--backends`,
/// once on the runtime's default (`ULBA_BACKEND`).
fn weak_scaling(cli: &Cli) -> Result<(), String> {
    // The runtime's default backend: `ULBA_BACKEND`, else parallel.
    let backends = cli.backends.clone().unwrap_or_else(|| vec![RunConfig::new(1).backend]);
    let pes = pes(cli, &WEAK_SCALING_PE_COUNTS);
    let wire = cli.gossip_wire.unwrap_or_default();
    let mut rows = Vec::new();
    for backend in backends {
        rows.extend(figures::weak_scaling::run(&pes, backend, wire, cli.smoke));
    }
    let report =
        Report { study: "weak_scaling".into(), smoke: cli.smoke, batch_wall_s: None, rows };
    report.write(&cli.report_path("weak_scaling"))
}

/// The adversarial-scenario sweep; its grid pins its backends and wires.
fn scenarios(cli: &Cli) -> Result<(), String> {
    figures::scenarios::run(cli.smoke, &cli.report_path("scenarios")).map(drop)
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
    let reports: Vec<(String, Report)> = paths
        .iter()
        .map(|path| Ok((path.clone(), Report::read(Path::new(path))?)))
        .collect::<Result<_, String>>()?;
    let findings = gates::run(&gates, &reports, |path| {
        Report::read(&Path::new("results").join(Path::new(path).file_name().unwrap_or_default()))
    });
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
    use ulba_bench::cli::ENV_VARS;

    fn parse(study: &str, args: &[&str], env: &[(&str, &str)]) -> Result<Cli, String> {
        let env = env.iter().map(|(var, raw)| (var.to_string(), raw.to_string()));
        let study = lookup(study)?;
        let cli = Cli::parse(args.iter().map(|s| s.to_string()), env, study.flags)?;
        check(study, &cli)?;
        Ok(cli)
    }

    /// A valid value for each value flag a row may list.
    const SAMPLES: [(&str, &str); 4] = [
        ("--backends", "sequential,parallel"),
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
        // them; `scenarios` did the same with `--backend`. Its `--ranks`
        // appended legs that only a deleted baseline read. `--backend` and
        // `--workers` only re-exported `ULBA_BACKEND` and `ULBA_WORKERS`;
        // `scenarios --gossip-wire full` wrote a grid `gate scenario-grid`
        // refuses.
        for (study, args) in [
            ("scenarios", ["--backend", "parallel"]),
            ("scenarios", ["--ranks", "16384"]),
            ("scenarios", ["--gossip-wire", "full"]),
            ("fig4a", ["--backend", "sequential"]),
            ("weak_scaling", ["--backend", "sequential"]),
            ("all", ["--workers", "2"]),
            ("fig5", ["--workers", "2"]),
            ("all", ["--ranks", "64"]),
            ("all", ["--json", "x"]),
            ("fig2", ["--ranks", "8"]),
        ] {
            let err = parse(study, &args, &[]).unwrap_err();
            assert!(err.starts_with(&format!("unknown argument `{}`", args[0])), "{study}: {err}");
        }
        // `job_server` was a study once; its claims live in the test suites.
        for (name, what) in [
            ("fig6", "unknown study `fig6`"),
            ("all_figures", "unknown"),
            ("job_server", "unknown study `job_server`"),
            ("", "no study"),
        ] {
            let err = parse(name, &[], &[]).unwrap_err();
            let listed: Vec<&str> =
                err.lines().skip(2).filter_map(|l| l.split_whitespace().next()).collect();
            let names: Vec<&str> = STUDIES.iter().map(|s| s.name).chain(["gate"]).collect();
            assert!(err.starts_with(what) && listed == names, "`{name}`: {err}");
        }
    }

    #[test]
    fn no_study_takes_a_block_count() {
        // The block count follows the pool's workers; the flag that set it
        // is gone.
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
        // Regression: `all_figures` ran fig5 on at most 3 seeds whatever
        // `ULBA_SEEDS` said.
        let cli = parse("all", &["--smoke"], &[("ULBA_SEEDS", "5")]).unwrap();
        assert_eq!(seeds(&cli, 3), MEDIAN_SEEDS);
        // The ablations read the same knob: 5 seeds instead of their one.
        assert_eq!(seeds(&cli, 1), MEDIAN_SEEDS);
        // Without it, the rows' own defaults; an ablation's is seed 11.
        let cli = parse("all", &[], &[]).unwrap();
        assert_eq!((seeds(&cli, 3).len(), seeds(&cli, 5).len()), (3, 5));
        assert_eq!(seeds(&cli, 1), [11]);
        // fig3 runs the paper's 100 α values: its knob is gone, and says so.
        let err = parse("all", &[], &[("ULBA_ALPHA_SAMPLES", "7")]).unwrap_err();
        assert!(err.starts_with("unknown variable `ULBA_ALPHA_SAMPLES`"), "{err}");
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
                if word.is_empty() {
                    continue;
                }
                named += 1;
                if word == "gate" {
                    continue;
                }
                let study = lookup(&word).unwrap_or_else(|_| panic!("{file}: `ulba-bench {word}`"));
                for flag in command_flags(&rest[word.len()..]) {
                    assert!(
                        flag == "--smoke" || study.flags.contains(&flag),
                        "{file}: `ulba-bench {word} {flag}`: not a flag of {word}"
                    );
                }
            }
            assert!(named > 0, "{file} names no study");
            for (at, _) in text.match_indices("ULBA_") {
                let var: String = text[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                assert!(
                    var == "ULBA_" || ENV_VARS.contains(&var.as_str()),
                    "{file}: `{var}` is read by nothing"
                );
            }
            // One binary per study but `all` was deleted, and two more.
            let deleted = STUDIES.iter().map(|s| s.name).chain(["all_figures", "bench_gate"]);
            for bin in deleted {
                assert!(!text.contains(&format!("--bin {bin}")), "{file}: `--bin {bin}`");
            }
        }
    }

    /// The `--flags` of one command line: up to a backtick, a comment, a
    /// shell operator or a line break that no `\` continues and after
    /// which no `--flag` line follows (a folded YAML block).
    fn command_flags(command: &str) -> Vec<&str> {
        let mut flags = Vec::new();
        for (i, line) in command.split('\n').enumerate() {
            let line = line.trim();
            if i > 0 && !line.starts_with("--") {
                break;
            }
            let end = line.find(['`', '#', ';', '|', '&', ')']).unwrap_or(line.len());
            flags.extend(
                line[..end]
                    .split_whitespace()
                    .filter(|word| word.starts_with("--"))
                    .map(|word| word.split('=').next().unwrap_or(word)),
            );
            if end < line.len() {
                break;
            }
        }
        flags
    }
}
