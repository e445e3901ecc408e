//! The one parse of argv + environment every study of the `ulba-bench`
//! binary starts with. Library code (`figures`, `output`, `report`,
//! `gates`) reads neither: it takes what it needs from its caller, so tests
//! pass a temp directory and never touch the process environment.
//!
//! Nothing defaults silently: a misspelled flag, a flag without its value,
//! a zero `--ranks` entry, an unparsable variable (`ULBA_SEEDS=five`) and
//! a set `ULBA_*` variable that nothing reads (`ULBA_QUICK`) all exit 2
//! naming the offender — the wrong behaviour for a benchmark is to quietly
//! run the default study.

use crate::figures::MEDIAN_SEEDS;
use crate::output::StudyOutput;
use std::path::PathBuf;
use ulba_core::gossip::GossipWire;
use ulba_runtime::Backend;

/// The `ULBA_*` variables a study reads: its own two, then the runtime's.
/// Any other one set exits 2.
pub const ENV_VARS: [&str; 4] = ["ULBA_RESULTS", "ULBA_SEEDS", "ULBA_BACKEND", "ULBA_WORKERS"];

/// Value-taking flags the erosion figure and ablation studies accept.
pub const EROSION_STUDY_FLAGS: &[&str] = &["--ranks", "--json"];

/// What the command line and the environment asked for. The runtime reads
/// its own two variables, `ULBA_BACKEND` (the default backend of every
/// run) and `ULBA_WORKERS` (the size of the global pool the studies run
/// on); [`Cli::parse`] only checks them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// `--smoke`: shrink the study.
    pub smoke: bool,
    /// CSV/report directory: `ULBA_RESULTS`, `results` by default.
    pub results: PathBuf,
    /// `--json <path>`: where the schema-3 report goes.
    pub json: Option<PathBuf>,
    /// `--ranks 64,256`: overrides a study's PE sweep.
    pub ranks: Option<Vec<usize>>,
    /// `--backends sequential,parallel`: one sweep per backend.
    pub backends: Option<Vec<Backend>>,
    /// `--gossip-wire full|delta|delta:<N>`.
    pub gossip_wire: Option<GossipWire>,
    /// `ULBA_SEEDS`: how many of the [`MEDIAN_SEEDS`] to run, `1..=5`.
    pub seeds: Option<usize>,
}

fn number(what: &str, raw: &str) -> Result<usize, String> {
    raw.trim().parse().map_err(|_| format!("invalid {what} `{raw}` (expected an unsigned integer)"))
}

/// One `--ranks` entry: a PE count, so at least 1.
fn rank_count(raw: &str) -> Result<usize, String> {
    match number("--ranks entry", raw)? {
        0 => Err(format!("invalid --ranks entry `{raw}` (a run needs at least one rank)")),
        ranks => Ok(ranks),
    }
}

fn backend(raw: &str) -> Result<Backend, String> {
    raw.trim()
        .parse()
        .map_err(|()| format!("unknown backend `{raw}` (expected `sequential` or `parallel`)"))
}

/// A non-empty comma-separated list.
fn list<T>(raw: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    raw.split(',').map(item).collect()
}

impl Cli {
    /// Pure core of [`from_env`](Self::from_env): `args` is argv after the
    /// binary and study names, `env` the process's variables, `value_flags`
    /// the value-taking flags the study accepts (`--smoke` always is).
    /// `ULBA_BACKEND` and `ULBA_WORKERS` are checked the way the runtime
    /// parses them: on a value it cannot parse, the runtime alone would
    /// warn and run its default.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        env: impl IntoIterator<Item = (String, String)>,
        value_flags: &[&str],
    ) -> Result<Self, String> {
        let mut cli = Cli { results: PathBuf::from("results"), ..Cli::default() };
        let most = MEDIAN_SEEDS.len();
        for (var, raw) in env.into_iter().filter(|(var, _)| var.starts_with("ULBA_")) {
            let expected = match var.as_str() {
                "ULBA_RESULTS" => {
                    cli.results = PathBuf::from(raw);
                    continue;
                }
                "ULBA_SEEDS" => match raw.trim().parse() {
                    Ok(seeds) if (1..=most).contains(&seeds) => {
                        cli.seeds = Some(seeds);
                        continue;
                    }
                    _ => format!("1..={most}: the studies draw from {most} median seeds"),
                },
                "ULBA_BACKEND" if raw.parse::<Backend>().is_err() => {
                    "`sequential` or `parallel`".to_string()
                }
                "ULBA_WORKERS" if raw.parse::<usize>().is_err() => {
                    "a worker count; 0 = all cores".to_string()
                }
                "ULBA_BACKEND" | "ULBA_WORKERS" => continue,
                _ => {
                    let read = ENV_VARS.join(", ");
                    return Err(format!("unknown variable `{var}` (a study reads only {read})"));
                }
            };
            return Err(format!("invalid {var} `{raw}` (expected {expected})"));
        }
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--smoke" {
                cli.smoke = true;
                continue;
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            if flag == "--smoke" {
                return Err(format!("flag `--smoke` takes no value (got `{arg}`)"));
            }
            if !value_flags.contains(&flag) {
                return Err(format!(
                    "unknown argument `{arg}` (known flags: {}, --smoke)",
                    value_flags.join(", ")
                ));
            }
            let value = inline
                .or_else(|| args.next())
                .ok_or_else(|| format!("flag `{flag}` is missing its value"))?;
            match flag {
                "--json" => cli.json = Some(PathBuf::from(value)),
                "--ranks" => cli.ranks = Some(list(&value, rank_count)?),
                "--backends" => cli.backends = Some(list(&value, backend)?),
                "--gossip-wire" => cli.gossip_wire = Some(value.parse()?),
                other => unreachable!("`{other}` is in a study's flag list but not parsed"),
            }
        }
        Ok(cli)
    }

    /// Parse this process's argv (after the binary and study names) and
    /// environment, exiting 2 with the diagnostic on any error.
    pub fn from_env(value_flags: &[&str]) -> Self {
        let env = std::env::vars_os()
            .filter_map(|(var, raw)| Some((var.into_string().ok()?, raw.into_string().ok()?)));
        Self::parse(std::env::args().skip(2), env, value_flags).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        })
    }

    /// The report of `study`: `--json`, else `<results>/BENCH_<study>.json`
    /// — every erosion-driven study emits its report unconditionally.
    pub fn report_path(&self, study: &str) -> PathBuf {
        self.json.clone().unwrap_or_else(|| self.results.join(format!("BENCH_{study}.json")))
    }

    /// Where `study` writes: CSVs under [`results`](Self::results), the
    /// report at [`report_path`](Self::report_path).
    pub fn study_output(&self, study: &str) -> StudyOutput {
        let json = self.report_path(study);
        StudyOutput { dir: self.results.clone(), smoke: self.smoke, json }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], env: &[(&str, &str)], flags: &[&str]) -> Result<Cli, String> {
        let env = env.iter().map(|(var, raw)| (var.to_string(), raw.to_string()));
        Cli::parse(args.iter().map(|s| s.to_string()), env, flags)
    }

    #[test]
    fn accepts_known_flags_in_both_spellings() {
        let flags = ["--gossip-wire", "--ranks", "--backends"];
        let cli = parse(&["--gossip-wire", "delta", "--smoke"], &[], &flags).unwrap();
        assert_eq!((cli.smoke, cli.gossip_wire), (true, Some(GossipWire::delta())));
        let cli = parse(&["--gossip-wire=delta:4", "--ranks=8,16"], &[], &flags).unwrap();
        assert_eq!(cli.gossip_wire, Some(GossipWire::Delta { full_every: 4 }));
        assert_eq!(cli.ranks, Some(vec![8, 16]));
        let cli = parse(&["--backends", "seq,parallel"], &[], &flags).unwrap();
        assert_eq!(cli.backends, Some(vec![Backend::Sequential, Backend::Parallel]));
        let cli = parse(&[], &[], &flags).unwrap();
        assert_eq!(cli, Cli { results: "results".into(), ..Cli::default() });
    }

    #[test]
    fn environment_fills_what_flags_do_not() {
        let env = [("ULBA_RESULTS", "/tmp/x"), ("ULBA_SEEDS", "3"), ("PATH", "/bin")];
        let cli = parse(&[], &env, &[]).unwrap();
        assert_eq!((cli.smoke, cli.seeds), (false, Some(3)));
        assert_eq!(cli.study_output("fig5").json, PathBuf::from("/tmp/x/BENCH_fig5.json"));
        // The runtime's two variables are checked, not kept: it reads them.
        let env = [("ULBA_BACKEND", "seq"), ("ULBA_WORKERS", "0")];
        assert_eq!(parse(&[], &env, &[]), parse(&[], &[], &[]));
    }

    #[test]
    fn unparsable_environment_knobs_name_the_variable_and_the_value() {
        // Regression: these used to run the study at its default size, and
        // the runtime warns about its own two and runs its default.
        for (var, raw) in [
            ("ULBA_SEEDS", "five"),
            ("ULBA_SEEDS", ""),
            ("ULBA_WORKERS", "two"),
            ("ULBA_WORKERS", " 2"),
            ("ULBA_WORKERS", "-1"),
            ("ULBA_BACKEND", "threaded"),
            ("ULBA_BACKEND", ""),
        ] {
            let err = parse(&[], &[(var, raw)], &[]).unwrap_err();
            assert!(err.contains(var) && err.contains(&format!("`{raw}`")), "{err}");
        }
    }

    #[test]
    fn retired_flags_and_variables_exit_naming_the_offender() {
        // `--backend` and `--workers` only re-exported the runtime's own
        // variables; `ULBA_QUICK` was a second `--smoke`; the study sizes
        // are fixed. Each used to be accepted; now none runs a study.
        for flag in ["--backend", "--workers"] {
            let err = parse(&[flag, "2"], &[], EROSION_STUDY_FLAGS).unwrap_err();
            assert!(err.starts_with(&format!("unknown argument `{flag}`")), "{err}");
        }
        for var in ["ULBA_QUICK", "ULBA_INSTANCES", "ULBA_SA_STEPS", "ULBA_ALPHA_SAMPLES"] {
            let err = parse(&[], &[(var, "1")], &[]).unwrap_err();
            assert!(err.starts_with(&format!("unknown variable `{var}`")), "{err}");
        }
        // Only the `ULBA_` namespace is checked.
        assert!(parse(&[], &[("ULBAQUICK", "1"), ("QUICK", "1")], &[]).is_ok());
    }

    #[test]
    fn seed_counts_outside_the_median_seeds_are_rejected_not_clamped() {
        // Regression: `ULBA_SEEDS=0` used to run one seed and `ULBA_SEEDS=9`
        // five, without a word.
        for raw in ["0", "6", "9"] {
            let err = parse(&[], &[("ULBA_SEEDS", raw)], &[]).unwrap_err();
            assert!(err.contains("ULBA_SEEDS") && err.contains(&format!("`{raw}`")), "{err}");
            assert!(err.contains(&format!("1..={}", MEDIAN_SEEDS.len())), "{err}");
        }
        for seeds in 1..=MEDIAN_SEEDS.len() {
            let cli = parse(&[], &[("ULBA_SEEDS", &seeds.to_string())], &[]).unwrap();
            assert_eq!(cli.seeds, Some(seeds));
        }
    }

    #[test]
    fn unknown_backend_message_names_the_offender_and_the_two_valid_names() {
        // `threaded` was a backend once; now it is an unknown name like any other.
        for raw in ["threaded", "fibers"] {
            let expected = format!("unknown backend `{raw}` (expected `sequential` or `parallel`)");
            let list = format!("parallel,{raw}");
            assert_eq!(parse(&["--backends", &list], &[], &["--backends"]), Err(expected));
            let err = parse(&[], &[("ULBA_BACKEND", raw)], &[]).unwrap_err();
            let expected = format!("`{raw}` (expected `sequential` or `parallel`)");
            assert!(err.starts_with("invalid ULBA_BACKEND") && err.ends_with(&expected), "{err}");
        }
    }

    #[test]
    fn rejects_typoed_flag_with_the_offending_string() {
        // Regression: `--gosip-wire delta` used to be silently ignored and
        // the study ran on the default wire.
        let err = parse(&["--gosip-wire", "delta"], &[], &["--gossip-wire"]).unwrap_err();
        assert!(err.contains("--gosip-wire"), "diagnostic must name the offender: {err}");
        assert!(err.contains("--gossip-wire"), "diagnostic must list the known flags: {err}");
    }

    #[test]
    fn rejects_missing_or_malformed_values_and_stray_positionals() {
        let flags = ["--ranks"];
        let err = parse(&["--ranks"], &[], &flags).unwrap_err();
        assert!(err.contains("missing its value"), "{err}");
        let err = parse(&["detla"], &[], &flags).unwrap_err();
        assert!(err.contains("detla"), "{err}");
        let err = parse(&["--smoke=1"], &[], &flags).unwrap_err();
        assert!(err.contains("takes no value"), "{err}");
        for bad in [["--ranks", "8,x"], ["--ranks", ""]] {
            assert!(parse(&bad, &[], &flags).is_err(), "{bad:?} must be rejected");
        }
        // Regression: a zero entry used to start the study and panic inside
        // the first batch (`need at least one rank`, exit 101).
        for bad in ["0", "4,0"] {
            let err = parse(&["--ranks", bad], &[], &flags).unwrap_err();
            assert!(err.contains("--ranks entry `0`"), "{bad}: {err}");
        }
    }
}
