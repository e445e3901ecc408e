//! The one parse of argv + environment every study of the `ulba-bench`
//! binary starts with. Library code (`figures`, `output`, `report`,
//! `gates`) reads neither: it takes what it needs from its caller, so tests
//! pass a temp directory and never touch the process environment.
//!
//! Nothing defaults silently: a misspelled flag, a flag without its value,
//! a zero `--ranks` entry and an unparsable environment knob
//! (`ULBA_SEEDS=five`) all exit 2 naming the offender — the wrong behaviour
//! for a benchmark is to quietly run the default study.

use crate::figures::MEDIAN_SEEDS;
use crate::output::StudyOutput;
use std::path::PathBuf;
use ulba_core::gossip::GossipWire;
use ulba_runtime::Backend;

/// Value-taking flags the erosion figure and ablation studies accept.
pub const EROSION_STUDY_FLAGS: &[&str] = &["--backend", "--workers", "--ranks", "--json"];

/// What the command line and the environment asked for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// `--smoke`, or `ULBA_QUICK` set to anything but `0`: shrink the study.
    pub smoke: bool,
    /// CSV/report directory: `ULBA_RESULTS`, `results` by default.
    pub results: PathBuf,
    /// `--json <path>`: where the schema-3 report goes.
    pub json: Option<PathBuf>,
    /// `--ranks 64,256`: overrides a study's PE sweep.
    pub ranks: Option<Vec<usize>>,
    /// `--backend sequential|parallel`.
    pub backend: Option<Backend>,
    /// `--backends sequential,parallel`: one sweep per backend.
    pub backends: Option<Vec<Backend>>,
    /// `--workers <n>`, else `ULBA_WORKERS`: the size of the pool a study
    /// runs on, and so the block count of a job alone on it.
    pub workers: Option<usize>,
    /// `--gossip-wire full|delta|delta:<N>`.
    pub gossip_wire: Option<GossipWire>,
    /// `ULBA_INSTANCES`.
    pub instances: Option<usize>,
    /// `ULBA_SEEDS`: how many of the [`MEDIAN_SEEDS`] to run, `1..=5`.
    pub seeds: Option<usize>,
    /// `ULBA_SA_STEPS`.
    pub sa_steps: Option<usize>,
    /// `ULBA_ALPHA_SAMPLES`.
    pub alpha_samples: Option<usize>,
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
    /// binary and study names, `env` looks a variable up, `value_flags` are
    /// the value-taking flags the study accepts (`--smoke` always is).
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String>,
        value_flags: &[&str],
    ) -> Result<Self, String> {
        let mut cli = Cli {
            smoke: env("ULBA_QUICK").is_some_and(|v| v != "0"),
            results: env("ULBA_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from),
            ..Cli::default()
        };
        for (var, knob) in [
            ("ULBA_INSTANCES", &mut cli.instances),
            ("ULBA_SEEDS", &mut cli.seeds),
            ("ULBA_SA_STEPS", &mut cli.sa_steps),
            ("ULBA_ALPHA_SAMPLES", &mut cli.alpha_samples),
            ("ULBA_WORKERS", &mut cli.workers),
        ] {
            if let Some(raw) = env(var) {
                *knob = Some(number(var, &raw)?);
            }
        }
        let most = MEDIAN_SEEDS.len();
        if let Some(seeds) = cli.seeds.filter(|s| !(1..=most).contains(s)) {
            return Err(format!(
                "invalid ULBA_SEEDS `{seeds}` (expected 1..={most}: the studies draw from \
                 {most} median seeds)"
            ));
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
                "--backend" => cli.backend = Some(backend(&value)?),
                "--backends" => cli.backends = Some(list(&value, backend)?),
                "--workers" => cli.workers = Some(number("--workers", &value)?),
                "--gossip-wire" => cli.gossip_wire = Some(value.parse()?),
                other => unreachable!("`{other}` is in a study's flag list but not parsed"),
            }
        }
        Ok(cli)
    }

    /// Parse this process's argv (after the binary and study names) and
    /// environment, exiting 2 with the diagnostic on any error. `--backend`
    /// is exported as `ULBA_BACKEND`, the default backend of the runtime's
    /// `RunConfig::new`; `--workers` as `ULBA_WORKERS`, the size of the
    /// runtime's global pool, which the erosion-driven studies run on
    /// (`scenarios` sizes its own shared pool by it). Both are set before
    /// the first run, so they reach every run of the study.
    pub fn from_env(value_flags: &[&str]) -> Self {
        let cli = Self::parse(std::env::args().skip(2), |var| std::env::var(var).ok(), value_flags)
            .unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(2);
            });
        for (var, value) in [
            ("ULBA_BACKEND", cli.backend.map(|b| b.to_string())),
            ("ULBA_WORKERS", cli.workers.map(|w| w.to_string())),
        ] {
            if let Some(value) = value {
                std::env::set_var(var, value);
            }
        }
        cli
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
        let lookup = |var: &str| env.iter().find(|(k, _)| *k == var).map(|(_, v)| v.to_string());
        Cli::parse(args.iter().map(|s| s.to_string()), lookup, flags)
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
        let env = [("ULBA_QUICK", "1"), ("ULBA_RESULTS", "/tmp/x"), ("ULBA_SEEDS", "3")];
        let cli = parse(&[], &env, &[]).unwrap();
        assert_eq!((cli.smoke, cli.seeds, cli.instances), (true, Some(3), None));
        assert_eq!(cli.study_output("fig5").json, PathBuf::from("/tmp/x/BENCH_fig5.json"));
        assert!(!parse(&[], &[("ULBA_QUICK", "0")], &[]).unwrap().smoke);
        // A flag wins over its environment twin.
        let cli = parse(&["--workers", "2"], &[("ULBA_WORKERS", "7")], &["--workers"]).unwrap();
        assert_eq!(cli.workers, Some(2));
    }

    #[test]
    fn unparsable_environment_knobs_name_the_variable_and_the_value() {
        // Regression: these used to run the study at its default size.
        for (var, raw) in [("ULBA_SEEDS", "five"), ("ULBA_INSTANCES", "1e3"), ("ULBA_SA_STEPS", "")]
        {
            let err = parse(&[], &[(var, raw)], &[]).unwrap_err();
            assert!(err.contains(var) && err.contains(&format!("`{raw}`")), "{err}");
        }
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
            assert_eq!(parse(&["--backend", raw], &[], &["--backend"]), Err(expected.clone()));
            let list = format!("parallel,{raw}");
            assert_eq!(parse(&["--backends", &list], &[], &["--backends"]), Err(expected));
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
