//! Command-line flags. Unknown flags are an error (exit 2), the repo's
//! CLI convention.

use std::path::PathBuf;

/// Seconds one run measures for when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// The same under `--smoke`.
pub const SMOKE_SECONDS: f64 = 0.25;

pub const USAGE: &str = "\
usage: ulba-benchmark [--workload <name> [--trace 0|1]] [--seed <u64>] [--seconds <n>]
                      [--repeats <n>] [--selfcheck] [--smoke] [--out <dir>]

  --workload <name>  run one workload in this process and print one JSON result
                     line (erosion_wide, erosion_paper, scenario_delta,
                     scenario_full, sweep_batch, model_fig2)
  --trace 0|1        0: end-to-end metrics (default); 1: per-layer metrics, spans
                     written to <out>/trace_<workload>.json
  --seed <u64>       derives every config seed; 0 = the repo's default seeds
  --seconds <n>      how long one run measures (default 15; 0.25 with --smoke)
  without --workload: run every workload --repeats times (default 3) plus one
  traced pass, each in a fresh child process, and print every metric
  --selfcheck        two such sets back to back, compared against the bounds
  --smoke            shrink every workload (seconds per run)
  --reference        only the P = 16384 erosion leg, checked to the bit against
                     results/BENCH_seed.json (the suite runs it at --seed 0)
  --out <dir>        where trace files and the report go (default benchmark/out)";

/// Parsed flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeats: usize,
    pub selfcheck: bool,
    pub smoke: bool,
    /// Run only the canonical P = 16384 leg against the committed makespan.
    pub reference: bool,
    pub out: PathBuf,
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut seconds = None;
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeats: 3,
        selfcheck: false,
        smoke: false,
        reference: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = number(flag, value()?)?,
            "--seconds" => {
                let given: f64 = number(flag, value()?)?;
                if !(given > 0.0 && given <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {given}"));
                }
                seconds = Some(given);
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--repeats" => {
                parsed.repeats = number(flag, value()?)?;
                if parsed.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--selfcheck" => parsed.selfcheck = true,
            "--smoke" => parsed.smoke = true,
            "--reference" => parsed.reference = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    parsed.seconds = seconds.unwrap_or(if parsed.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    if parsed.workload.is_none() && parsed.trace {
        return Err("--trace needs --workload (the suite always runs its own traced pass)".into());
    }
    if parsed.workload.is_some() && parsed.selfcheck {
        return Err("--selfcheck compares whole suites; drop --workload".into());
    }
    Ok(parsed)
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a =
            args(&["--workload", "erosion_wide", "--seed", "7", "--seconds", "15", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.as_deref(), Some("erosion_wide"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
    }

    #[test]
    fn defaults() {
        let a = args(&[]).unwrap();
        assert_eq!(a.workload, None);
        assert_eq!((a.seed, a.seconds, a.trace, a.repeats), (0, DEFAULT_SECONDS, false, 3));
        assert!(!a.smoke && !a.selfcheck);
        assert_eq!(args(&["--smoke"]).unwrap().seconds, SMOKE_SECONDS);
        assert_eq!(args(&["--smoke", "--seconds", "2"]).unwrap().seconds, 2.0);
    }

    #[test]
    fn unknown_and_malformed_flags_are_rejected() {
        assert!(args(&["--sead", "1"]).unwrap_err().contains("unknown flag"));
        assert!(args(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(args(&["--seed", "-1"]).is_err());
        assert!(args(&["--trace", "2", "--workload", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--repeats", "0"]).is_err());
        assert!(args(&["--trace", "1"]).is_err(), "a traced run names its workload");
        assert!(args(&["--workload", "x", "--selfcheck"]).is_err());
    }
}
