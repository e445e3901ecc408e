//! The whole benchmark in one command: every workload `--repeats` times
//! plus one traced pass, each run in a fresh child process of this binary
//! (so that peak RSS and allocator state are per run), every metric printed
//! by name with its unit, direction and bound, and `--selfcheck`.

use crate::cli::Args;
use crate::json::Json;
use crate::metrics::{repeats_exactly, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::worker_count;
use crate::stats::{median, min_max, within_bound, worse_by, Bound};
use std::collections::BTreeMap;
use std::process::Command;

/// Variables the program reads (`RunConfig::from_env`, the apps' debug
/// switches, the figure bins): removed from every child, and from this
/// process before it measures anything.
pub const SCRUBBED_ENV: [&str; 7] = [
    "ULBA_BACKEND",
    "ULBA_WORKERS",
    "ULBA_HUB_SHARDS",
    "ULBA_QUICK",
    "ULBA_DEBUG",
    "ULBA_DEBUG2",
    "ULBA_DEBUG3",
];

/// One child's parsed result line.
struct ChildResult {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// Run this binary again with `flags`; its last stdout line is the result.
fn child(flags: &[String]) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(flags);
    for name in SCRUBBED_ENV {
        command.env_remove(name);
    }
    // `output` waits for the child to end; its stderr passes through.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("child {flags:?} printed no result"))?;
    let doc = Json::parse(line).map_err(|e| format!("child {flags:?}: bad result line: {e}"))?;
    let number = |key: &str| {
        doc.get(key).and_then(Json::as_f64).ok_or_else(|| format!("child {flags:?}: no {key}"))
    };
    let Some(Json::Obj(pairs)) = doc.get("metrics") else {
        return Err(format!("child {flags:?}: no metrics"));
    };
    let metrics = pairs
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult { attempted: number("attempted")?, failed: number("failed")?, metrics })
}

/// One full set: per workload, the repeats' end-to-end samples and the
/// traced pass's per-layer values.
struct Set {
    end_to_end: BTreeMap<(String, String), Vec<f64>>,
    per_layer: BTreeMap<(String, String), f64>,
    attempted: BTreeMap<String, f64>,
    failed: BTreeMap<String, f64>,
}

fn run_set(args: &Args) -> Result<Set, String> {
    let mut set = Set {
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
    };
    for (workload, _) in WORKLOADS {
        for pass in 0..=args.repeats {
            let traced = pass == args.repeats;
            let mut flags: Vec<String> = [
                "--workload",
                workload,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
                "--out",
                &args.out.to_string_lossy(),
            ]
            .map(String::from)
            .to_vec();
            if args.smoke {
                flags.push("--smoke".into());
            }
            let result = child(&flags)?;
            *set.attempted.entry(workload.into()).or_default() += result.attempted;
            *set.failed.entry(workload.into()).or_default() += result.failed;
            for (name, value) in result.metrics {
                let key = (workload.to_string(), name);
                if traced {
                    set.per_layer.insert(key, value);
                } else {
                    set.end_to_end.entry(key).or_default().push(value);
                }
            }
        }
    }
    Ok(set)
}

/// First line of `program args…`, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Print one set and build its report document. Returns the document and
/// how many checks failed.
fn report(set: &Set, args: &Args) -> (Json, u64) {
    let mut failures = 0;
    let mut workloads = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("\n{workload} — {why}");
        println!(
            "  {:<46} {:>8} {:>7} {:>7} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "better", "bound", "median", "min", "max", "n"
        );
        let mut e2e = Vec::new();
        for m in END_TO_END.iter() {
            let samples = &set.end_to_end[&(workload.to_string(), m.name.to_string())];
            let (lo, hi) = min_max(samples);
            let mid = median(samples);
            println!(
                "  {:<46} {:>8} {:>7} {:>6.1}% {:>14.6} {:>14.6} {:>14.6} {:>3}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.rel * 100.0,
                mid,
                lo,
                hi,
                samples.len()
            );
            // Simulated time is not a measurement: every repeat of a seed
            // must agree to the bit.
            if matches!(m.name, "makespan_virtual_s" | "ulba_speedup_x")
                && lo.to_bits() != hi.to_bits()
            {
                println!("FAILED {workload}: {} differs between repeats: {lo:?} vs {hi:?}", m.name);
                failures += 1;
            }
            e2e.push((
                m.name,
                Json::obj([
                    ("median", Json::Num(mid)),
                    ("min", Json::Num(lo)),
                    ("max", Json::Num(hi)),
                    ("n", Json::Num(samples.len() as f64)),
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.as_str().into())),
                    ("bound", Json::Num(m.bound.rel)),
                ]),
            ));
        }
        let (attempted, failed) = (set.attempted[workload], set.failed[workload]);
        println!(
            "  {:<46} {:>8} {:>7} {:>7} {:>14.6}   ({failed} of {attempted} ops)",
            "failed_frac",
            "frac",
            "lower",
            "0",
            failed / attempted
        );
        if failed > 0.0 {
            failures += 1;
        }
        let mut layers = Vec::new();
        for (name, unit, better) in PER_LAYER.iter() {
            let value = set.per_layer[&(workload.to_string(), name.to_string())];
            println!(
                "  {:<46} {:>8} {:>7} {:>7} {:>14.6}",
                name,
                unit,
                better.as_str(),
                "-",
                value
            );
            layers.push((
                *name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::Str((*unit).into()))]),
            ));
        }
        workloads.push((
            workload,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_frac", Json::Num(failed / attempted)),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
            ]),
        ));
    }
    let meta = Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("workers", Json::Num(worker_count() as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        ("commit", Json::Str(first_line_of("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Num(args.seed as f64)),
        ("repeats", Json::Num(args.repeats as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ]);
    (Json::obj([("meta", meta), ("workloads", Json::obj(workloads))]), failures)
}

/// Compare two sets of the same build: per workload × end-to-end metric,
/// both medians, their difference and the allowance.
fn self_check(a: &Set, b: &Set) -> u64 {
    let mut failures = 0;
    println!("\nselfcheck: two sets of the same build");
    println!(
        "  {:<16} {:<20} {:>14} {:>14} {:>12} {:>12}",
        "workload", "metric", "median A", "median B", "B worse by", "allowed"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter() {
            let key = (workload.to_string(), m.name.to_string());
            let (ma, mb) = (median(&a.end_to_end[&key]), median(&b.end_to_end[&key]));
            // Simulated time must agree to the bit between the sets.
            let exact = matches!(m.name, "makespan_virtual_s" | "ulba_speedup_x");
            let bound = if exact { Bound { rel: 0.0, floor: 0.0 } } else { m.bound };
            let allowed = bound.allowance(ma);
            // Neither set is the baseline: the bound holds in both directions.
            let ok = within_bound(m.better, bound, ma, mb) && within_bound(m.better, bound, mb, ma);
            println!(
                "  {:<16} {:<20} {:>14.6} {:>14.6} {:>12.6} {:>12.6}{}",
                workload,
                m.name,
                ma,
                mb,
                worse_by(m.better, ma, mb),
                allowed,
                if ok { "" } else { "  FAILED" }
            );
            failures += u64::from(!ok);
        }
        for (name, _, _) in PER_LAYER.iter().filter(|m| repeats_exactly(m.0)) {
            let key = (workload.to_string(), name.to_string());
            if a.per_layer[&key].to_bits() != b.per_layer[&key].to_bits() {
                println!(
                    "  FAILED {workload} {name}: {:?} vs {:?}",
                    a.per_layer[&key], b.per_layer[&key]
                );
                failures += 1;
            }
        }
    }
    failures
}

/// Run the suite; returns the process exit code.
pub fn run(args: &Args) -> Result<u8, String> {
    let first = run_set(args)?;
    let (doc, mut failures) = report(&first, args);
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let path = args.out.join("report.json");
    std::fs::write(&path, doc.write()? + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {} and one trace_<workload>.json per workload beside it", path.display());

    if args.selfcheck {
        let second = run_set(args)?;
        failures += report(&second, args).1;
        failures += self_check(&first, &second);
    }
    // The repo's own drift gate, default seeds only: the canonical
    // P = 16384 leg against the committed results/BENCH_seed.json.
    if args.seed == 0 && !args.smoke {
        let result = child(&["--reference".to_string()])?;
        failures += result.failed as u64;
    }
    println!("\n{}", if failures == 0 { "all checks passed" } else { "SOME CHECKS FAILED" });
    Ok(u8::from(failures > 0))
}
