//! Result output: aligned console tables, CSV files under `results/`, and
//! minimal machine-readable JSON for the CI perf trajectory (hand-rolled —
//! the vendored `serde` stub has no `serde_json`).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Directory where CSVs are written (`ULBA_RESULTS` env override,
/// `results/` by default).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("ULBA_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// Write a CSV file `results/<name>.csv`; returns the path.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("cannot create CSV file");
    writeln!(f, "{}", header.join(",")).expect("write CSV header");
    for row in rows {
        debug_assert_eq!(row.len(), header.len(), "row width mismatch");
        writeln!(f, "{}", row.join(",")).expect("write CSV row");
    }
    path
}

/// Print an aligned console table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for row in rows {
        println!("{}", line(row));
    }
}

/// A crude console bar for histogram/utilization rendering.
pub fn bar(fraction: f64, width: usize) -> String {
    let n = ((fraction.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < n { '#' } else { ' ' });
    }
    s
}

/// Quick-mode switch shared by all harnesses: set `ULBA_QUICK=1` or pass
/// `--smoke` on the command line to shrink instance counts / seeds for
/// smoke runs (as CI does for the figure pipelines).
pub fn quick_mode() -> bool {
    std::env::var_os("ULBA_QUICK").is_some_and(|v| v != "0")
        || std::env::args_os().skip(1).any(|a| a == "--smoke")
}

/// Environment override for a numeric knob (e.g. `ULBA_INSTANCES=200`).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Value-taking flags every erosion-driven study binary accepts (the
/// `apply_cli_backend` + `cli_ranks` + `--json` set).
pub const EROSION_STUDY_FLAGS: &[&str] =
    &["--backend", "--workers", "--hub-shards", "--ranks", "--json"];

/// Boolean flags every figure binary accepts.
pub const SMOKE_FLAGS: &[&str] = &["--smoke"];

/// Pure core of [`enforce_cli_flags`], testable without `process::exit`:
/// check each argument of `args` (binary name already stripped) against the
/// bin's known flags and return the first offender's diagnostic.
///
/// Catches the two silent-default holes `cli_value`'s scan leaves open: a
/// typo'd flag *name* (`--gosip-wire delta`) matches nothing, and a
/// value-taking flag as the last argument has no value — in both cases the
/// `unwrap_or_default()` at the call site would quietly run the study with
/// the default, which is exactly the wrong behavior for a benchmark.
pub fn audit_args<I>(args: I, value_flags: &[&str], bool_flags: &[&str]) -> Result<(), String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if bool_flags.contains(&arg.as_str()) {
            continue;
        }
        if value_flags.contains(&arg.as_str()) {
            if args.next().is_none() {
                return Err(format!("flag `{arg}` is missing its value"));
            }
            continue;
        }
        if let Some((flag, _)) = arg.split_once('=') {
            if value_flags.contains(&flag) {
                continue;
            }
            if bool_flags.contains(&flag) {
                return Err(format!("flag `{flag}` takes no value (got `{arg}`)"));
            }
        }
        let known: Vec<&str> = value_flags.iter().chain(bool_flags).copied().collect();
        return Err(format!("unknown argument `{arg}` (known flags: {})", known.join(", ")));
    }
    Ok(())
}

/// Abort with a usage message (exit 2) when argv strays outside the bin's
/// known flag set — every figure binary calls this first, so an invalid
/// flag fails fast with the offending string instead of silently becoming
/// the default. See [`audit_args`] for what is checked.
pub fn enforce_cli_flags(value_flags: &[&str], bool_flags: &[&str]) {
    if let Err(err) = audit_args(std::env::args().skip(1), value_flags, bool_flags) {
        eprintln!("{err}");
        std::process::exit(2);
    }
}

/// Value of a `--flag <value>` / `--flag=<value>` command-line option.
fn cli_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next();
        }
        if let Some(value) = arg.strip_prefix(&format!("{flag}=")) {
            return Some(value.to_string());
        }
    }
    None
}

/// Parse one backend name; the error is the usage message naming the
/// valid ones.
fn parse_backend(raw: &str) -> Result<ulba_runtime::Backend, String> {
    raw.parse()
        .map_err(|()| format!("unknown backend `{raw}` (expected `sequential` or `parallel`)"))
}

/// [`parse_backend`], aborting (exit 2) with its usage message rather than
/// silently running on the wrong backend.
fn backend_or_exit(raw: &str) -> ulba_runtime::Backend {
    parse_backend(raw).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    })
}

/// Runtime backend selected on the command line (`--backend sequential`
/// or `--backend parallel`), if any.
pub fn cli_backend() -> Option<ulba_runtime::Backend> {
    cli_value("--backend").map(|raw| backend_or_exit(&raw))
}

/// Backends selected on the command line as a comma-separated list
/// (`--backends sequential,parallel`), if any — for studies that compare
/// backends side by side in one invocation.
pub fn cli_backends() -> Option<Vec<ulba_runtime::Backend>> {
    let raw = cli_value("--backends")?;
    let backends: Vec<ulba_runtime::Backend> = raw
        .split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(backend_or_exit)
        .collect();
    if backends.is_empty() {
        eprintln!("--backends needs at least one backend");
        std::process::exit(2);
    }
    Some(backends)
}

/// Output path of the machine-readable JSON report (`--json <path>`), if
/// requested on the command line.
pub fn cli_json_path() -> Option<PathBuf> {
    cli_value("--json").map(PathBuf::from)
}

/// Gossip wire format selected on the command line (`--gossip-wire full`,
/// `--gossip-wire delta` or `--gossip-wire delta:<N>` with anti-entropy
/// period `N`), if any.
pub fn cli_gossip_wire() -> Option<ulba_core::gossip::GossipWire> {
    cli_value("--gossip-wire").map(|raw| {
        raw.parse().unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        })
    })
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), if the platform exposes it. Monotone over the
/// process lifetime — in a multi-run invocation each reading covers
/// everything run so far, which is the honest budget-gate semantics.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Apply `--backend` (and `--workers` / `--hub-shards`) to the whole
/// process by exporting `ULBA_BACKEND`/`ULBA_WORKERS`/`ULBA_HUB_SHARDS`,
/// so every `RunConfig::new` in the figure pipeline picks them up without
/// threading a parameter through each study function.
pub fn apply_cli_backend() {
    if let Some(backend) = cli_backend() {
        std::env::set_var("ULBA_BACKEND", backend.to_string());
    }
    if let Some(workers) = cli_value("--workers") {
        if workers.parse::<usize>().is_err() {
            eprintln!("invalid --workers `{workers}` (expected a thread count)");
            std::process::exit(2);
        }
        std::env::set_var("ULBA_WORKERS", workers);
    }
    if let Some(shards) = cli_value("--hub-shards") {
        match shards.parse::<usize>() {
            Ok(n) if n >= 1 => std::env::set_var("ULBA_HUB_SHARDS", shards),
            _ => {
                eprintln!("invalid --hub-shards `{shards}` (expected a shard count >= 1)");
                std::process::exit(2);
            }
        }
    }
}

// --- schema-3 perf reports ----------------------------------------------

/// One row of the machine-readable schema-3 perf report every
/// erosion-driven study emits (`results/BENCH_<study>.json`): identity of
/// the measurement (backend / P / policy / hub shards / gossip wire), the
/// real wall-clock cost of simulating it, the virtual-time results, and
/// the memory story.
///
/// Serial studies (weak scaling) record the per-run wall clock in
/// `sim_wall_s`; batch studies submit their whole sweep to one shared
/// [`JobServer`](ulba_runtime::JobServer) at once, so per-run attribution
/// is meaningless and every row carries the wall clock of the whole
/// batched sweep instead.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// The backend that drove the run (`sequential` / `parallel`).
    pub backend: String,
    /// PE count.
    pub pes: usize,
    /// Policy (or study-arm) label.
    pub policy: String,
    /// Resolved leaf shard count of the rendezvous hub.
    pub hub_shards: usize,
    /// Gossip wire-format label (`full` / `delta:<N>`).
    pub gossip_wire: String,
    /// Real wall-clock seconds spent simulating (see the type docs for
    /// the serial-vs-batch semantics).
    pub sim_wall_s: f64,
    /// Virtual makespan in seconds.
    pub makespan_virtual_s: f64,
    /// Number of LB steps performed.
    pub lb_calls: usize,
    /// Mean PE utilization over the run.
    pub mean_utilization: f64,
    /// Load-imbalance factor λ: max busy time over mean busy time.
    pub busy_max_over_mean: f64,
    /// Fraction of total accounted virtual time spent idle.
    pub idle_fraction: f64,
    /// Aggregate WIR-database entries resident at run end.
    pub db_entries_total: u64,
    /// Process peak RSS in bytes (`VmHWM`; `None` off Linux). Monotone
    /// over the process lifetime.
    pub peak_rss_bytes: Option<u64>,
    /// Target per-iteration imbalance factor λ = max/mean of the workload
    /// generator (scenario studies only; `None` elsewhere).
    pub lambda_target: Option<f64>,
    /// Achieved per-iteration λ of the generated work tables, verified
    /// analytically by the generator (scenario studies only).
    pub lambda_achieved: Option<f64>,
}

/// The measurements every run of the LB driver shares, borrowed from an
/// application's flat result — what [`perf_row`] reads.
pub struct RunView<'a> {
    backend: ulba_runtime::Backend,
    hub_shards: usize,
    makespan: f64,
    lb_calls: usize,
    mean_utilization: f64,
    db_entries_total: u64,
    rank_metrics: &'a [ulba_runtime::RankMetrics],
    /// The generator's `(target, achieved)` λ (scenario runs only).
    lambda: Option<(f64, f64)>,
}

impl<'a> From<&'a ulba_erosion::ExperimentResult> for RunView<'a> {
    fn from(r: &'a ulba_erosion::ExperimentResult) -> Self {
        Self {
            backend: r.backend,
            hub_shards: r.hub_shards,
            makespan: r.makespan,
            lb_calls: r.lb_calls,
            mean_utilization: r.mean_utilization,
            db_entries_total: r.db_entries_total,
            rank_metrics: &r.rank_metrics,
            lambda: None,
        }
    }
}

impl<'a> From<&'a ulba_scenario::ScenarioResult> for RunView<'a> {
    fn from(r: &'a ulba_scenario::ScenarioResult) -> Self {
        Self {
            backend: r.backend,
            hub_shards: r.hub_shards,
            makespan: r.makespan,
            lb_calls: r.lb_calls,
            mean_utilization: r.mean_utilization,
            db_entries_total: r.db_entries_total,
            rank_metrics: &r.rank_metrics,
            lambda: Some((r.lambda_target, r.lambda_achieved)),
        }
    }
}

/// Build a [`PerfRow`] from one experiment (erosion or scenario), deriving
/// the imbalance statistics from the per-rank metrics; scenario rows carry
/// the generator's λ accounting. The backend label is the one the run
/// resolved to, never a raw flag or environment string.
pub fn perf_row<'a>(
    policy: &str,
    pes: usize,
    gossip_wire: &str,
    res: impl Into<RunView<'a>>,
    sim_wall_s: f64,
) -> PerfRow {
    let res: RunView<'a> = res.into();
    let busy_sum: f64 = res.rank_metrics.iter().map(|m| m.busy).sum();
    let busy_mean = busy_sum / res.rank_metrics.len().max(1) as f64;
    let busy_max = res.rank_metrics.iter().map(|m| m.busy).fold(0.0f64, f64::max);
    let busy_max_over_mean = if busy_mean > 0.0 { busy_max / busy_mean } else { 1.0 };
    let total: f64 = res.rank_metrics.iter().map(|m| m.total()).sum();
    let idle_fraction = if total > 0.0 {
        res.rank_metrics.iter().map(|m| m.idle).sum::<f64>() / total
    } else {
        0.0
    };
    PerfRow {
        backend: res.backend.to_string(),
        pes,
        policy: policy.to_string(),
        hub_shards: res.hub_shards,
        gossip_wire: gossip_wire.to_string(),
        sim_wall_s,
        makespan_virtual_s: res.makespan,
        lb_calls: res.lb_calls,
        mean_utilization: res.mean_utilization,
        busy_max_over_mean,
        idle_fraction,
        db_entries_total: res.db_entries_total,
        peak_rss_bytes: peak_rss_bytes(),
        lambda_target: res.lambda.map(|l| l.0),
        lambda_achieved: res.lambda.map(|l| l.1),
    }
}

/// Serialize rows as a schema-3 perf report and write it to `path`.
/// `summary` entries are extra top-level key/value pairs (values must be
/// pre-rendered JSON) inserted between `smoke` and `rows` — the job-server
/// study records its serial-vs-batched wall clocks there.
///
/// Schema 3 = schema 2 plus `gossip_wire`, `db_entries_total` and
/// `peak_rss_bytes` (nullable).
pub fn write_schema3_report(
    study: &str,
    smoke: bool,
    summary: &[(&str, String)],
    rows: &[PerfRow],
    path: &Path,
) -> PathBuf {
    let mut doc = String::from("{\n");
    doc.push_str("  \"schema\": 3,\n");
    doc.push_str(&format!("  \"study\": \"{}\",\n", json_escape(study)));
    doc.push_str(&format!("  \"smoke\": {smoke},\n"));
    for (key, value) in summary {
        doc.push_str(&format!("  \"{}\": {value},\n", json_escape(key)));
    }
    doc.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        // Scenario rows carry the generator's target/achieved λ; other
        // studies omit the keys so their row shape is unchanged.
        let lambda = match (r.lambda_target, r.lambda_achieved) {
            (None, None) => String::new(),
            (t, a) => format!(
                ", \"lambda_target\": {}, \"lambda_achieved\": {}",
                t.map_or_else(|| "null".to_string(), json_f64),
                a.map_or_else(|| "null".to_string(), json_f64),
            ),
        };
        doc.push_str(&format!(
            "    {{\"backend\": \"{}\", \"pes\": {}, \"policy\": \"{}\", \
             \"hub_shards\": {}, \"gossip_wire\": \"{}\", \
             \"sim_wall_s\": {}, \"makespan_virtual_s\": {}, \"lb_calls\": {}, \
             \"mean_utilization\": {}, \"busy_max_over_mean\": {}, \
             \"idle_fraction\": {}, \"db_entries_total\": {}, \
             \"peak_rss_bytes\": {}{lambda}}}{}\n",
            json_escape(&r.backend),
            r.pes,
            json_escape(&r.policy),
            r.hub_shards,
            json_escape(&r.gossip_wire),
            json_f64(r.sim_wall_s),
            json_f64(r.makespan_virtual_s),
            r.lb_calls,
            json_f64(r.mean_utilization),
            json_f64(r.busy_max_over_mean),
            json_f64(r.idle_fraction),
            r.db_entries_total,
            r.peak_rss_bytes.map_or_else(|| "null".to_string(), |b| b.to_string()),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    doc.push_str("  ]\n}");
    let written = write_json(path, &doc);
    println!("wrote {}", written.display());
    written
}

/// Output path of a study's schema-3 report: `--json <path>` when given,
/// `results/BENCH_<study>.json` otherwise — every erosion-driven figure
/// binary emits its report unconditionally.
pub fn json_report_path(study: &str) -> PathBuf {
    cli_json_path().unwrap_or_else(|| results_dir().join(format!("BENCH_{study}.json")))
}

// --- minimal JSON emission ----------------------------------------------

/// Escape a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Write a pre-rendered JSON document to `path` (creating parent
/// directories), returning the path.
pub fn write_json(path: &Path, document: &str) -> PathBuf {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).expect("cannot create JSON output directory");
        }
    }
    let mut f = fs::File::create(path).expect("cannot create JSON file");
    writeln!(f, "{document}").expect("write JSON");
    path.to_path_buf()
}

/// PE counts selected on the command line (`--ranks 64,256,1024`), if any;
/// overrides a study's default sweep.
pub fn cli_ranks() -> Option<Vec<usize>> {
    let raw = cli_value("--ranks")?;
    let pes: Vec<usize> = raw
        .split(',')
        .map(|part| {
            part.trim().parse().unwrap_or_else(|_| {
                eprintln!("invalid --ranks entry `{part}` (expected comma-separated integers)");
                std::process::exit(2);
            })
        })
        .collect();
    if pes.is_empty() {
        eprintln!("--ranks needs at least one PE count");
        std::process::exit(2);
    }
    Some(pes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn audit_accepts_known_flags_in_both_spellings() {
        let value = ["--gossip-wire", "--ranks"];
        audit_args(args(&["--gossip-wire", "delta", "--smoke"]), &value, SMOKE_FLAGS).unwrap();
        audit_args(args(&["--gossip-wire=delta:4", "--ranks=8,16"]), &value, SMOKE_FLAGS).unwrap();
        audit_args(args(&[]), &value, SMOKE_FLAGS).unwrap();
    }

    #[test]
    fn unknown_backend_message_names_the_offender_and_the_two_valid_names() {
        assert_eq!(parse_backend("seq"), Ok(ulba_runtime::Backend::Sequential));
        assert_eq!(parse_backend("parallel"), Ok(ulba_runtime::Backend::Parallel));
        // `threaded` was a backend once; now it is an unknown name like any other.
        for raw in ["threaded", "fibers"] {
            let err = parse_backend(raw).unwrap_err();
            assert_eq!(
                err,
                format!("unknown backend `{raw}` (expected `sequential` or `parallel`)")
            );
        }
    }

    #[test]
    fn audit_rejects_typoed_flag_with_the_offending_string() {
        // Regression: `--gosip-wire delta` used to be silently ignored and
        // the study ran on the default wire.
        let err = audit_args(args(&["--gosip-wire", "delta"]), &["--gossip-wire"], SMOKE_FLAGS)
            .unwrap_err();
        assert!(err.contains("--gosip-wire"), "diagnostic must name the offender: {err}");
        assert!(err.contains("--gossip-wire"), "diagnostic must list the known flags: {err}");
    }

    #[test]
    fn audit_rejects_missing_value_and_stray_positionals() {
        let value = ["--ranks"];
        let err = audit_args(args(&["--ranks"]), &value, SMOKE_FLAGS).unwrap_err();
        assert!(err.contains("missing its value"), "{err}");
        let err = audit_args(args(&["detla"]), &value, SMOKE_FLAGS).unwrap_err();
        assert!(err.contains("detla"), "{err}");
        let err = audit_args(args(&["--smoke=1"]), &value, SMOKE_FLAGS).unwrap_err();
        assert!(err.contains("takes no value"), "{err}");
    }

    #[test]
    fn bar_renders_fraction() {
        assert_eq!(bar(0.5, 4), "##  ");
        assert_eq!(bar(0.0, 3), "   ");
        assert_eq!(bar(1.5, 3), "###");
    }

    #[test]
    fn env_usize_parses() {
        std::env::set_var("ULBA_TEST_KNOB", "42");
        assert_eq!(env_usize("ULBA_TEST_KNOB", 7), 42);
        assert_eq!(env_usize("ULBA_TEST_KNOB_MISSING", 7), 7);
    }

    #[test]
    fn peak_rss_probe_is_sane() {
        // Linux exposes VmHWM; elsewhere the probe degrades to None. Either
        // way it must not panic, and a reading must be positive.
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0);
        }
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_write_roundtrip() {
        let dir = std::env::temp_dir().join("ulba-test-json");
        let path = dir.join("nested").join("out.json");
        let written = write_json(&path, "{\"ok\": true}");
        let content = std::fs::read_to_string(written).unwrap();
        assert_eq!(content, "{\"ok\": true}\n");
    }

    #[test]
    fn csv_roundtrip() {
        std::env::set_var("ULBA_RESULTS", std::env::temp_dir().join("ulba-test-results"));
        let p = write_csv(
            "unit-test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::env::remove_var("ULBA_RESULTS");
    }
}
