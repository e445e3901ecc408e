//! The CI gates over schema-3 reports, as pure functions from a [`Report`]
//! (and the committed seed rows) to [`Finding`]s. The `bench_gate` binary is
//! a thin shell over [`run`]; the studies call the same functions on the
//! report they are about to write. Every threshold lives here and nowhere
//! else.

use crate::report::{PerfRow, Report};
use std::collections::BTreeSet;

/// Virtual makespans must match the seed to this relative error: refactors
/// change memory and scheduling, never semantics.
const DRIFT_TOLERANCE: f64 = 1e-9;
/// Whole-process peak-RSS ceiling. The measured peak at `P = 65536` is
/// ~0.7 GiB and ~7.1 GiB at `P = 2^20`; dense per-rank databases would need
/// ~103 GiB at 65536 alone, so any quadratic regression blows through it.
const RSS_BUDGET_BYTES: u64 = 8 << 30;
/// Achieved λ may stray this far (relative) from its target.
const LAMBDA_TOLERANCE: f64 = ulba_scenario::LAMBDA_TOLERANCE;
/// The full scenario grid: 5 families × 2 policies × 2 wires × 2 backends.
const GRID_MIN_ROWS: usize = 40;
/// A report with fewer scenario families lost part of the sweep.
const GRID_MIN_FAMILIES: usize = 4;
/// Slack on the parallel wall against another report of the same run
/// (warn) and against the committed seed (hard).
const WALL_SLACK_VS_OTHER: f64 = 1.05;
const WALL_SLACK_VS_SEED: f64 = 1.10;

/// How much a [`Finding`] matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A progress line.
    Info,
    /// Printed as `::warning::`; runner load and core counts vary.
    Warn,
    /// Printed as `::error::`; the gate fails.
    Hard,
}

/// One line of a gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Whether it fails the gate.
    pub severity: Severity,
    /// The line, without its `::error::` / `::warning::` prefix.
    pub message: String,
}

use Severity::{Hard, Info, Warn};

fn finding(severity: Severity, message: String) -> Finding {
    Finding { severity, message }
}

fn hard(message: String) -> Finding {
    finding(Hard, message)
}

fn info(message: String) -> Finding {
    finding(Info, message)
}

/// `true` if any finding is [`Severity::Hard`].
pub fn failed(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Hard)
}

/// A gate the `bench_gate` binary accepts by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// [`drift`]
    Drift,
    /// [`rss`]
    Rss,
    /// [`entries`]
    Entries,
    /// [`lambda`]
    Lambda,
    /// [`scenario_grid`]
    ScenarioGrid,
    /// [`ranks`]
    Ranks(usize),
    /// [`wall`]
    Wall,
    /// [`batch_speedup`]
    BatchSpeedup,
}

impl std::str::FromStr for Gate {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        Ok(match name {
            "drift" => Gate::Drift,
            "rss" => Gate::Rss,
            "entries" => Gate::Entries,
            "lambda" => Gate::Lambda,
            "scenario-grid" => Gate::ScenarioGrid,
            "wall" => Gate::Wall,
            "batch-speedup" => Gate::BatchSpeedup,
            _ => match name.strip_prefix("ranks:").and_then(|p| p.parse().ok()) {
                Some(pes) => Gate::Ranks(pes),
                None => {
                    return Err(format!(
                        "unknown gate `{name}` (valid: drift, rss, entries, lambda, \
                         scenario-grid, ranks:<P>, wall, batch-speedup)"
                    ))
                }
            },
        })
    }
}

/// Run `gates` over `reports` (`(label, report)`, the label prefixes each
/// message). Every gate checks each report on its own, except `wall`, which
/// judges the first report and compares it against the others.
pub fn run(gates: &[Gate], reports: &[(String, Report)], seed: &[PerfRow]) -> Vec<Finding> {
    let others: Vec<&Report> = reports.iter().skip(1).map(|(_, report)| report).collect();
    let mut out = Vec::new();
    for gate in gates {
        let subjects = if *gate == Gate::Wall { &reports[..reports.len().min(1)] } else { reports };
        for (label, report) in subjects {
            let findings = match gate {
                Gate::Drift => drift(report, seed),
                Gate::Rss => rss(report),
                Gate::Entries => entries(report),
                Gate::Lambda => lambda(report),
                Gate::ScenarioGrid => scenario_grid(report),
                Gate::Ranks(pes) => ranks(report, *pes),
                Gate::Wall => wall(report, &others, seed),
                Gate::BatchSpeedup => batch_speedup(report),
            };
            out.extend(
                findings
                    .into_iter()
                    .map(|f| Finding { message: format!("[{label}] {}", f.message), ..f }),
            );
        }
    }
    out
}

/// HARD — every row whose `(backend, policy, pes)` is in the seed must
/// reproduce the seed's virtual makespan, and at least one row must match a
/// seed key (a report without the gate legs proves nothing).
pub fn drift(report: &Report, seed: &[PerfRow]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut matched = 0;
    for row in &report.rows {
        let key = (&row.backend, &row.policy, row.pes);
        let Some(want) = seed.iter().find(|s| (&s.backend, &s.policy, s.pes) == key) else {
            continue;
        };
        matched += 1;
        let (got, want) = (row.makespan_virtual_s, want.makespan_virtual_s);
        if (got - want).abs() > DRIFT_TOLERANCE * want.abs().max(1e-30) {
            out.push(hard(format!(
                "{key:?} virtual makespan drifted from the seed baseline: {got:?} vs {want:?}"
            )));
        }
    }
    if matched == 0 {
        out.push(hard("no row matched a seed-baseline key — the gate legs are missing".into()));
    }
    out.push(info(format!("{matched} rows checked against the seed baseline")));
    out
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// HARD — every row's peak RSS fits the budget (`null`: no probe, passes).
pub fn rss(report: &Report) -> Vec<Finding> {
    let mut out = Vec::new();
    for row in &report.rows {
        match row.peak_rss_bytes {
            Some(bytes) if bytes > RSS_BUDGET_BYTES => out.push(hard(format!(
                "P={} {} peak RSS {:.2} GiB exceeds the {:.0} GiB budget",
                row.pes,
                row.policy,
                gib(bytes),
                gib(RSS_BUDGET_BYTES)
            ))),
            _ => {}
        }
    }
    let peak = report.rows.iter().filter_map(|r| r.peak_rss_bytes).max();
    out.push(info(peak.map_or("peak RSS n/a".into(), |b| format!("peak RSS {:.2} GiB", gib(b)))));
    out
}

/// HARD — aggregate WIR-database entries stay below `pes²` (what dense
/// per-rank databases hold).
pub fn entries(report: &Report) -> Vec<Finding> {
    let check = |row: &PerfRow| {
        let dense = (row.pes as u128).pow(2);
        let severity = if u128::from(row.db_entries_total) >= dense { Hard } else { Info };
        let (pes, policy, entries) = (row.pes, &row.policy, row.db_entries_total);
        finding(severity, format!("P={pes} {policy}: {entries} db entries, dense would be {dense}"))
    };
    report.rows.iter().map(check).collect()
}

fn scenario_rows(report: &Report) -> impl Iterator<Item = &PerfRow> {
    report.rows.iter().filter(|r| r.lambda_target.is_some())
}

/// HARD — every scenario row's achieved λ is within tolerance of its target.
pub fn lambda(report: &Report) -> Vec<Finding> {
    let mut out = Vec::new();
    for row in scenario_rows(report) {
        let (target, achieved) = (row.lambda_target.unwrap_or(f64::NAN), row.lambda_achieved);
        if !achieved.is_some_and(|a| (a - target).abs() <= LAMBDA_TOLERANCE * target) {
            out.push(hard(format!(
                "{} achieved λ {achieved:?} strays more than {:.0}% from target {target:?}",
                row.policy,
                LAMBDA_TOLERANCE * 100.0
            )));
        }
    }
    out.push(info(format!("{} scenario rows λ-checked", scenario_rows(report).count())));
    out
}

/// HARD — the scenario rows are the full grid: enough rows, both backends,
/// enough families (the label before `+`).
pub fn scenario_grid(report: &Report) -> Vec<Finding> {
    let mut out = Vec::new();
    let rows = scenario_rows(report).count();
    if rows < GRID_MIN_ROWS {
        out.push(hard(format!(
            "expected the full family × policy × wire × backend grid \
             (≥ {GRID_MIN_ROWS} scenario rows), got {rows}"
        )));
    }
    let backends: BTreeSet<&str> = scenario_rows(report).map(|r| r.backend.as_str()).collect();
    if !backends.iter().eq(["parallel", "sequential"].iter()) {
        out.push(hard(format!("scenario rows must cover both backends, got {backends:?}")));
    }
    let families: BTreeSet<&str> =
        scenario_rows(report).map(|r| r.policy.split('+').next().unwrap_or_default()).collect();
    if families.len() < GRID_MIN_FAMILIES {
        out.push(hard(format!(
            "fewer than {GRID_MIN_FAMILIES} scenario families in the report: {families:?}"
        )));
    }
    out.push(info(format!("{rows} scenario rows across {} families", families.len())));
    out
}

/// HARD — every row was run at `pes` ranks (the million-rank leg).
pub fn ranks(report: &Report, pes: usize) -> Vec<Finding> {
    let stray = report.rows.iter().filter(|r| r.pes != pes);
    stray.map(|r| hard(format!("unexpected row P={} in the P={pes} leg", r.pes))).collect()
}

fn wall_sum(rows: &[PerfRow], backend: &str) -> f64 {
    rows.iter().filter(|r| r.backend == backend).filter_map(|r| r.sim_wall_s).sum()
}

/// The wall trajectory of `report`'s parallel rows. Not faster than its
/// sequential rows: HARD when every timed parallel row ran as two or more
/// blocks (`hub_shards ≥ 2`, i.e. on two or more workers) — a same-run,
/// same-machine ratio the pool must win — and a warning on one core, where
/// it cannot. Warn if slower (beyond slack) than the parallel rows of one
/// of `others` (the whole job as one block); HARD if slower (beyond slack)
/// than the seed's.
pub fn wall(report: &Report, others: &[&Report], seed: &[PerfRow]) -> Vec<Finding> {
    let seq = wall_sum(&report.rows, "sequential");
    let par = wall_sum(&report.rows, "parallel");
    let seed_par = wall_sum(seed, "parallel");
    let mut out = vec![info(format!(
        "sequential {seq:.2}s, parallel {par:.2}s ({:.2}x), seed parallel {seed_par:.2}s",
        seq / par
    ))];
    if par >= seq {
        let mut timed =
            report.rows.iter().filter(|r| r.backend == "parallel" && r.sim_wall_s.is_some());
        let multi_worker = seq > 0.0 && timed.all(|r| r.hub_shards >= 2);
        let message = format!("parallel was not faster than sequential ({par:.2}s vs {seq:.2}s)");
        out.push(finding(if multi_worker { Hard } else { Warn }, message));
    }
    for other in others {
        let other_par = wall_sum(&other.rows, "parallel");
        if other_par > 0.0 && par > other_par * WALL_SLACK_VS_OTHER {
            let message =
                format!("parallel {par:.2}s is slower than the other report's {other_par:.2}s");
            out.push(finding(Warn, message));
        }
    }
    let allowed = seed_par * WALL_SLACK_VS_SEED;
    if seed_par > 0.0 && par > allowed {
        out.push(hard(format!(
            "parallel run regressed against the committed seed baseline \
             ({par:.2}s vs {seed_par:.2}s, allowed {allowed:.2}s)"
        )));
    }
    out
}

/// Warn — the batched sweep should beat one-pool-per-run; an absent
/// (`null`) speedup warns too.
pub fn batch_speedup(report: &Report) -> Vec<Finding> {
    let s = &report.summary;
    let severity = if s.speedup.is_some_and(|x| x > 1.0) { Info } else { Warn };
    let message = format!(
        "batched sweep vs one-pool-per-run: speedup {:?} (serial {:?}s, batched {:?}s)",
        s.speedup, s.serial_wall_s, s.batch_wall_s
    );
    vec![finding(severity, message)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Summary;
    use std::path::Path;

    fn row(backend: &str, policy: &str, pes: usize, makespan: f64) -> PerfRow {
        PerfRow {
            backend: backend.into(),
            pes,
            policy: policy.into(),
            hub_shards: 1,
            gossip_wire: "delta:32".into(),
            sim_wall_s: Some(10.0),
            makespan_virtual_s: makespan,
            lb_calls: 1,
            mean_utilization: 0.5,
            busy_max_over_mean: 1.1,
            idle_fraction: 0.4,
            db_entries_total: 10 * pes as u64,
            peak_rss_bytes: Some(1 << 30),
            lambda_target: None,
            lambda_achieved: None,
        }
    }

    fn report(rows: Vec<PerfRow>) -> Report {
        Report { study: "fixture".into(), smoke: true, summary: Summary::default(), rows }
    }

    /// `(hard, warn)` counts.
    fn verdict(findings: &[Finding]) -> (usize, usize) {
        let count = |s| findings.iter().filter(|f| f.severity == s).count();
        assert_eq!(failed(findings), count(Hard) > 0);
        (count(Hard), count(Warn))
    }

    fn seed() -> Vec<PerfRow> {
        vec![row("sequential", "ulba", 16384, 0.125), row("parallel", "ulba", 16384, 0.125)]
    }

    #[test]
    fn drift_is_relative_to_the_seed_and_needs_a_matching_key() {
        let with = |makespan| report(vec![row("parallel", "ulba", 16384, makespan)]);
        assert_eq!(verdict(&drift(&with(0.125), &seed())), (0, 0));
        assert_eq!(verdict(&drift(&with(0.125 * (1.0 + 1e-10)), &seed())), (0, 0));
        assert_eq!(verdict(&drift(&with(0.125 * (1.0 + 2e-9)), &seed())), (1, 0));
        assert_eq!(verdict(&drift(&with(0.125 * (1.0 - 2e-9)), &seed())), (1, 0));
        // Rows outside the seed's keys are not judged, but one must match.
        let mut mixed = with(0.125);
        mixed.rows.push(row("parallel", "ulba", 8, 99.0));
        assert_eq!(verdict(&drift(&mixed, &seed())), (0, 0));
        for stranger in
            [row("parallel", "ulba", 8, 0.125), row("parallel", "standard", 16384, 0.125)]
        {
            let findings = drift(&report(vec![stranger]), &seed());
            assert_eq!(verdict(&findings), (1, 0));
            assert!(findings[0].message.contains("no row matched a seed-baseline key"));
        }
    }

    #[test]
    fn rss_budget_passes_null_and_fails_over() {
        let with =
            |rss| report(vec![PerfRow { peak_rss_bytes: rss, ..row("parallel", "ulba", 8, 1.0) }]);
        assert_eq!(verdict(&rss(&with(None))), (0, 0));
        assert_eq!(verdict(&rss(&with(Some(RSS_BUDGET_BYTES)))), (0, 0));
        assert_eq!(verdict(&rss(&with(Some(RSS_BUDGET_BYTES + 1)))), (1, 0));
    }

    #[test]
    fn entries_must_stay_below_pes_squared() {
        let with =
            |n| report(vec![PerfRow { db_entries_total: n, ..row("parallel", "ulba", 256, 1.0) }]);
        assert_eq!(verdict(&entries(&with(256 * 256 - 1))), (0, 0));
        assert_eq!(verdict(&entries(&with(256 * 256))), (1, 0));
        // 2^20 ranks: the square does not overflow.
        let million =
            PerfRow { db_entries_total: u64::MAX, ..row("parallel", "ulba", 1 << 20, 1.0) };
        assert_eq!(verdict(&entries(&report(vec![million]))), (1, 0));
    }

    fn scenario(backend: &str, family: &str, achieved: Option<f64>) -> PerfRow {
        let policy = format!("{family}+standard");
        PerfRow {
            lambda_target: Some(4.0),
            lambda_achieved: achieved,
            ..row(backend, &policy, 8, 1.0)
        }
    }

    #[test]
    fn lambda_tolerance_is_relative_to_the_target() {
        let with = |achieved| {
            report(vec![scenario("parallel", "bursty", achieved), row("parallel", "ulba", 8, 1.0)])
        };
        assert_eq!(verdict(&lambda(&with(Some(4.0)))), (0, 0));
        assert_eq!(verdict(&lambda(&with(Some(4.0 * 1.049)))), (0, 0));
        assert_eq!(verdict(&lambda(&with(Some(4.0 * 1.051)))), (1, 0));
        assert_eq!(verdict(&lambda(&with(Some(4.0 * 0.949)))), (1, 0));
        assert_eq!(verdict(&lambda(&with(None))), (1, 0), "a target without an achieved value");
    }

    fn grid(backends: &[&str], families: &[&str], per_cell: usize) -> Report {
        let mut rows = vec![row("parallel", "ulba", 16384, 0.125)];
        for backend in backends {
            for family in families {
                rows.extend((0..per_cell).map(|_| scenario(backend, family, Some(4.0))));
            }
        }
        report(rows)
    }

    #[test]
    fn scenario_grid_needs_rows_backends_and_families() {
        let families = ["slow-node", "scatter", "bursty", "task-graph", "drifting-hotspot"];
        assert_eq!(
            verdict(&scenario_grid(&grid(&["parallel", "sequential"], &families, 4))),
            (0, 0)
        );
        // 39 rows; a backend missing; three families.
        let mut short = grid(&["parallel", "sequential"], &families, 4);
        short.rows.pop();
        assert_eq!(verdict(&scenario_grid(&short)), (1, 0));
        assert_eq!(verdict(&scenario_grid(&grid(&["parallel"], &families, 8))), (1, 0));
        assert_eq!(
            verdict(&scenario_grid(&grid(&["parallel", "sequential"], &families[..3], 7))),
            (1, 0)
        );
    }

    #[test]
    fn ranks_gate_rejects_a_stray_row() {
        let legs = report(vec![
            row("parallel", "standard", 1 << 20, 1.0),
            row("parallel", "ulba", 1 << 20, 1.0),
        ]);
        assert_eq!(verdict(&ranks(&legs, 1 << 20)), (0, 0));
        assert_eq!(verdict(&ranks(&legs, 16384)), (2, 0));
    }

    #[test]
    fn wall_warns_within_the_run_and_fails_against_the_seed() {
        let with = |seq: f64, par: f64| {
            let wall =
                |backend, s| PerfRow { sim_wall_s: Some(s), ..row(backend, "ulba", 16384, 0.125) };
            report(vec![wall("sequential", seq), wall("parallel", par)])
        };
        // The seed's parallel sum is 10 s.
        assert_eq!(verdict(&wall(&with(12.0, 9.0), &[&with(12.0, 9.0)], &seed())), (0, 0));
        assert_eq!(
            verdict(&wall(&with(9.0, 9.0), &[], &seed())),
            (0, 1),
            "not faster than sequential, as one block: a warning"
        );
        let two_blocks = |seq: f64, par: f64| {
            let mut report = with(seq, par);
            report.rows.iter_mut().for_each(|r| r.hub_shards = 2);
            report
        };
        assert_eq!(
            verdict(&wall(&two_blocks(9.0, 9.0), &[], &seed())),
            (1, 0),
            "not faster than sequential on two workers: hard"
        );
        assert_eq!(verdict(&wall(&two_blocks(12.0, 9.0), &[], &seed())), (0, 0));
        assert_eq!(
            verdict(&wall(&with(12.0, 10.6), &[&with(0.0, 10.0)], &seed())),
            (0, 1),
            "vs the other report"
        );
        assert_eq!(verdict(&wall(&with(12.0, 10.5), &[&with(0.0, 10.0)], &seed())), (0, 0));
        assert_eq!(
            verdict(&wall(&with(13.0, 11.0), &[], &seed())),
            (0, 0),
            "exactly the allowed slack"
        );
        assert_eq!(verdict(&wall(&with(13.0, 12.0), &[], &seed())), (1, 0), "1.2× the seed's");
        // Batch rows carry no wall: nothing to sum, only the not-faster
        // warning — whatever their block count.
        for hub_shards in [1, 2] {
            let untimed =
                PerfRow { sim_wall_s: None, hub_shards, ..row("parallel", "ulba", 16384, 0.125) };
            assert_eq!(verdict(&wall(&report(vec![untimed]), &[], &seed())), (0, 1));
        }
    }

    #[test]
    fn batch_speedup_only_warns_even_when_null() {
        let with = |speedup| {
            let summary = Summary { speedup, ..Summary::default() };
            Report { summary, ..report(vec![]) }
        };
        assert_eq!(verdict(&batch_speedup(&with(Some(1.18)))), (0, 0));
        assert_eq!(verdict(&batch_speedup(&with(Some(1.0)))), (0, 1));
        assert_eq!(verdict(&batch_speedup(&with(None))), (0, 1));
    }

    #[test]
    fn gate_names_parse_and_an_unknown_one_lists_the_valid_ones() {
        let parsed: Result<Vec<Gate>, String> =
            "drift,rss,entries,lambda,scenario-grid,ranks:1048576,wall,batch-speedup"
                .split(',')
                .map(str::parse)
                .collect();
        assert_eq!(parsed.unwrap()[5], Gate::Ranks(1 << 20));
        for bad in ["drfit", "", "ranks", "ranks:many"] {
            let err = bad.parse::<Gate>().unwrap_err();
            assert!(err.contains(&format!("unknown gate `{bad}`")), "{err}");
            for name in [
                "drift",
                "rss",
                "entries",
                "lambda",
                "scenario-grid",
                "ranks:<P>",
                "wall",
                "batch-speedup",
            ] {
                assert!(err.contains(name), "{err} must list {name}");
            }
        }
    }

    #[test]
    fn run_checks_every_report_and_tags_findings_with_its_label() {
        let good = report(vec![row("parallel", "ulba", 16384, 0.125)]);
        let bad = report(vec![row("parallel", "ulba", 16384, 0.25)]);
        let reports = [("good.json".to_string(), good), ("bad.json".to_string(), bad)];
        let findings = run(&[Gate::Drift, Gate::Rss], &reports, &seed());
        assert_eq!(verdict(&findings), (1, 0));
        let hard = findings.iter().find(|f| f.severity == Hard).unwrap();
        assert!(hard.message.starts_with("[bad.json] "), "{}", hard.message);
        // `wall` judges the first report only.
        assert_eq!(verdict(&run(&[Gate::Wall], &reports, &seed())), (0, 1));
    }

    #[test]
    fn committed_reports_pass_their_gates() {
        let read = |name: &str| {
            let path = format!("{}/../../results/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            (name.to_string(), Report::read(Path::new(&path)).unwrap())
        };
        let seed = read("seed").1.rows;
        for (gates, names) in [
            (vec![Gate::Drift, Gate::Rss], vec!["weak_scaling", "job_server"]),
            (vec![Gate::Rss, Gate::Entries], vec!["p65536"]),
            (vec![Gate::Lambda, Gate::ScenarioGrid, Gate::Rss], vec!["scenarios"]),
        ] {
            let reports: Vec<_> = names.iter().map(|name| read(name)).collect();
            let findings = run(&gates, &reports, &seed);
            assert!(!failed(&findings), "{findings:#?}");
        }
    }
}
