//! The CI gates over schema-3 reports, as pure functions from a [`Report`]
//! (and, for `drift` and `wall`, the committed report of the same file
//! name) to [`Finding`]s. `ulba-bench gate` is a thin shell over [`run`];
//! the studies call the same functions on the report they are about to
//! write. Every threshold lives here and nowhere else.

use crate::report::{PerfRow, Report};
use std::collections::BTreeSet;

/// Deterministic float columns must match the committed report to this
/// relative error: refactors change memory and scheduling, never semantics.
const DRIFT_TOLERANCE: f64 = 1e-9;
/// The columns `drift` skips: they follow the machine and the pool's timing,
/// not the simulation.
const MACHINE_COLUMNS: [&str; 3] = ["hub_shards", "sim_wall_s", "peak_rss_bytes"];
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
/// Slack on the parallel wall against the committed report's (hard).
const WALL_SLACK: f64 = 1.10;

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

/// A gate `ulba-bench gate` accepts by name.
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
            _ => match name.strip_prefix("ranks:").and_then(|p| p.parse().ok()) {
                Some(pes) => Gate::Ranks(pes),
                None => {
                    return Err(format!(
                        "unknown gate `{name}` (valid: drift, rss, entries, lambda, \
                         scenario-grid, ranks:<P>, wall)"
                    ))
                }
            },
        })
    }
}

/// Run `gates` over `reports` (`(label, report)`, the label prefixes each
/// message). Every gate checks each report on its own; `drift` and `wall`
/// judge it against `committed(label)`, the committed report of the same
/// study and scale, and only they call it.
pub fn run(
    gates: &[Gate],
    reports: &[(String, Report)],
    committed: impl Fn(&str) -> Result<Report, String>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for gate in gates {
        for (label, report) in reports {
            let findings = match gate {
                Gate::Drift => against(report, committed(label), drift),
                Gate::Rss => rss(report),
                Gate::Entries => entries(report),
                Gate::Lambda => lambda(report),
                Gate::ScenarioGrid => scenario_grid(report),
                Gate::Ranks(pes) => ranks(report, *pes),
                Gate::Wall => against(report, committed(label), wall),
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

/// `gate(report, committed)`, or why `committed` is no baseline for
/// `report`: it is missing, or of another study or scale.
fn against(
    report: &Report,
    committed: Result<Report, String>,
    gate: fn(&Report, &Report) -> Vec<Finding>,
) -> Vec<Finding> {
    match committed {
        Err(err) => vec![hard(format!("no committed report to compare with: {err}"))],
        Ok(c) if (&c.study, c.smoke) != (&report.study, report.smoke) => vec![hard(format!(
            "the committed report is `{}` (smoke: {}), this one `{}` (smoke: {})",
            c.study, c.smoke, report.study, report.smoke
        ))],
        Ok(c) => gate(report, &c),
    }
}

/// What tells the runs of one report apart.
fn id(r: &PerfRow) -> (&str, usize, &str, &str, Option<usize>) {
    (&r.backend, r.pes, &r.policy, &r.gossip_wire, r.strong_rocks)
}

/// HARD — the report holds the same runs as `committed`, and each
/// reproduces its committed row. Rows are paired by identity `(backend,
/// pes, policy, gossip_wire, strong_rocks)`, the k-th repeat of an identity
/// with the k-th (a sweep may repeat one across seeds); a row on either
/// side without a twin on the other is a finding, so a report that lost or
/// gained rows fails. A pair must agree in every column but `hub_shards`,
/// `sim_wall_s` and `peak_rss_bytes`: floats within 1e-9 relative, the rest
/// exactly.
pub fn drift(report: &Report, committed: &Report) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut left: Vec<&PerfRow> = committed.rows.iter().collect();
    for (i, row) in report.rows.iter().enumerate() {
        let Some(j) = left.iter().position(|base| id(base) == id(row)) else {
            out.push(hard(format!("row {i} {:?} has no committed twin", id(row))));
            continue;
        };
        let diff = row.diff(left.remove(j), DRIFT_TOLERANCE).into_iter();
        for (column, got, want) in diff.filter(|(c, ..)| !MACHINE_COLUMNS.contains(c)) {
            out.push(hard(format!("row {i} {:?}: {column} {got}, committed {want}", id(row))));
        }
    }
    for base in &left {
        out.push(hard(format!("committed row {:?} has no fresh twin", id(base))));
    }
    let matched = committed.rows.len() - left.len();
    out.push(info(format!("{matched} rows checked against the committed report")));
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

/// The `backend` rows' summed `sim_wall_s`, or `None` when none is timed
/// (a batch row carries no wall of its own).
fn wall_sum(rows: &[PerfRow], backend: &str) -> Option<f64> {
    let walls = rows.iter().filter(|r| r.backend == backend).filter_map(|r| r.sim_wall_s);
    walls.reduce(|a, b| a + b)
}

/// The wall trajectory of `report`'s parallel rows. Not faster than its
/// sequential rows: HARD when every timed parallel row ran as two or more
/// blocks (`hub_shards ≥ 2`, i.e. on two or more workers) — a same-run,
/// same-machine ratio the pool must win — and a warning on one core, where
/// it cannot; a report without timed rows of both backends has no ratio
/// to judge, and says so. HARD if slower (beyond slack) than the committed
/// report's.
pub fn wall(report: &Report, committed: &Report) -> Vec<Finding> {
    let shown = |wall: Option<f64>| wall.map_or("untimed".into(), |w| format!("{w:.2}s"));
    let committed = wall_sum(&committed.rows, "parallel");
    let par = wall_sum(&report.rows, "parallel");
    let mut out = match (wall_sum(&report.rows, "sequential"), par) {
        (Some(seq), Some(par)) => {
            let mut out = vec![info(format!(
                "sequential {seq:.2}s, parallel {par:.2}s ({:.2}x), committed parallel {}",
                seq / par,
                shown(committed)
            ))];
            if par >= seq {
                let mut timed = report
                    .rows
                    .iter()
                    .filter(|r| r.backend == "parallel" && r.sim_wall_s.is_some());
                let multi_worker = seq > 0.0 && timed.all(|r| r.hub_shards >= 2);
                let message =
                    format!("parallel was not faster than sequential ({par:.2}s vs {seq:.2}s)");
                out.push(finding(if multi_worker { Hard } else { Warn }, message));
            }
            out
        }
        _ => vec![info(format!(
            "no timed rows of both backends, so no ratio within the run; \
             parallel {}, committed parallel {}",
            shown(par),
            shown(committed)
        ))],
    };
    let (par, base) = (par.unwrap_or(0.0), committed.unwrap_or(0.0));
    let allowed = base * WALL_SLACK;
    if base > 0.0 && par > allowed {
        out.push(hard(format!(
            "parallel run regressed against the committed report \
             ({par:.2}s vs {base:.2}s, allowed {allowed:.2}s)"
        )));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
            strong_rocks: None,
        }
    }

    fn report(rows: Vec<PerfRow>) -> Report {
        Report { study: "fixture".into(), smoke: true, batch_wall_s: None, rows }
    }

    /// `(hard, warn)` counts.
    fn verdict(findings: &[Finding]) -> (usize, usize) {
        let count = |s| findings.iter().filter(|f| f.severity == s).count();
        assert_eq!(failed(findings), count(Hard) > 0);
        (count(Hard), count(Warn))
    }

    /// The committed report the fixtures are judged against: one P = 16384
    /// run per backend, each parallel wall 10 s.
    fn committed() -> Report {
        report(vec![row("sequential", "ulba", 16384, 0.125), row("parallel", "ulba", 16384, 0.125)])
    }

    #[test]
    fn drift_is_relative_and_needs_a_matching_row() {
        let with = |makespan| report(vec![row("parallel", "ulba", 16384, makespan)]);
        let committed = with(0.125);
        assert_eq!(verdict(&drift(&with(0.125), &committed)), (0, 0));
        assert_eq!(verdict(&drift(&with(0.125 * (1.0 + 1e-10)), &committed)), (0, 0));
        assert_eq!(verdict(&drift(&with(0.125 * (1.0 + 2e-9)), &committed)), (1, 0));
        assert_eq!(verdict(&drift(&with(0.125 * (1.0 - 2e-9)), &committed)), (1, 0));
        // A row outside the committed report is a finding, and so is a
        // committed row the report lost.
        let mut mixed = with(0.125);
        mixed.rows.push(row("parallel", "ulba", 8, 99.0));
        let findings = drift(&mixed, &committed);
        assert_eq!(verdict(&findings), (1, 0));
        assert!(findings[0].message.starts_with("row 1 "), "{findings:?}");
        assert!(findings[0].message.contains("has no committed twin"), "{findings:?}");
        let findings = drift(&report(vec![]), &committed);
        assert_eq!(verdict(&findings), (1, 0));
        assert!(findings[0].message.contains("has no fresh twin"), "{findings:?}");
        let stranger = |change: fn(&mut PerfRow)| {
            let mut row = row("parallel", "ulba", 16384, 0.125);
            change(&mut row);
            report(vec![row])
        };
        // Each identity column: the row is another run, so neither side has
        // a twin.
        let others: [fn(&mut PerfRow); 5] = [
            |r| r.backend = "gpu".into(),
            |r| r.pes = 8,
            |r| r.policy = "standard".into(),
            |r| r.gossip_wire = "full".into(),
            |r| r.strong_rocks = Some(1),
        ];
        for other in others {
            let findings = drift(&stranger(other), &committed);
            assert_eq!(verdict(&findings), (2, 0));
            assert!(findings[0].message.contains("has no committed twin"), "{findings:?}");
            assert!(findings[1].message.contains("has no fresh twin"), "{findings:?}");
        }
    }

    #[test]
    fn drift_checks_every_column_but_the_machine_dependent_ones() {
        let base = row("parallel", "ulba", 16384, 0.125);
        type Change = (&'static str, fn(&mut PerfRow));
        let changed: [Change; 8] = [
            ("makespan_virtual_s", |r| r.makespan_virtual_s *= 1.0 + 2e-9),
            ("lb_calls", |r| r.lb_calls += 1),
            ("mean_utilization", |r| r.mean_utilization += 1e-6),
            ("busy_max_over_mean", |r| r.busy_max_over_mean += 1e-6),
            ("idle_fraction", |r| r.idle_fraction -= 1e-6),
            ("db_entries_total", |r| r.db_entries_total += 1),
            ("lambda_target", |r| r.lambda_target = Some(4.0)),
            ("lambda_achieved", |r| r.lambda_achieved = Some(4.0)),
        ];
        let committed = report(vec![base.clone()]);
        for (column, change) in changed {
            let mut fresh = base.clone();
            change(&mut fresh);
            let findings = drift(&report(vec![fresh]), &committed);
            assert_eq!(verdict(&findings), (1, 0), "{column}");
            let message = &findings[0].message;
            let row = r#"row 0 ("parallel", 16384, "ulba", "delta:32", None)"#;
            assert!(message.starts_with(row) && message.contains(column), "{message}");
        }
        let machine = [
            PerfRow { hub_shards: 2, ..base.clone() },
            PerfRow { sim_wall_s: Some(99.0), ..base.clone() },
            PerfRow { sim_wall_s: None, ..base.clone() },
            PerfRow { peak_rss_bytes: None, ..base.clone() },
            PerfRow { peak_rss_bytes: Some(1), ..base.clone() },
        ];
        for fresh in machine {
            assert_eq!(verdict(&drift(&report(vec![fresh]), &committed)), (0, 0));
        }
        // Every column is an identity, a machine or a checked column.
        let identities = ["backend", "pes", "policy", "gossip_wire", "strong_rocks"];
        let mut named: Vec<&str> = changed.iter().map(|(c, _)| *c).collect();
        named.extend(identities.iter().chain(&MACHINE_COLUMNS));
        named.sort_unstable();
        let mut columns = PerfRow::columns();
        columns.sort_unstable();
        assert_eq!(named, columns);
    }

    #[test]
    fn drift_matches_repeated_identities_in_order() {
        // Two seeds of one (backend, P, policy, wire, rocks): the k-th
        // repeat is judged against the k-th.
        let seeds =
            |a, b| report(vec![row("parallel", "ulba", 8, a), row("parallel", "ulba", 8, b)]);
        assert_eq!(verdict(&drift(&seeds(1.0, 2.0), &seeds(1.0, 2.0))), (0, 0));
        assert_eq!(verdict(&drift(&seeds(2.0, 1.0), &seeds(1.0, 2.0))), (2, 0));
        // A third repeat has no committed twin: a finding, whichever side
        // has it.
        let mut three = seeds(1.0, 2.0);
        three.rows.push(row("parallel", "ulba", 8, 3.0));
        let findings = drift(&three, &seeds(1.0, 2.0));
        assert_eq!(verdict(&findings), (1, 0));
        assert!(findings[0].message.starts_with("row 2 "), "{findings:?}");
        assert!(findings[1].message.starts_with("2 rows checked"), "{findings:?}");
        let findings = drift(&seeds(1.0, 2.0), &three);
        assert_eq!(verdict(&findings), (1, 0));
        assert!(findings[0].message.contains("no fresh twin"), "{findings:?}");
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
    fn wall_warns_within_the_run_and_fails_against_the_committed_report() {
        let with = |seq: f64, par: f64| {
            let wall =
                |backend, s| PerfRow { sim_wall_s: Some(s), ..row(backend, "ulba", 16384, 0.125) };
            report(vec![wall("sequential", seq), wall("parallel", par)])
        };
        // The committed parallel sum is 10 s.
        let base = committed();
        assert_eq!(verdict(&wall(&with(12.0, 9.0), &base)), (0, 0));
        assert_eq!(
            verdict(&wall(&with(9.0, 9.0), &base)),
            (0, 1),
            "not faster than sequential, as one block: a warning"
        );
        let two_blocks = |seq: f64, par: f64| {
            let mut report = with(seq, par);
            report.rows.iter_mut().for_each(|r| r.hub_shards = 2);
            report
        };
        assert_eq!(
            verdict(&wall(&two_blocks(9.0, 9.0), &base)),
            (1, 0),
            "not faster than sequential on two workers: hard"
        );
        assert_eq!(verdict(&wall(&two_blocks(12.0, 9.0), &base)), (0, 0));
        assert_eq!(verdict(&wall(&with(13.0, 11.0), &base)), (0, 0), "exactly the allowed slack");
        assert_eq!(verdict(&wall(&with(13.0, 12.0), &base)), (1, 0), "1.2× the committed wall");
        // Batch rows carry no wall: nothing to compare, and one info line
        // that says so — whatever their block count.
        for hub_shards in [1, 2] {
            let untimed = |backend| PerfRow {
                sim_wall_s: None,
                hub_shards,
                ..row(backend, "ulba", 16384, 0.125)
            };
            let batch = report(vec![untimed("sequential"), untimed("parallel")]);
            let findings = wall(&batch, &base);
            assert_eq!(verdict(&findings), (0, 0));
            assert_eq!(findings.len(), 1);
            assert!(findings[0].message.contains("no timed rows of both backends"), "{findings:?}");
            assert!(findings[0].message.contains("parallel untimed"), "{findings:?}");
        }
    }

    #[test]
    fn wall_of_a_parallel_only_report_is_only_held_to_the_committed_one() {
        let with = |par: f64| {
            report(vec![PerfRow { sim_wall_s: Some(par), ..row("parallel", "ulba", 65536, 0.45) }])
        };
        let base = committed();
        let findings = wall(&with(9.0), &base);
        assert_eq!(verdict(&findings), (0, 0));
        assert_eq!(findings.len(), 1, "no ratio, no warning: {findings:?}");
        assert!(!findings[0].message.contains("NaN"), "{}", findings[0].message);
        assert!(findings[0].message.contains("parallel 9.00s"), "{}", findings[0].message);
        assert_eq!(verdict(&wall(&with(12.0), &base)), (1, 0), "1.2× the committed wall");
    }

    #[test]
    fn gate_names_parse_and_an_unknown_one_lists_the_valid_ones() {
        let parsed: Result<Vec<Gate>, String> =
            "drift,rss,entries,lambda,scenario-grid,ranks:1048576,wall"
                .split(',')
                .map(str::parse)
                .collect();
        assert_eq!(parsed.unwrap()[5], Gate::Ranks(1 << 20));
        // `batch-speedup` judged a deleted study's summary key.
        for bad in ["drfit", "", "ranks", "ranks:many", "batch-speedup"] {
            let err = bad.parse::<Gate>().unwrap_err();
            assert!(err.contains(&format!("unknown gate `{bad}`")), "{err}");
            for name in ["drift", "rss", "entries", "lambda", "scenario-grid", "ranks:<P>", "wall"]
            {
                assert!(err.contains(name), "{err} must list {name}");
            }
        }
    }

    #[test]
    fn run_checks_every_report_and_tags_findings_with_its_label() {
        let parallel = |makespan| report(vec![row("parallel", "ulba", 16384, makespan)]);
        let reports =
            [("good.json".to_string(), parallel(0.125)), ("bad.json".to_string(), parallel(0.25))];
        let findings = run(&[Gate::Drift, Gate::Rss], &reports, |_| Ok(parallel(0.125)));
        assert_eq!(verdict(&findings), (1, 0));
        let hard = findings.iter().find(|f| f.severity == Hard).unwrap();
        assert!(hard.message.starts_with("[bad.json] "), "{}", hard.message);
        // `wall` judges every report too: neither has a sequential row, so
        // neither has a ratio to warn about.
        assert_eq!(verdict(&run(&[Gate::Wall], &reports, |_| Ok(committed()))), (0, 0));
    }

    #[test]
    fn only_drift_and_wall_need_a_committed_report_of_the_same_study_and_scale() {
        let fresh = [("BENCH_x.json".to_string(), committed())];
        let missing = |label: &str| Err(format!("results/{label}: No such file or directory"));
        let others = [Gate::Rss, Gate::Entries, Gate::Lambda, Gate::Ranks(16384)];
        assert_eq!(verdict(&run(&others, &fresh, |_| unreachable!("not read"))), (0, 0));
        for gate in [Gate::Drift, Gate::Wall] {
            let findings = run(&[gate], &fresh, missing);
            assert_eq!(verdict(&findings), (1, 0), "{gate:?}");
            let message = &findings[0].message;
            assert!(message.contains("no committed report") && message.contains("BENCH_x"));
            for base in [
                Report { smoke: false, ..committed() },
                Report { study: "fig4b".into(), ..committed() },
            ] {
                let findings = run(&[gate], &fresh, |_| Ok(base.clone()));
                assert_eq!(verdict(&findings), (1, 0), "{gate:?} vs {base:?}");
                assert!(findings[0].message.contains("the committed report is"));
            }
        }
    }

    #[test]
    fn committed_reports_pass_their_gates() {
        let read = |name: &str| {
            let path = format!("{}/../../results/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            Report::read(Path::new(&path))
        };
        let label = |name: &str| (name.to_string(), read(name).unwrap());
        let all = ["weak_scaling", "p65536", "scenarios", "fig4a", "fig4b", "fig5"];
        for (gates, names) in [
            // Against itself, a report is reproduced row for row.
            (vec![Gate::Drift, Gate::Wall, Gate::Rss], &all[..]),
            (vec![Gate::Entries], &["p65536"]),
            (vec![Gate::Lambda, Gate::ScenarioGrid], &["scenarios"]),
        ] {
            let reports: Vec<_> = names.iter().map(|name| label(name)).collect();
            let findings = run(&gates, &reports, read);
            assert!(!failed(&findings), "{findings:#?}");
        }
    }
}
