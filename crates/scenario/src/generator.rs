//! Deterministic adversarial work-table generators.
//!
//! Each scenario family produces a per-phase, per-rank table of integer
//! *work units* with an exact global invariant: every phase's units sum to
//! `P · avg_units` (work is conserved — migrating tasks moves units, never
//! creates or destroys them) and the hottest rank of the hot phases carries
//! `round(λ · avg_units)` units, so the achieved imbalance factor
//! λ = max/mean is verified analytically at construction time, not
//! estimated from a run.
//!
//! Work units attach to *tasks* (a fixed global task index space,
//! `tasks_per_rank` per initial rank), so the load balancer can actually
//! move load: a task's weight in a phase is its home region's units spread
//! evenly over the region's tasks. Summed over any partition of the task
//! space, the per-phase total is invariant.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The adversarial imbalance families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// One persistently slow PE: the last rank carries the hot region in
    /// every phase (a degraded node, the classic worst case for periodic
    /// balancers — the imbalance never moves, so one good LB step fixes it).
    SlowNode,
    /// A fresh random rank is hot each phase (scattered interference: the
    /// imbalance relocates faster than any persistence assumption).
    Scatter,
    /// The hot region walks one rank per phase from a seed-derived start
    /// (a drifting hotspot, e.g. a moving refinement front).
    DriftingHotspot,
    /// Alternating calm and hot phases: even phases are scatter-hot, odd
    /// phases perfectly balanced (bursty interference — the trigger must
    /// not overreact to transients).
    Bursty,
    /// Scatter-hot work plus an irregular point-to-point traffic pattern
    /// layered on top by the rank program (beyond the halo-only BSP
    /// baseline: each rank pushes payloads to pseudo-random partners every
    /// iteration).
    TaskGraph,
}

impl ScenarioKind {
    /// Every family, in report order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::SlowNode,
        ScenarioKind::Scatter,
        ScenarioKind::DriftingHotspot,
        ScenarioKind::Bursty,
        ScenarioKind::TaskGraph,
    ];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::SlowNode => "slow-node",
            ScenarioKind::Scatter => "scatter",
            ScenarioKind::DriftingHotspot => "drifting-hotspot",
            ScenarioKind::Bursty => "bursty",
            ScenarioKind::TaskGraph => "task-graph",
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ScenarioKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioKind::ALL.iter().copied().find(|k| k.name() == s).ok_or_else(|| {
            let names: Vec<&str> = ScenarioKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown scenario {s:?} (expected one of {})", names.join(", "))
        })
    }
}

/// Bounded number of random-cut retries before [`split_capped`] falls back
/// to the deterministic even split. The C exemplars retry unboundedly and
/// hang on infeasible inputs; here infeasibility is rejected up front and
/// feasible-but-unlucky draws terminate.
const SPLIT_RETRIES: usize = 16;

/// Split `total` into `m` non-negative pieces, each at most `cap`, by
/// sorted random cut points. Deterministic in `rng`.
///
/// Infeasible requests (`total > m · cap`) are an `Err` up front — never an
/// unbounded retry loop. When the slack `m·cap − total` is smaller than
/// `total`, the *slack* is split instead and mirrored (`piece = cap − s`),
/// so tight requests (everyone near the cap) converge as fast as loose
/// ones. After [`SPLIT_RETRIES`] failed draws the split degrades to the
/// deterministic even split, which always satisfies the cap.
pub fn split_capped(m: usize, total: u64, cap: u64, rng: &mut StdRng) -> Result<Vec<u64>, String> {
    if m == 0 {
        return if total == 0 {
            Ok(Vec::new())
        } else {
            Err(format!("cannot split {total} units over zero ranks"))
        };
    }
    if total as u128 > m as u128 * cap as u128 {
        return Err(format!(
            "infeasible split: {total} units over {m} ranks capped at {cap} \
             (max feasible {})",
            m as u128 * cap as u128
        ));
    }
    let slack = m as u64 * cap - total;
    let (target, mirrored) = if slack < total { (slack, true) } else { (total, false) };

    let draw = |rng: &mut StdRng| -> Vec<u64> {
        let mut cuts: Vec<u64> = (0..m - 1).map(|_| rng.random_range(0..=target)).collect();
        cuts.sort_unstable();
        let mut pieces = Vec::with_capacity(m);
        let mut prev = 0u64;
        for &c in &cuts {
            pieces.push(c - prev);
            prev = c;
        }
        pieces.push(target - prev);
        pieces
    };
    let mut pieces = draw(rng);
    for _ in 0..SPLIT_RETRIES {
        // Both the direct pieces and the mirrored `cap − s` pieces need
        // `s ≤ cap`: direct to respect the cap, mirrored to stay ≥ 0.
        if pieces.iter().all(|&s| s <= cap) {
            break;
        }
        pieces = draw(rng);
    }
    if pieces.iter().any(|&s| s > cap) {
        // Deterministic fallback: the even split of `target` keeps every
        // piece ≤ ⌈target/m⌉ ≤ cap (target ≤ m·cap by construction).
        let (base, rem) = (target / m as u64, (target % m as u64) as usize);
        pieces = (0..m).map(|i| base + u64::from(i < rem)).collect();
    }
    if mirrored {
        for s in &mut pieces {
            *s = cap - *s;
        }
    }
    debug_assert_eq!(pieces.iter().sum::<u64>(), total);
    Ok(pieces)
}

/// The generated per-phase, per-rank work table plus its verified
/// imbalance accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkTable {
    /// `units[phase][rank]`: work units homed at `rank`'s initial task
    /// region during `phase`. Every phase sums to `ranks · avg_units`.
    pub per_phase_units: Vec<Vec<u64>>,
    /// Mean units per rank (identical in every phase).
    pub avg_units: u64,
    /// Global units per phase (`ranks · avg_units`).
    pub total_units: u64,
    /// The λ the caller asked for.
    pub lambda_target: f64,
    /// The λ = max/mean the table actually realizes (max over phases),
    /// verified within [`LAMBDA_TOLERANCE`] of the target at build time.
    pub lambda_achieved: f64,
}

/// Relative tolerance on the achieved λ (integer rounding of the hot
/// rank's units is the only error source; `avg_units ≥ 64` bounds it well
/// below this).
pub const LAMBDA_TOLERANCE: f64 = 0.05;

/// Minimum `avg_units` for which integer rounding keeps the achieved λ
/// within [`LAMBDA_TOLERANCE`] (relative rounding error ≤ 0.5/avg).
pub const MIN_AVG_UNITS: u64 = 64;

impl WorkTable {
    /// Build the table for `kind`: `phases` distinct phases over `ranks`
    /// ranks, targeting imbalance factor `lambda` at `avg_units` mean
    /// units per rank, fully determined by `seed`.
    ///
    /// Errors on infeasible parameters: λ outside `[1, ranks]` (a single
    /// rank cannot exceed `ranks ×` the mean), `avg_units` below
    /// [`MIN_AVG_UNITS`], or zero ranks/phases.
    pub fn build(
        kind: ScenarioKind,
        ranks: usize,
        phases: usize,
        lambda: f64,
        avg_units: u64,
        seed: u64,
    ) -> Result<WorkTable, String> {
        if ranks == 0 || phases == 0 {
            return Err("need at least one rank and one phase".into());
        }
        if avg_units < MIN_AVG_UNITS {
            return Err(format!(
                "avg_units {avg_units} below {MIN_AVG_UNITS}: integer rounding would \
                 exceed the {LAMBDA_TOLERANCE} λ tolerance"
            ));
        }
        if !(1.0..=ranks as f64).contains(&lambda) {
            return Err(format!(
                "lambda {lambda} infeasible for {ranks} ranks (max/mean lies in [1, P])"
            ));
        }
        let total = ranks as u64 * avg_units;
        // The hot rank's units: rounding is the only deviation from the
        // target; the clamp to `total` only binds at λ = P exactly.
        let worst = ((lambda * avg_units as f64).round() as u64).clamp(avg_units, total);

        let mut per_phase_units = Vec::with_capacity(phases);
        let mut max_units = 0u64;
        for phase in 0..phases {
            // One decorrelated stream per (seed, kind, phase): tables are
            // stable under changes to the number of phases before them.
            let mut rng = StdRng::seed_from_u64(
                seed ^ (kind.name().len() as u64) << 56 ^ (phase as u64).wrapping_mul(0x9E37_79B9),
            );
            let row = match kind {
                ScenarioKind::Bursty if phase % 2 == 1 => vec![avg_units; ranks],
                _ => {
                    let hot = match kind {
                        ScenarioKind::SlowNode => ranks - 1,
                        ScenarioKind::DriftingHotspot => {
                            (seed as usize).wrapping_add(phase) % ranks
                        }
                        // Scatter, TaskGraph, and Bursty's hot phases draw
                        // the hot rank fresh each phase.
                        _ => rng.random_range(0..ranks),
                    };
                    // Remaining ranks share the rest, each capped at the
                    // hot rank's units so `hot` stays the per-phase max.
                    // Always feasible: total = P·avg ≤ P·worst.
                    let rest = split_capped(ranks - 1, total - worst, worst, &mut rng)?;
                    let mut row = Vec::with_capacity(ranks);
                    let mut rest = rest.into_iter();
                    for r in 0..ranks {
                        row.push(if r == hot { worst } else { rest.next().expect("P−1 pieces") });
                    }
                    row
                }
            };
            assert_eq!(row.iter().sum::<u64>(), total, "work conservation per phase");
            max_units = max_units.max(row.iter().copied().max().expect("non-empty row"));
            per_phase_units.push(row);
        }

        let lambda_achieved = max_units as f64 * ranks as f64 / total as f64;
        assert!(
            (lambda_achieved - lambda).abs() <= LAMBDA_TOLERANCE * lambda,
            "{kind}: achieved λ {lambda_achieved} strays from target {lambda}"
        );
        Ok(WorkTable {
            per_phase_units,
            avg_units,
            total_units: total,
            lambda_target: lambda,
            lambda_achieved,
        })
    }

    /// Number of ranks the table was built for.
    pub fn ranks(&self) -> usize {
        self.per_phase_units[0].len()
    }

    /// Phase active at `iter` (phases cycle every `phase_len` iterations).
    pub fn phase_of(&self, iter: u64, phase_len: u64) -> usize {
        ((iter / phase_len) % self.per_phase_units.len() as u64) as usize
    }

    /// Weight of global task `task` in `phase`: its home region's units
    /// spread evenly over the region's `tasks_per_rank` tasks (the first
    /// `units % tasks_per_rank` local tasks absorb the remainder).
    fn task_units(&self, phase: usize, task: usize, tasks_per_rank: usize) -> u64 {
        let region = task / tasks_per_rank;
        let local = task % tasks_per_rank;
        let units = self.per_phase_units[phase][region];
        let base = units / tasks_per_rank as u64;
        let rem = (units % tasks_per_rank as u64) as usize;
        base + u64::from(local < rem)
    }

    /// Total units of the global task range `range` in `phase`. Summing
    /// over any partition of the task space yields
    /// [`total_units`](Self::total_units) — work is conserved under
    /// migration.
    pub fn range_units(&self, phase: usize, range: &Range<usize>, tasks_per_rank: usize) -> u64 {
        let mut sum = 0u64;
        let mut task = range.start;
        while task < range.end {
            let region = task / tasks_per_rank;
            let region_end = ((region + 1) * tasks_per_rank).min(range.end);
            let units = self.per_phase_units[phase][region];
            let base = units / tasks_per_rank as u64;
            let rem = (units % tasks_per_rank as u64) as usize;
            let local_start = task % tasks_per_rank;
            let local_end = local_start + (region_end - task);
            let heavies = rem.clamp(local_start, local_end) - local_start;
            sum += base * (region_end - task) as u64 + heavies as u64;
            task = region_end;
        }
        sum
    }

    /// Per-task weights of `range` in `phase`, written into `out` (cleared
    /// first) — the rebalancer's per-item weight vector, allocation-free in
    /// steady state.
    pub fn task_weights_into(
        &self,
        phase: usize,
        range: &Range<usize>,
        tasks_per_rank: usize,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.extend(range.clone().map(|t| self.task_units(phase, t, tasks_per_rank)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn split_exact_sum_and_cap() {
        let pieces = split_capped(8, 1000, 500, &mut rng(1)).unwrap();
        assert_eq!(pieces.len(), 8);
        assert_eq!(pieces.iter().sum::<u64>(), 1000);
        assert!(pieces.iter().all(|&p| p <= 500));
    }

    #[test]
    fn split_tight_slack_uses_mirror() {
        // total close to m·cap: slack = 8·130 − 1000 = 40 ≪ 1000, the
        // mirrored path; every piece is near the cap.
        let pieces = split_capped(8, 1000, 130, &mut rng(2)).unwrap();
        assert_eq!(pieces.iter().sum::<u64>(), 1000);
        assert!(pieces.iter().all(|&p| p <= 130));
    }

    #[test]
    fn split_exactly_full_is_all_caps() {
        let pieces = split_capped(4, 400, 100, &mut rng(3)).unwrap();
        assert_eq!(pieces, vec![100; 4]);
    }

    #[test]
    fn split_rejects_infeasible_up_front() {
        let err = split_capped(4, 401, 100, &mut rng(4)).unwrap_err();
        assert!(err.contains("infeasible"), "{err}");
        // m = 0 with work to place is infeasible too, not a panic.
        assert!(split_capped(0, 1, 100, &mut rng(4)).is_err());
        assert_eq!(split_capped(0, 0, 100, &mut rng(4)).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn split_is_deterministic_in_the_rng() {
        let a = split_capped(16, 12345, 4000, &mut rng(7)).unwrap();
        let b = split_capped(16, 12345, 4000, &mut rng(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tables_hit_lambda_for_every_kind() {
        for kind in ScenarioKind::ALL {
            let t = WorkTable::build(kind, 16, 6, 4.0, 1 << 12, 0xA5).unwrap();
            assert_eq!(t.total_units, 16 << 12);
            assert!((t.lambda_achieved - 4.0).abs() <= 0.05 * 4.0, "{kind}: {}", t.lambda_achieved);
            for row in &t.per_phase_units {
                assert_eq!(row.iter().sum::<u64>(), t.total_units, "{kind}");
            }
        }
    }

    #[test]
    fn slow_node_pins_the_last_rank() {
        let t = WorkTable::build(ScenarioKind::SlowNode, 8, 4, 3.0, 1 << 10, 9).unwrap();
        for row in &t.per_phase_units {
            let max = row.iter().copied().max().unwrap();
            assert_eq!(row[7], max, "the slow node is always the hottest");
        }
    }

    #[test]
    fn drifting_hotspot_walks_one_rank_per_phase() {
        let t = WorkTable::build(ScenarioKind::DriftingHotspot, 8, 8, 5.0, 1 << 10, 3).unwrap();
        let hot: Vec<usize> = t
            .per_phase_units
            .iter()
            .map(|row| row.iter().enumerate().max_by_key(|(_, &u)| u).unwrap().0)
            .collect();
        for w in hot.windows(2) {
            assert_eq!(w[1], (w[0] + 1) % 8, "hot rank must advance by one: {hot:?}");
        }
    }

    #[test]
    fn bursty_alternates_balanced_phases() {
        let t = WorkTable::build(ScenarioKind::Bursty, 8, 4, 4.0, 1 << 10, 11).unwrap();
        assert!(t.per_phase_units[1].iter().all(|&u| u == 1 << 10), "odd phases are calm");
        assert!(t.per_phase_units[3].iter().all(|&u| u == 1 << 10));
        assert!(t.per_phase_units[0].iter().any(|&u| u > 1 << 10), "even phases are hot");
    }

    #[test]
    fn build_rejects_bad_parameters() {
        assert!(WorkTable::build(ScenarioKind::Scatter, 4, 2, 5.0, 1 << 10, 0).is_err());
        assert!(WorkTable::build(ScenarioKind::Scatter, 4, 2, 0.5, 1 << 10, 0).is_err());
        assert!(WorkTable::build(ScenarioKind::Scatter, 4, 2, 2.0, 8, 0).is_err());
        assert!(WorkTable::build(ScenarioKind::Scatter, 0, 2, 1.0, 1 << 10, 0).is_err());
        assert!(WorkTable::build(ScenarioKind::Scatter, 4, 0, 2.0, 1 << 10, 0).is_err());
    }

    #[test]
    fn range_units_conserves_work_under_any_partition() {
        let t = WorkTable::build(ScenarioKind::Scatter, 8, 4, 4.0, 1 << 10, 21).unwrap();
        let tpr = 16;
        let n_tasks = 8 * tpr;
        for phase in 0..4 {
            // A deliberately lopsided partition.
            let bounds = [0usize, 1, 5, 40, 41, 90, 100, 127, n_tasks];
            let total: u64 =
                bounds.windows(2).map(|w| t.range_units(phase, &(w[0]..w[1]), tpr)).sum();
            assert_eq!(total, t.total_units, "phase {phase}");
            // And range sums agree with per-task sums.
            let brute: u64 = (0..n_tasks).map(|task| t.task_units(phase, task, tpr)).sum();
            assert_eq!(brute, t.total_units);
        }
    }

    #[test]
    fn task_weights_match_range_units() {
        let t = WorkTable::build(ScenarioKind::DriftingHotspot, 4, 3, 2.0, 1 << 9, 5).unwrap();
        let mut w = Vec::new();
        let range = 7..41;
        t.task_weights_into(1, &range, 16, &mut w);
        assert_eq!(w.len(), 34);
        assert_eq!(w.iter().sum::<u64>(), t.range_units(1, &range, 16));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in ScenarioKind::ALL {
            assert_eq!(kind.name().parse::<ScenarioKind>().unwrap(), kind);
        }
        assert!("halo".parse::<ScenarioKind>().is_err());
    }
}
