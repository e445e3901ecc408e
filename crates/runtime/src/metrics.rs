//! Per-rank time accounting and per-iteration utilization collection.
//!
//! Fig. 4b of the paper plots the *average PE utilization* per iteration and
//! the LB activations; this module provides the instrumentation that
//! reproduces both. Recording is free in virtual time (it models an external
//! tracing facility, not application work).

use crate::time::VirtualTime;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// What a slice of virtual time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeKind {
    /// Useful application computation.
    Busy,
    /// Communication overhead (message latencies, collective costs).
    Comm,
    /// Load-balancing work (partitioning + migration).
    Lb,
    /// Waiting for other ranks (imbalance!).
    Idle,
}

/// Accumulated virtual time of one rank, split by [`TimeKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RankMetrics {
    /// Useful compute seconds.
    pub busy: f64,
    /// Communication seconds.
    pub comm: f64,
    /// Load-balancing seconds.
    pub lb: f64,
    /// Idle (waiting) seconds.
    pub idle: f64,
}

impl RankMetrics {
    /// Total accounted virtual time.
    pub fn total(&self) -> f64 {
        self.busy + self.comm + self.lb + self.idle
    }

    /// Fraction of accounted time spent on useful computation.
    pub fn utilization(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            1.0
        } else {
            self.busy / t
        }
    }

    /// Add a duration of the given kind.
    pub fn charge(&mut self, kind: TimeKind, secs: f64) {
        debug_assert!(secs >= 0.0 && secs.is_finite(), "invalid charge {secs}");
        match kind {
            TimeKind::Busy => self.busy += secs,
            TimeKind::Comm => self.comm += secs,
            TimeKind::Lb => self.lb += secs,
            TimeKind::Idle => self.idle += secs,
        }
    }
}

/// One rank's report for one application iteration (recorded by
/// `SpmdCtx::mark_iteration`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IterationMark {
    pub(crate) iter: u64,
    pub(crate) busy_delta: f64,
    pub(crate) lb_delta: f64,
    pub(crate) end_clock: VirtualTime,
}

/// Aggregated statistics of one application iteration across all ranks.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration index.
    pub iter: u64,
    /// Virtual wall time of this iteration (max end clock minus previous
    /// iteration's max end clock).
    pub wall_time: f64,
    /// Average PE utilization over the iteration:
    /// `Σ_ranks busy_delta / (P · wall_time)` — the Fig. 4b quantity.
    pub mean_utilization: f64,
    /// Whether any rank performed LB work during this iteration.
    pub lb_active: bool,
}

/// Thread-safe collector of iteration marks and LB events.
pub struct Collector {
    /// One slot per rank. A rank accumulates its marks privately and hands
    /// them over once, when it finishes, so marking an iteration writes no
    /// cache line another rank touches.
    marks: Vec<Mutex<Vec<IterationMark>>>,
    lb_events: Mutex<Vec<u64>>,
}

impl Collector {
    /// Create a collector for `size` ranks.
    pub fn new(size: usize) -> Self {
        Self {
            marks: (0..size).map(|_| Mutex::new(Vec::new())).collect(),
            lb_events: Mutex::new(Vec::new()),
        }
    }

    /// Hand over every mark `rank` recorded, in the order it recorded them.
    pub(crate) fn record_marks(&self, rank: usize, marks: Vec<IterationMark>) {
        *self.marks[rank].lock() = marks;
    }

    pub(crate) fn push_lb_event(&self, iter: u64) {
        self.lb_events.lock().push(iter);
    }

    /// Iterations at which a load-balancing step was recorded (sorted,
    /// deduplicated).
    pub fn lb_iterations(&self) -> Vec<u64> {
        let mut v = self.lb_events.lock().clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Fold the per-rank marks into per-iteration aggregates.
    ///
    /// Iterations are returned sorted; an iteration only appears once every
    /// rank has reported it (partial iterations are dropped).
    pub fn iteration_stats(&self) -> Vec<IterationStats> {
        let size = self.marks.len();
        let max_iter =
            self.marks.iter().filter_map(|slot| slot.lock().iter().map(|m| m.iter).max()).max();
        let Some(max_iter) = max_iter else {
            return Vec::new();
        };
        let mut busy = vec![0.0f64; (max_iter + 1) as usize];
        let mut lb = vec![0.0f64; (max_iter + 1) as usize];
        let mut end = vec![VirtualTime::ZERO; (max_iter + 1) as usize];
        let mut count = vec![0usize; (max_iter + 1) as usize];
        // Rank by rank: each iteration's floating-point sums then add their
        // terms in rank order whatever order the ranks finished in
        // (determinism), with nothing to sort.
        for slot in &self.marks {
            for m in slot.lock().iter() {
                let i = m.iter as usize;
                busy[i] += m.busy_delta;
                lb[i] += m.lb_delta;
                end[i] = end[i].max(m.end_clock);
                count[i] += 1;
            }
        }
        let mut stats = Vec::new();
        let mut prev_end = VirtualTime::ZERO;
        for i in 0..=max_iter as usize {
            if count[i] != size {
                continue; // incomplete iteration (some rank did not mark it)
            }
            let wall = end[i].since(prev_end);
            let mean_utilization =
                if wall > 0.0 { (busy[i] / (size as f64 * wall)).clamp(0.0, 1.0) } else { 1.0 };
            stats.push(IterationStats {
                iter: i as u64,
                wall_time: wall,
                mean_utilization,
                lb_active: lb[i] > 0.0,
            });
            prev_end = end[i];
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_metrics_accounting() {
        let mut m = RankMetrics::default();
        m.charge(TimeKind::Busy, 3.0);
        m.charge(TimeKind::Comm, 0.5);
        m.charge(TimeKind::Lb, 0.25);
        m.charge(TimeKind::Idle, 0.25);
        assert_eq!(m.total(), 4.0);
        assert_eq!(m.utilization(), 0.75);
    }

    #[test]
    fn empty_metrics_fully_utilized() {
        assert_eq!(RankMetrics::default().utilization(), 1.0);
    }

    fn mark(iter: u64, busy_delta: f64, lb_delta: f64, end_secs: f64) -> IterationMark {
        IterationMark { iter, busy_delta, lb_delta, end_clock: VirtualTime::from_secs(end_secs) }
    }

    #[test]
    fn iteration_stats_aggregate_two_ranks() {
        let c = Collector::new(2);
        // Iteration 0: both ranks busy 1.0s, ending at t=1.0 → 100 % util.
        // Iteration 1: rank 0 busy 2.0, rank 1 busy 1.0, wall 2.0 → 75 %.
        // Rank 1 hands its marks over first: the fold is by rank, not by
        // arrival.
        c.record_marks(1, vec![mark(0, 1.0, 0.0, 1.0), mark(1, 1.0, 0.5, 3.0)]);
        c.record_marks(0, vec![mark(0, 1.0, 0.0, 1.0), mark(1, 2.0, 0.0, 3.0)]);
        let stats = c.iteration_stats();
        assert_eq!(stats.len(), 2);
        assert!((stats[0].mean_utilization - 1.0).abs() < 1e-12);
        assert!(!stats[0].lb_active);
        assert!((stats[1].wall_time - 2.0).abs() < 1e-12);
        assert!((stats[1].mean_utilization - 0.75).abs() < 1e-12);
        assert!(stats[1].lb_active);
    }

    #[test]
    fn incomplete_iterations_are_dropped() {
        let c = Collector::new(2);
        c.record_marks(0, vec![mark(0, 1.0, 0.0, 1.0)]);
        assert!(c.iteration_stats().is_empty());
    }

    #[test]
    fn lb_iterations_deduplicated_sorted() {
        let c = Collector::new(1);
        c.push_lb_event(7);
        c.push_lb_event(3);
        c.push_lb_event(7);
        assert_eq!(c.lb_iterations(), vec![3, 7]);
    }

    #[test]
    fn utilization_clamped() {
        let c = Collector::new(1);
        // busy > wall would be an accounting bug upstream; the collector
        // still reports a sane value.
        c.record_marks(0, vec![mark(0, 5.0, 0.0, 1.0)]);
        let stats = c.iteration_stats();
        assert_eq!(stats[0].mean_utilization, 1.0);
    }
}
