//! LB-schedule optimizers: exact dynamic programming, exhaustive enumeration
//! (test oracle), and the simulated-annealing search of §III-B.
//!
//! The paper validates σ⁺ against simulated annealing because "finding the
//! optimal LB intervals is challenging using an analytical method". The total
//! time of Eq. (4), however, is *separable over LB intervals*: the cost of an
//! interval depends only on its endpoints (and the method). The optimal
//! schedule is therefore a shortest path in a DAG over segment boundaries,
//! computable exactly in `O(γ²)` — [`optimal_schedule`] does precisely that,
//! giving a ground-truth optimum the paper could only approximate.

use crate::params::ModelParams;
use crate::schedule::{segment_time, total_time, Method, Schedule};
use rand::Rng;
use ulba_anneal::{AnnealProblem, Annealer};

/// Result of a schedule search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its total application time under the search's method (seconds).
    pub time: f64,
}

/// Exact optimal schedule by shortest-path dynamic programming over segment
/// boundaries (`O(γ²)` segment-cost evaluations, each `O(1)` closed-form).
pub fn optimal_schedule(params: &ModelParams, method: Method) -> SearchResult {
    let gamma = params.gamma as usize;
    // dist[v] = minimal time of iterations [0, v); parent[v] = previous
    // boundary on the optimal path.
    let mut dist = vec![f64::INFINITY; gamma + 1];
    let mut parent = vec![0usize; gamma + 1];
    dist[0] = 0.0;
    for v in 1..=gamma {
        for u in 0..v {
            if u != 0 && dist[u].is_infinite() {
                continue;
            }
            let cand = dist[u] + segment_time(params, u as u32, v as u32, method);
            if cand < dist[v] {
                dist[v] = cand;
                parent[v] = u;
            }
        }
    }
    // Reconstruct interior boundaries.
    let mut steps = Vec::new();
    let mut v = gamma;
    while v > 0 {
        let u = parent[v];
        if u > 0 {
            steps.push(u as u32);
        }
        v = u;
    }
    steps.reverse();
    let schedule = Schedule::new(steps, params.gamma);
    let time = total_time(params, &schedule, method);
    debug_assert!((time - dist[gamma]).abs() <= 1e-6 * time.max(1.0));
    SearchResult { schedule, time }
}

/// Exhaustive enumeration of all `2^(γ−1)` schedules. Only usable for tiny γ
/// (`γ ≤ 20` enforced); the oracle the DP is tested against.
#[cfg(test)]
fn exhaustive_schedule(params: &ModelParams, method: Method) -> SearchResult {
    assert!(params.gamma <= 20, "exhaustive search is O(2^gamma); use optimal_schedule instead");
    let slots = params.gamma - 1; // iterations 1..gamma
    let mut best: Option<SearchResult> = None;
    for mask in 0u64..(1u64 << slots) {
        let steps: Vec<u32> = (0..slots).filter(|b| mask >> b & 1 == 1).map(|b| b + 1).collect();
        let schedule = Schedule::new(steps, params.gamma);
        let time = total_time(params, &schedule, method);
        if best.as_ref().is_none_or(|b| time < b.time) {
            best = Some(SearchResult { schedule, time });
        }
    }
    best.expect("at least the empty schedule was evaluated")
}

/// The §III-B simulated-annealing state space: one LB flag per iteration; a
/// move flips the flag of one random iteration; the energy is Eq. (4).
pub struct ScheduleProblem<'a> {
    params: &'a ModelParams,
    method: Method,
}

/// A schedule as the annealer holds it: the sorted boundaries
/// `[0, s₁ … s_k, γ]` and, kept in step, the [`segment_time`] of each interval
/// (`costs[i]` is that of `bounds[i]..bounds[i + 1]`), whose left-to-right sum
/// is [`total_time`] to the bit.
#[derive(Debug, Clone)]
pub struct ScheduleState {
    bounds: Vec<u32>,
    costs: Vec<f64>,
}

impl ScheduleState {
    /// Segment boundaries `[0, s₁, …, s_k, γ]`.
    pub fn boundaries(&self) -> &[u32] {
        &self.bounds
    }
}

/// A drawn flip of one iteration's LB flag.
#[derive(Debug, Clone, Copy)]
pub struct Flip {
    iteration: u32,
    /// Where `iteration` sits in (`Ok`) or would enter (`Err`) the boundaries.
    at: Result<usize, usize>,
    /// `Ok`: the cost of the interval the two around `iteration` merge into
    /// (second entry unused); `Err`: of the two the interval around it splits
    /// into.
    costs: [f64; 2],
}

impl Flip {
    /// The iteration whose LB flag this move flips.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }
}

impl<'a> ScheduleProblem<'a> {
    /// Create the annealing problem for `params` under `method`.
    pub fn new(params: &'a ModelParams, method: Method) -> Self {
        Self { params, method }
    }

    /// The method whose model defines the energy.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The annealing state of `schedule`.
    pub fn state(&self, schedule: &Schedule) -> ScheduleState {
        let bounds = schedule.boundaries();
        let costs = bounds.windows(2).map(|w| self.segment(w[0], w[1])).collect();
        ScheduleState { bounds, costs }
    }

    fn segment(&self, start: u32, end: u32) -> f64 {
        segment_time(self.params, start, end, self.method)
    }
}

impl AnnealProblem for ScheduleProblem<'_> {
    type State = ScheduleState;
    type Move = Flip;

    fn energy(&self, state: &ScheduleState) -> f64 {
        state.costs.iter().sum()
    }

    fn propose(&self, state: &ScheduleState, rng: &mut dyn rand::RngCore) -> (Flip, f64) {
        let ScheduleState { bounds, costs } = state;
        // Iteration 0 is not a valid LB point (balanced start); flip in 1..γ,
        // so 1 ≤ pos ≤ k + 1 on either arm.
        let iteration = rng.random_range(1..self.params.gamma);
        let at = bounds.binary_search(&iteration);
        let (Ok(pos) | Err(pos)) = at;
        let left = bounds[pos - 1];
        let (new, used, tail) = match at {
            Ok(_) => ([self.segment(left, bounds[pos + 1]), 0.0], 1, pos + 1),
            Err(_) => {
                ([self.segment(left, iteration), self.segment(iteration, bounds[pos])], 2, pos)
            }
        };
        // Re-summed left to right, never `current + Δ`: the same fold over
        // the same bits as `total_time` of the candidate from scratch.
        let energy = costs[..pos - 1].iter().chain(&new[..used]).chain(&costs[tail..]).sum();
        (Flip { iteration, at, costs: new }, energy)
    }

    fn commit(&self, state: &mut ScheduleState, flip: Flip) {
        let (Ok(pos) | Err(pos)) = flip.at;
        state.costs[pos - 1] = flip.costs[0];
        if flip.at.is_ok() {
            state.bounds.remove(pos);
            state.costs.remove(pos);
        } else {
            state.bounds.insert(pos, flip.iteration);
            state.costs.insert(pos, flip.costs[1]);
        }
    }
}

/// Configuration of the simulated-annealing schedule search.
#[derive(Debug, Clone, Copy)]
pub struct AnnealSearchConfig {
    /// Number of annealing moves.
    pub steps: u64,
    /// RNG seed (deterministic searches).
    pub seed: u64,
    /// Probe moves used by the automatic temperature calibration.
    pub probe_moves: u32,
}

impl Default for AnnealSearchConfig {
    fn default() -> Self {
        // ~20k moves converges to within noise of the DP optimum on γ = 100
        // Table II instances (see tests) in ≈ 3 ms per anneal; the paper's
        // Python runs used far more wall-clock for the same quality.
        Self { steps: 20_000, seed: 0x5EED, probe_moves: 200 }
    }
}

/// Simulated-annealing schedule search (the paper's validation procedure).
///
/// Starts from the empty schedule, auto-calibrates temperatures on the
/// instance, and returns the best schedule visited.
pub fn anneal_schedule(
    params: &ModelParams,
    method: Method,
    config: AnnealSearchConfig,
) -> SearchResult {
    let empty = Schedule::empty(params.gamma);
    if params.gamma == 1 {
        // One iteration has no LB point to flip: the only schedule, no draw.
        return SearchResult { time: total_time(params, &empty, method), schedule: empty };
    }
    let problem = ScheduleProblem::new(params, method);
    let initial = problem.state(&empty);
    let annealer =
        Annealer::calibrated(&problem, &initial, config.steps, config.probe_moves, config.seed);
    let outcome = annealer.run(&problem, initial);
    // `Schedule::new` drops the two end boundaries, 0 and γ.
    let schedule = Schedule::new(outcome.best_state.bounds, params.gamma);
    SearchResult { time: outcome.best_energy, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ModelParams {
        let mut p = ModelParams::example();
        p.gamma = 14;
        // Make LB worthwhile within 14 iterations: heavy growth, cheap LB.
        p.m = 4.0e8;
        p.c = 0.3;
        p
    }

    #[test]
    fn dp_matches_exhaustive_oracle_standard() {
        let p = small_params();
        let dp = optimal_schedule(&p, Method::Standard);
        let ex = exhaustive_schedule(&p, Method::Standard);
        assert!(
            (dp.time - ex.time).abs() <= 1e-9 * ex.time,
            "DP {} vs exhaustive {}",
            dp.time,
            ex.time
        );
    }

    #[test]
    fn dp_matches_exhaustive_oracle_ulba() {
        let p = small_params();
        for alpha in [0.2, 0.5, 0.9] {
            let m = Method::Ulba { alpha };
            let dp = optimal_schedule(&p, m);
            let ex = exhaustive_schedule(&p, m);
            assert!(
                (dp.time - ex.time).abs() <= 1e-9 * ex.time,
                "alpha={alpha}: DP {} vs exhaustive {}",
                dp.time,
                ex.time
            );
        }
    }

    #[test]
    fn dp_optimum_beats_heuristics() {
        let p = ModelParams::example();
        for method in [Method::Standard, Method::Ulba { alpha: 0.4 }] {
            let dp = optimal_schedule(&p, method);
            let menon = total_time(&p, &crate::schedule::menon_schedule(&p), method);
            let sigma =
                total_time(&p, &crate::schedule::sigma_plus_schedule(&p, method.alpha()), method);
            let empty = total_time(&p, &Schedule::empty(p.gamma), method);
            assert!(dp.time <= menon + 1e-9, "{method:?}: DP must beat Menon");
            assert!(dp.time <= sigma + 1e-9, "{method:?}: DP must beat σ⁺");
            assert!(dp.time <= empty + 1e-9, "{method:?}: DP must beat no-LB");
        }
    }

    #[test]
    fn anneal_close_to_dp_optimum() {
        let p = ModelParams::example();
        let method = Method::Ulba { alpha: 0.4 };
        let dp = optimal_schedule(&p, method);
        let sa = anneal_schedule(&p, method, AnnealSearchConfig::default());
        // SA is a heuristic: accept within 2 % of the exact optimum.
        assert!(sa.time <= dp.time * 1.02, "SA {} too far from DP optimum {}", sa.time, dp.time);
        assert!(sa.time >= dp.time * (1.0 - 1e-9), "SA cannot beat the exact optimum");
    }

    #[test]
    fn anneal_is_deterministic() {
        let p = small_params();
        let cfg = AnnealSearchConfig { steps: 3_000, seed: 42, probe_moves: 50 };
        let a = anneal_schedule(&p, Method::Standard, cfg);
        let b = anneal_schedule(&p, Method::Standard, cfg);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn anneal_on_one_iteration_is_the_empty_schedule() {
        // γ = 1 passes `validate` and the DP answers it; the SA used to panic
        // drawing from `1..1`.
        let p = ModelParams { gamma: 1, ..ModelParams::example() };
        p.validate().unwrap();
        let sa = anneal_schedule(&p, Method::Ulba { alpha: 0.4 }, AnnealSearchConfig::default());
        assert_eq!(sa.schedule, Schedule::empty(1));
        assert_eq!(sa.time, optimal_schedule(&p, Method::Ulba { alpha: 0.4 }).time);
    }

    #[test]
    fn no_lb_optimal_when_cost_prohibitive() {
        let mut p = small_params();
        p.c = 1.0e12; // absurdly expensive LB
        let dp = optimal_schedule(&p, Method::Standard);
        assert_eq!(dp.schedule.num_calls(), 0);
    }

    #[test]
    fn frequent_lb_optimal_when_free() {
        let mut p = small_params();
        p.c = 0.0; // free LB: rebalancing every iteration is never worse
        let dp = optimal_schedule(&p, Method::Standard);
        assert_eq!(dp.schedule.num_calls() as u32, p.gamma - 1);
    }
}
