//! Generic simulated-annealing engine.
//!
//! Boulmier et al. (CLUSTER 2019, §III-B) validate their analytical LB-interval
//! bound `σ⁺` against a heuristic search performed with the Python
//! [`simanneal`](https://github.com/perrygeo/simanneal) module. This crate is a
//! from-scratch Rust replacement implementing the same Metropolis
//! simulated-annealing procedure:
//!
//! * geometric (exponential) cooling from `t_max` to `t_min` over a fixed
//!   number of steps (the `simanneal` default);
//! * Metropolis acceptance: downhill moves always accepted, uphill moves with
//!   probability `exp(-ΔE / T)`;
//! * best-state tracking (the returned solution is the best ever visited, not
//!   the final state);
//! * optional automatic temperature calibration following `simanneal`'s
//!   `auto()` heuristic (target initial/final acceptance rates);
//! * fully deterministic under a fixed seed.
//!
//! # The propose / commit protocol
//!
//! The engine is problem-agnostic: implement [`AnnealProblem`] for your state
//! space. A step is [`AnnealProblem::propose`] — draw a move and return the
//! energy the state *would* have, without touching it — then the Metropolis
//! decision, then [`AnnealProblem::commit`] only if the move was accepted; the
//! state is cloned only when it becomes the new best. A move therefore costs
//! what it changes. For the LB-schedule problem (`ulba-model::search`) that is
//! a binary search, at most two closed-form interval costs and one pass of
//! adds over at most γ cached costs, with no allocation per move.
//!
//! `propose` returns the candidate's *energy*, not ΔE (`simanneal`'s `move()`
//! may return either): an energy re-summed in the order [`AnnealProblem::energy`]
//! sums it is bit-identical to evaluating the candidate from scratch, which
//! `current + Δ` is not, and a trajectory decided on equal bits is the same
//! trajectory.
//!
//! # Example
//!
//! ```
//! use ulba_anneal::{AnnealProblem, Annealer, CoolingSchedule};
//!
//! /// Minimize x^2 over integers in [-100, 100].
//! struct Parabola;
//!
//! impl AnnealProblem for Parabola {
//!     type State = i64;
//!     /// The move is the candidate state itself; committing assigns it.
//!     type Move = i64;
//!     fn energy(&self, s: &i64) -> f64 { (*s as f64) * (*s as f64) }
//!     fn propose(&self, s: &i64, rng: &mut dyn rand::RngCore) -> (i64, f64) {
//!         let step = (rand::Rng::random_range(&mut *rng, 0..=2)) as i64 - 1;
//!         let cand = (s + step).clamp(-100, 100);
//!         (cand, self.energy(&cand))
//!     }
//!     fn commit(&self, s: &mut i64, cand: i64) { *s = cand; }
//! }
//!
//! let annealer = Annealer::new(CoolingSchedule::geometric(25_000.0, 2.5), 20_000).with_seed(42);
//! let outcome = annealer.run(&Parabola, 80);
//! assert_eq!(outcome.best_state, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A combinatorial optimization problem solvable by simulated annealing.
///
/// Energies are minimized. The engine clones the state only when a new best
/// is found; see the module docs for the propose / commit protocol.
pub trait AnnealProblem {
    /// The state-space element type.
    type State: Clone;

    /// A drawn move, carrying whatever [`AnnealProblem::commit`] needs to
    /// apply it (for a small state, the candidate state itself).
    type Move;

    /// The objective to minimize.
    fn energy(&self, state: &Self::State) -> f64;

    /// Draw a random move from `state` and return it with the energy the
    /// state would have after it, to the bit what [`AnnealProblem::energy`]
    /// returns once the move is committed. `state` is not touched.
    fn propose(&self, state: &Self::State, rng: &mut dyn RngCore) -> (Self::Move, f64);

    /// Apply a move that [`AnnealProblem::propose`] drew from this `state`.
    fn commit(&self, state: &mut Self::State, mv: Self::Move);
}

/// Temperature trajectory followed during the anneal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoolingSchedule {
    /// Exponential decay from `t_max` down to `t_min` (the `simanneal`
    /// default): `T(k) = t_max * (t_min / t_max)^(k / steps)`.
    Geometric {
        /// Initial temperature (> 0).
        t_max: f64,
        /// Final temperature (> 0, < `t_max`).
        t_min: f64,
    },
}

impl CoolingSchedule {
    /// Geometric cooling between the two temperatures (panics if invalid).
    pub fn geometric(t_max: f64, t_min: f64) -> Self {
        assert!(
            t_max > 0.0 && t_min > 0.0 && t_min <= t_max,
            "geometric cooling requires 0 < t_min <= t_max, got t_min={t_min}, t_max={t_max}"
        );
        Self::Geometric { t_max, t_min }
    }

    /// Temperature after a fraction `progress` in `[0, 1]` of the anneal.
    pub fn temperature(&self, progress: f64) -> f64 {
        let p = progress.clamp(0.0, 1.0);
        let Self::Geometric { t_max, t_min } = *self;
        t_max * (t_min / t_max).powf(p)
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealOutcome<S> {
    /// Best state ever visited.
    pub best_state: S,
    /// Energy of [`AnnealOutcome::best_state`].
    pub best_energy: f64,
    /// Energy of the initial state (for improvement reporting).
    pub initial_energy: f64,
    /// Number of candidate moves evaluated.
    pub moves_evaluated: u64,
    /// Number of accepted moves (downhill + Metropolis uphill).
    pub moves_accepted: u64,
    /// Number of accepted moves that strictly improved the current energy.
    pub improvements: u64,
}

impl<S> AnnealOutcome<S> {
    /// Acceptance ratio over the whole run.
    pub fn acceptance_rate(&self) -> f64 {
        if self.moves_evaluated == 0 {
            0.0
        } else {
            self.moves_accepted as f64 / self.moves_evaluated as f64
        }
    }

    /// Relative improvement of the best energy over the initial energy.
    ///
    /// Positive values mean the anneal found a better (lower-energy) state.
    pub fn relative_improvement(&self) -> f64 {
        if self.initial_energy == 0.0 {
            0.0
        } else {
            (self.initial_energy - self.best_energy) / self.initial_energy.abs()
        }
    }
}

/// Simulated-annealing driver.
///
/// Mirrors the knobs of the Python `simanneal` module: a cooling schedule, a
/// step budget, and a seed. Use [`Annealer::calibrated`] to auto-select
/// temperatures like `simanneal`'s `auto()`.
#[derive(Debug, Clone)]
pub struct Annealer {
    schedule: CoolingSchedule,
    steps: u64,
    seed: u64,
}

impl Annealer {
    /// Create an annealer with an explicit cooling schedule and step budget
    /// (zero steps is legal: the outcome is the initial state).
    pub fn new(schedule: CoolingSchedule, steps: u64) -> Self {
        Self { schedule, steps, seed: 0xA11EA1ED }
    }

    /// Set the RNG seed (runs are deterministic given a seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of annealing steps this driver will perform.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The cooling schedule in use.
    pub fn schedule(&self) -> CoolingSchedule {
        self.schedule
    }

    /// Auto-calibrate temperatures on a problem instance, mimicking
    /// `simanneal`'s `auto()`: pick `t_max` so that ~98 % of uphill moves are
    /// accepted at the start and `t_min` so that uphill acceptance is ~2 % at
    /// the end, based on the uphill ΔE distribution sampled by a short random
    /// walk from `initial`.
    pub fn calibrated<P: AnnealProblem>(
        problem: &P,
        initial: &P::State,
        steps: u64,
        probe_moves: u32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCA11B8A7E);
        let mut state = initial.clone();
        let mut energy = problem.energy(&state);
        let mut uphill = Vec::new();
        for _ in 0..probe_moves.max(8) {
            let (mv, e) = problem.propose(&state, &mut rng);
            let delta = e - energy;
            if delta > 0.0 {
                uphill.push(delta);
            }
            // Random-walk regardless of direction to explore the landscape.
            problem.commit(&mut state, mv);
            energy = e;
        }
        let (t_max, t_min) = if uphill.is_empty() {
            // Landscape looks monotone from here; any temperatures work.
            (1.0, 1e-3)
        } else {
            uphill.sort_by(|a, b| a.partial_cmp(b).expect("finite energies"));
            let hi = uphill[uphill.len() - 1];
            let lo = uphill[0].max(1e-12);
            // accept(ΔE) = exp(-ΔE/T) = p  =>  T = ΔE / -ln(p)
            let t_max = hi / -(0.98f64.ln()); // ~50x the largest uphill step
            let t_min = lo / -(0.02f64.ln()); // ~0.26x the smallest uphill step
            (t_max.max(1e-9), t_min.clamp(1e-12, t_max).min(t_max))
        };
        Self::new(CoolingSchedule::geometric(t_max, t_min.min(t_max)), steps).with_seed(seed)
    }

    /// Run the anneal from `initial`, returning the best state found.
    pub fn run<P: AnnealProblem>(&self, problem: &P, initial: P::State) -> AnnealOutcome<P::State> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut current = initial;
        let mut current_energy = problem.energy(&current);
        let initial_energy = current_energy;
        let mut best = current.clone();
        let mut best_energy = current_energy;

        let mut evaluated = 0u64;
        let mut accepted = 0u64;
        let mut improvements = 0u64;

        for step in 0..self.steps {
            let progress = step as f64 / self.steps as f64;
            let temperature = self.schedule.temperature(progress);

            let (mv, candidate_energy) = problem.propose(&current, &mut rng);
            evaluated += 1;

            let delta = candidate_energy - current_energy;
            let accept = delta <= 0.0
                || (temperature > 0.0 && rng.random::<f64>() < (-delta / temperature).exp());
            if accept {
                accepted += 1;
                if delta < 0.0 {
                    improvements += 1;
                }
                problem.commit(&mut current, mv);
                current_energy = candidate_energy;
                if current_energy < best_energy {
                    best_energy = current_energy;
                    best = current.clone();
                }
            }
        }

        AnnealOutcome {
            best_state: best,
            best_energy,
            initial_energy,
            moves_evaluated: evaluated,
            moves_accepted: accepted,
            improvements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D quadratic bowl over a bounded integer lattice.
    struct Bowl {
        target: i64,
    }

    impl AnnealProblem for Bowl {
        type State = i64;
        type Move = i64;
        fn energy(&self, s: &i64) -> f64 {
            let d = (s - self.target) as f64;
            d * d
        }
        fn propose(&self, s: &i64, rng: &mut dyn RngCore) -> (i64, f64) {
            let step: i64 = rng.random_range(-3..=3);
            let cand = (s + step).clamp(-1000, 1000);
            (cand, self.energy(&cand))
        }
        fn commit(&self, s: &mut i64, cand: i64) {
            *s = cand;
        }
    }

    /// A rugged multi-modal objective (sum of two cosines plus a bowl) to make
    /// sure Metropolis escapes local minima.
    struct Rugged;

    impl AnnealProblem for Rugged {
        type State = f64;
        type Move = f64;
        fn energy(&self, s: &f64) -> f64 {
            (s - 7.0).powi(2) + 10.0 * (3.0 * s).cos() + 10.0
        }
        fn propose(&self, s: &f64, rng: &mut dyn RngCore) -> (f64, f64) {
            let cand = (s + rng.random_range(-0.5..0.5)).clamp(-50.0, 50.0);
            (cand, self.energy(&cand))
        }
        fn commit(&self, s: &mut f64, cand: f64) {
            *s = cand;
        }
    }

    #[test]
    fn geometric_schedule_endpoints() {
        let s = CoolingSchedule::geometric(100.0, 1.0);
        assert!((s.temperature(0.0) - 100.0).abs() < 1e-12);
        assert!((s.temperature(1.0) - 1.0).abs() < 1e-12);
        // Monotone decreasing.
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let t = s.temperature(i as f64 / 10.0);
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "geometric cooling requires")]
    fn geometric_rejects_zero_t_min() {
        CoolingSchedule::geometric(10.0, 0.0);
    }

    #[test]
    fn finds_quadratic_minimum() {
        let annealer = Annealer::new(CoolingSchedule::geometric(1e4, 1e-2), 30_000).with_seed(7);
        let out = annealer.run(&Bowl { target: 137 }, -500);
        assert_eq!(out.best_state, 137, "best energy {}", out.best_energy);
        assert_eq!(out.best_energy, 0.0);
    }

    #[test]
    fn escapes_local_minima_on_rugged_landscape() {
        // Greedy descent from 0.0 gets stuck near a cosine well; annealing
        // should reach the global basin near s ≈ 7.33 (energy < 2.5).
        let annealer = Annealer::new(CoolingSchedule::geometric(50.0, 1e-3), 60_000).with_seed(3);
        let out = annealer.run(&Rugged, 0.0);
        assert!(
            out.best_energy < 2.5,
            "expected global basin, got energy {} at {}",
            out.best_energy,
            out.best_state
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let annealer = Annealer::new(CoolingSchedule::geometric(100.0, 0.1), 5_000).with_seed(99);
        let a = annealer.run(&Bowl { target: -42 }, 500);
        let b = annealer.run(&Bowl { target: -42 }, 500);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.moves_accepted, b.moves_accepted);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let base = Annealer::new(CoolingSchedule::geometric(100.0, 0.1), 300);
        let a = base.clone().with_seed(1).run(&Bowl { target: 0 }, 900);
        let b = base.with_seed(2).run(&Bowl { target: 0 }, 900);
        // Both make progress; trajectories differ (acceptance counts almost
        // surely differ on 300 stochastic moves).
        assert!(a.best_energy < 900.0 * 900.0);
        assert!(b.best_energy < 900.0 * 900.0);
        assert!(
            a.moves_accepted != b.moves_accepted || a.best_state != b.best_state,
            "two seeds produced identical trajectories"
        );
    }

    #[test]
    fn best_state_never_worse_than_initial() {
        let annealer = Annealer::new(CoolingSchedule::geometric(1e6, 1e3), 200).with_seed(5);
        // Hot anneal accepts almost everything; best-tracking must still hold.
        let out = annealer.run(&Bowl { target: 0 }, 10);
        assert!(out.best_energy <= out.initial_energy);
    }

    #[test]
    fn calibration_produces_valid_schedule() {
        let annealer = Annealer::calibrated(&Bowl { target: 5 }, &800, 10_000, 200, 11);
        let CoolingSchedule::Geometric { t_max, t_min } = annealer.schedule();
        assert!(t_max > 0.0 && t_min > 0.0 && t_min <= t_max);
        let out = annealer.run(&Bowl { target: 5 }, 800);
        assert!(out.best_energy < 100.0, "calibrated run should converge near 5");
    }

    #[test]
    fn zero_steps_returns_the_initial_state() {
        // `ULBA_SA_STEPS=0 fig2` reaches here: no move is drawn, nothing panics.
        let out = Annealer::calibrated(&Bowl { target: 5 }, &800, 0, 200, 11)
            .run(&Bowl { target: 5 }, 800);
        assert_eq!((out.best_state, out.moves_evaluated), (800, 0));
        assert_eq!(out.best_energy, out.initial_energy);
    }

    #[test]
    fn outcome_statistics_are_consistent() {
        let annealer = Annealer::new(CoolingSchedule::geometric(100.0, 0.1), 1_000).with_seed(31);
        let out = annealer.run(&Bowl { target: 50 }, 0);
        assert_eq!(out.moves_evaluated, 1_000);
        assert!(out.moves_accepted <= out.moves_evaluated);
        assert!(out.improvements <= out.moves_accepted);
        assert!(out.acceptance_rate() <= 1.0);
        assert!(out.relative_improvement() >= 0.0);
    }
}
