//! Property-based tests of the simulated-annealing engine.

use proptest::prelude::*;
use rand::RngCore;
use ulba_anneal::{AnnealProblem, Annealer, CoolingSchedule};

struct Quadratic {
    target: f64,
}

impl AnnealProblem for Quadratic {
    type State = f64;
    type Move = f64;
    fn energy(&self, s: &f64) -> f64 {
        (s - self.target) * (s - self.target)
    }
    fn propose(&self, s: &f64, rng: &mut dyn RngCore) -> (f64, f64) {
        let step = (rng.next_u32() as f64 / u32::MAX as f64) * 2.0 - 1.0;
        let cand = (s + step).clamp(-1e4, 1e4);
        (cand, self.energy(&cand))
    }
    fn commit(&self, s: &mut f64, cand: f64) {
        *s = cand;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The temperature schedule is monotone non-increasing over progress.
    #[test]
    fn schedules_are_monotone(t_max in 1.0f64..1e6, ratio in 1e-6f64..1.0) {
        let t_min = t_max * ratio;
        let schedule = CoolingSchedule::geometric(t_max, t_min);
        let mut prev = f64::INFINITY;
        for k in 0..=20 {
            let t = schedule.temperature(k as f64 / 20.0);
            prop_assert!(t <= prev + 1e-12);
            prop_assert!(t >= t_min - 1e-9 && t <= t_max + 1e-9);
            prev = t;
        }
    }

    /// The best state never has higher energy than the initial state, for
    /// any seed, temperature range and starting point.
    #[test]
    fn best_never_worse_than_initial(
        seed in any::<u64>(),
        start in -1e3f64..1e3,
        target in -1e3f64..1e3,
        t_max in 0.1f64..1e4,
    ) {
        let problem = Quadratic { target };
        let annealer =
            Annealer::new(CoolingSchedule::geometric(t_max, t_max * 1e-4), 2_000).with_seed(seed);
        let out = annealer.run(&problem, start);
        prop_assert!(out.best_energy <= problem.energy(&start) + 1e-12);
        prop_assert!(out.moves_accepted <= out.moves_evaluated);
        prop_assert!(out.improvements <= out.moves_accepted);
    }

    /// Determinism: identical seeds give identical outcomes.
    #[test]
    fn deterministic(seed in any::<u64>(), start in -100.0f64..100.0) {
        let problem = Quadratic { target: 0.0 };
        let annealer =
            Annealer::new(CoolingSchedule::geometric(10.0, 0.01), 500).with_seed(seed);
        let a = annealer.run(&problem, start);
        let b = annealer.run(&problem, start);
        prop_assert_eq!(a.best_state, b.best_state);
        prop_assert_eq!(a.best_energy, b.best_energy);
        prop_assert_eq!(a.moves_accepted, b.moves_accepted);
    }
}
