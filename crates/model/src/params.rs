//! Application/model parameters (Table I of the paper).

use serde::{Deserialize, Serialize};

/// Parameters of the analytical application model (Table I).
///
/// The application starts with `w0` FLOP of work, perfectly balanced over `p`
/// processing elements (PEs). At every iteration, `a` FLOP are added to every
/// PE and an extra `m` FLOP to each of the `n` *overloading* PEs, so the total
/// workload grows by `ΔW = a·P + m·N` per iteration. Every PE computes at `ω`
/// FLOP/s, and one load-balancing step costs `c` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// `P` — number of processing elements.
    pub p: u32,
    /// `N` — number of overloading PEs (`0 ≤ N < P`).
    pub n: u32,
    /// `γ` — number of iterations the application runs.
    pub gamma: u32,
    /// `Wtot(0)` — initial total workload in FLOP.
    pub w0: f64,
    /// `a` — workload added to *every* PE at each iteration (FLOP/iteration).
    pub a: f64,
    /// `m` — workload added, in addition to `a`, to each overloading PE
    /// (FLOP/iteration).
    pub m: f64,
    /// `ω` — speed of every PE in FLOP/s.
    pub omega: f64,
    /// `C` — cost of one load-balancing step, in seconds.
    pub c: f64,
}

impl ModelParams {
    /// Validate the invariants assumed by the equations of the paper.
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.p == 0 {
            return Err("P must be positive".into());
        }
        if self.n >= self.p {
            return Err(format!("N must be < P, got N={} P={}", self.n, self.p));
        }
        if self.gamma == 0 {
            return Err("gamma must be positive".into());
        }
        for (name, v) in [("Wtot(0)", self.w0), ("a", self.a), ("m", self.m), ("C", self.c)] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if !(self.omega.is_finite() && self.omega > 0.0) {
            return Err(format!("omega must be finite and positive, got {}", self.omega));
        }
        Ok(())
    }

    /// `ΔW = a·P + m·N` — total workload increase per iteration (Table I).
    pub fn delta_w(&self) -> f64 {
        self.a * self.p as f64 + self.m * self.n as f64
    }

    /// `Wtot(i) = Wtot(0) + i·ΔW` — Eq. (1).
    pub fn wtot(&self, iteration: u32) -> f64 {
        self.w0 + iteration as f64 * self.delta_w()
    }

    /// `m̂ = m·(P − N)/P` — extra workload-increase rate of the most loaded
    /// PEs (Menon et al. mapping given in §II-C of the paper).
    ///
    /// When `N = 0` no PE actually receives the extra rate `m`, so `m̂ = 0`
    /// regardless of `m` (the formula's `N → 0` limit is an artifact of the
    /// mapping, not a physical rate).
    pub fn m_hat(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.m * (self.p - self.n) as f64 / self.p as f64
    }

    /// Time to compute one perfectly balanced iteration of the *initial*
    /// workload, in seconds: `Wtot(0)/(P·ω)`. Table II expresses the LB cost
    /// as a multiple of this quantity.
    pub fn balanced_iteration_time(&self) -> f64 {
        self.w0 / (self.p as f64 * self.omega)
    }

    /// A small, hand-checkable example instance used across documentation and
    /// tests: 16 PEs, 2 overloaders, γ = 100.
    pub fn example() -> Self {
        Self { p: 16, n: 2, gamma: 100, w0: 16.0e9, a: 1.0e6, m: 5.0e7, omega: 1.0e9, c: 0.5 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_is_valid() {
        ModelParams::example().validate().unwrap();
    }

    #[test]
    fn delta_w_matches_definition() {
        let p = ModelParams::example();
        assert_eq!(p.delta_w(), 1.0e6 * 16.0 + 5.0e7 * 2.0);
    }

    #[test]
    fn wtot_is_linear_in_iteration() {
        let p = ModelParams::example();
        assert_eq!(p.wtot(0), p.w0);
        assert_eq!(p.wtot(10), p.w0 + 10.0 * p.delta_w());
    }

    #[test]
    fn menon_mapping_identities() {
        // §II-C maps the model onto Menon et al.'s: m̂ = m·(P − N)/P, and
        // with â = a + m·N/P the most loaded PE's rate decomposes as
        // â + m̂ = a + m.
        let p = ModelParams::example();
        let (pf, nf) = (p.p as f64, p.n as f64);
        assert!((p.m_hat() - p.m * (pf - nf) / pf).abs() < 1e-9);
        let a_hat = p.a + p.m * nf / pf;
        assert!(((a_hat + p.m_hat()) - (p.a + p.m)).abs() < 1e-6);
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut p = ModelParams::example();
        p.n = p.p;
        assert!(p.validate().is_err());
        let mut p = ModelParams::example();
        p.omega = 0.0;
        assert!(p.validate().is_err());
        let mut p = ModelParams::example();
        p.w0 = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = ModelParams::example();
        p.gamma = 0;
        assert!(p.validate().is_err());
    }
}
