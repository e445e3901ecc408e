//! The machine cost model: compute speeds and Hockney-style communication
//! costs that drive the virtual clocks.

use serde::{Deserialize, Serialize};

/// Speeds and network parameters of the simulated machine.
///
/// Compute time is `flops / speed(rank)`. Point-to-point messages follow the
/// Hockney model `α + n·β` (latency plus bytes over bandwidth); collectives
/// use binomial-tree terms with `⌈log₂ P⌉` rounds, the standard first-order
/// model for MPI implementations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineSpec {
    /// PE speed in FLOP/s, the same on every rank (`ω` in the paper,
    /// 1 GFLOPS by default as in Table II).
    pub base_speed: f64,
    /// Network latency `α` in seconds per message.
    pub latency: f64,
    /// Network bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl Default for MachineSpec {
    fn default() -> Self {
        // ω = 1 GFLOPS (Table II); α = 5 µs, bw = 5 GB/s — typical of the
        // FDR-InfiniBand generation of the paper's Baobab cluster.
        Self { base_speed: 1.0e9, latency: 5.0e-6, bandwidth: 5.0e9 }
    }
}

impl MachineSpec {
    /// Homogeneous machine with the given PE speed (FLOP/s).
    pub fn homogeneous(speed: f64) -> Self {
        assert!(speed > 0.0 && speed.is_finite());
        Self { base_speed: speed, ..Default::default() }
    }

    /// Speed of `rank` in FLOP/s.
    pub fn speed(&self, _rank: usize) -> f64 {
        self.base_speed
    }

    /// Seconds to compute `flops` on `rank`.
    pub fn compute_secs(&self, rank: usize, flops: f64) -> f64 {
        debug_assert!(flops >= 0.0);
        flops / self.speed(rank)
    }

    /// Hockney point-to-point cost: `α + bytes/bw`.
    pub fn p2p_secs(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// `⌈log₂ p⌉` rounds (0 for p ≤ 1).
    fn rounds(p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            (p as f64).log2().ceil()
        }
    }

    /// Barrier cost: one latency per tree round.
    pub fn barrier_secs(&self, p: usize) -> f64 {
        Self::rounds(p) * self.latency
    }

    /// Broadcast of `bytes` from the root: binomial tree.
    pub fn broadcast_secs(&self, p: usize, bytes: usize) -> f64 {
        Self::rounds(p) * (self.latency + bytes as f64 / self.bandwidth)
    }

    /// Gather of `bytes` *per rank* to the root: the root receives
    /// `(p − 1)·bytes` in total.
    pub fn gather_secs(&self, p: usize, bytes_per_rank: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        Self::rounds(p) * self.latency + (p - 1) as f64 * bytes_per_rank as f64 / self.bandwidth
    }

    /// Allgather of `bytes` per rank (ring/Bruck first-order term).
    pub fn allgather_secs(&self, p: usize, bytes_per_rank: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        Self::rounds(p) * self.latency + (p - 1) as f64 * bytes_per_rank as f64 / self.bandwidth
    }

    /// Allreduce of `bytes`: reduce-scatter + allgather ≈ two tree phases.
    pub fn allreduce_secs(&self, p: usize, bytes: usize) -> f64 {
        2.0 * Self::rounds(p) * (self.latency + bytes as f64 / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_scales_with_speed() {
        let spec = MachineSpec::homogeneous(2.0e9);
        assert_eq!(spec.compute_secs(0, 4.0e9), 2.0);
    }

    #[test]
    fn p2p_has_latency_floor() {
        let spec = MachineSpec::default();
        assert_eq!(spec.p2p_secs(0), spec.latency);
        assert!(spec.p2p_secs(1 << 20) > spec.p2p_secs(0));
    }

    #[test]
    fn collective_costs_grow_with_p() {
        let spec = MachineSpec::default();
        for bytes in [8usize, 4096] {
            assert!(spec.broadcast_secs(64, bytes) > spec.broadcast_secs(4, bytes));
            assert!(spec.allgather_secs(64, bytes) > spec.allgather_secs(4, bytes));
            assert!(spec.allreduce_secs(64, bytes) > spec.allreduce_secs(4, bytes));
            assert!(spec.barrier_secs(64) > spec.barrier_secs(4));
        }
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let spec = MachineSpec::default();
        assert_eq!(spec.barrier_secs(1), 0.0);
        assert_eq!(spec.broadcast_secs(1, 1024), 0.0);
        assert_eq!(spec.gather_secs(1, 1024), 0.0);
        assert_eq!(spec.allgather_secs(1, 1024), 0.0);
        assert_eq!(spec.allreduce_secs(1, 1024), 0.0);
    }

    #[test]
    fn log_tree_rounds() {
        let spec = MachineSpec { latency: 1.0, bandwidth: 1.0e18, ..Default::default() };
        // With unit latency and effectively infinite bandwidth the barrier
        // cost counts exactly the tree rounds.
        assert_eq!(spec.barrier_secs(2), 1.0);
        assert_eq!(spec.barrier_secs(8), 3.0);
        assert_eq!(spec.barrier_secs(9), 4.0);
    }
}
