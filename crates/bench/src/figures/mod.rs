//! One module per study; each `run` prints the figure's/table's rows and
//! writes a CSV under `results/`. `ulba-bench <study>` (`src/main.rs`) picks
//! a study's defaults and flags and calls its `run`, so `ulba-bench fig3`
//! regenerates exactly one artifact and `ulba-bench all` every paper
//! artifact and ablation.

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod job_server;
pub mod scenarios;
pub mod table2;
pub mod weak_scaling;

/// Standard seeds used for median-of-N erosion runs (the paper uses the
/// median of five runs).
pub const MEDIAN_SEEDS: [u64; 5] = [11, 23, 37, 53, 71];

/// The PE counts of the paper's scaling study (§IV-B).
pub const PAPER_PE_COUNTS: [usize; 4] = [32, 64, 128, 256];

/// `Err` naming the first seed on which a policy eroded a different number
/// of cells than `policies[0]`. The LB policy decides where a column lives,
/// never whether a cell erodes, so at figure scale this guards the same
/// physics that `crates/erosion/tests/policy_invariance.rs` checks at test
/// scale. `eroded` is policy-major: `eroded[p * seeds.len() + s]` is
/// policy `p` on `seeds[s]`.
pub fn check_same_erosion(
    cell: &str,
    policies: &[impl std::fmt::Display],
    seeds: &[u64],
    eroded: &[u64],
) -> Result<(), String> {
    assert_eq!(eroded.len(), policies.len() * seeds.len(), "one count per policy and seed");
    for (p, policy) in policies.iter().enumerate().skip(1) {
        for (s, seed) in seeds.iter().enumerate() {
            let (first, other) = (eroded[s], eroded[p * seeds.len() + s]);
            if first != other {
                return Err(format!(
                    "[{cell}] seed {seed}: {} eroded {first} cells but {policy} eroded {other}; \
                     the LB policy changed the erosion",
                    policies[0]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_policy_that_erodes_differently_is_named_with_the_seed_and_both_counts() {
        let seeds = [11, 23];
        assert!(
            check_same_erosion("P=8 rocks=1", &["standard", "ulba"], &seeds, &[5, 6, 5, 6]).is_ok()
        );
        let err = check_same_erosion("P=8 rocks=1", &["a", "b", "c"], &seeds, &[5, 6, 5, 6, 5, 7])
            .unwrap_err();
        assert!(err.starts_with("[P=8 rocks=1] seed 23: a eroded 6 cells but c eroded 7"), "{err}");
    }
}
