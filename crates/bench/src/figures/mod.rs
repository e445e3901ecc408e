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
