//! What "bit-identical before/after" means for the LB loop: a committed
//! table of virtual makespans (as `f64` bits), LB schedules, database
//! footprints and physics/work totals over a grid of small erosion and
//! scenario runs that crosses policy × trigger × gossip wire ×
//! anticipatory partitioning. Virtual time is the paper's measurement and
//! it is an `f64`: any reordering of clock-touching calls in the loop —
//! sends vs compute, the two `elapse_lb` charges, the cost-only allgather
//! before migration — moves at least one row.
//!
//! The table is literal data, regenerated only on purpose:
//!
//! ```sh
//! cargo test --test lb_loop_golden -- --ignored --nocapture print_golden_table
//! ```

use ulba::core::gossip::GossipWire;
use ulba::core::outlier::DetectionStat;
use ulba::core::policy::{LbPolicy, UlbaConfig};
use ulba::erosion::{run_erosion_batch, ErosionConfig, TriggerKind};
use ulba::scenario::{run_scenario_batch, ScenarioConfig, ScenarioKind};

/// `(makespan bits, LB iterations, db entries, workload extras)`; the
/// extras are `(final_total_weight, total_eroded)` for erosion and
/// `(total_work_units, traffic_checksum)` for scenarios.
type Row = (u64, &'static [u64], u64, (u64, u64));

/// With `P ≤ 7` a single outlier's z-score is bounded by `√(P−1) < 3`, so
/// at the paper's threshold the ULBA arms would never submit `α > 0` and
/// every policy would pin the same numbers. A threshold of 1 lets the
/// overloading rank through, so Algorithm 1's α and the Eq. (11) overhead
/// term are part of what the table pins.
fn detecting(cfg: UlbaConfig) -> LbPolicy {
    LbPolicy::Ulba(UlbaConfig { z_threshold: 1.0, ..cfg })
}

fn erosion_cases() -> Vec<(String, ErosionConfig)> {
    // `Display` does not show the detection statistic: the label names it.
    let robust = UlbaConfig { stat: DetectionStat::RobustZScore, ..UlbaConfig::fixed(0.4) };
    let policies = [
        (LbPolicy::Standard, ""),
        (detecting(UlbaConfig::fixed(0.4)), ""),
        (detecting(robust), " RobustZScore"),
    ];
    let triggers =
        [TriggerKind::Zhai, TriggerKind::Periodic(20), TriggerKind::Menon { max_interval: 25 }];
    let wires = [GossipWire::Full, GossipWire::Delta { full_every: 3 }];
    let mut cases = Vec::new();
    for ranks in [4, 7] {
        for (policy, stat) in policies {
            for trigger in triggers {
                for wire in wires {
                    for anticipatory in [false, true] {
                        let mut cfg = ErosionConfig::tiny(ranks, 1);
                        cfg.policy = policy;
                        cfg.trigger = trigger;
                        cfg.gossip_wire = wire;
                        cfg.anticipatory_partitioning = anticipatory;
                        // Cheap enough for the degradation trigger to fire
                        // within a tiny run.
                        cfg.initial_lb_cost_factor = 0.05;
                        let label = format!(
                            "P={ranks} {policy}{stat} {trigger:?} {wire} antic={anticipatory}"
                        );
                        cases.push((label, cfg));
                    }
                }
            }
        }
    }
    cases
}

/// The same loop at the paper's geometry: 1000-row (and 250-row) columns
/// whose frontier lists hold long vertical runs, a strong disc eroding
/// through its neighbours' halos, and migrations that join columns across
/// whole discs — none of which a 64 × 64 stripe reaches.
fn erosion_at_scale_cases() -> Vec<(String, ErosionConfig)> {
    let presets = [
        ("paper(4, 1)", ErosionConfig::paper(4, 1), 80),
        ("scaled(8, 2)", ErosionConfig::scaled(8, 2), 120),
    ];
    let mut cases = Vec::new();
    for (name, preset, iterations) in presets {
        for policy in [LbPolicy::Standard, detecting(UlbaConfig::fixed(0.4))] {
            let mut cfg = preset.clone();
            cfg.policy = policy;
            cfg.iterations = iterations;
            cfg.initial_lb_cost_factor = 0.05;
            cases.push((format!("{name} {policy} x{iterations}"), cfg));
        }
    }
    cases
}

fn scenario_cases() -> Vec<(String, ScenarioConfig)> {
    let policies = [LbPolicy::Standard, detecting(UlbaConfig::fixed(0.4))];
    let mut cases = Vec::new();
    for kind in ScenarioKind::ALL {
        for ranks in [4, 6] {
            for policy in policies {
                for wire in [GossipWire::Full, GossipWire::delta()] {
                    for trigger in
                        [TriggerKind::Zhai, TriggerKind::Periodic(8), TriggerKind::Periodic(12)]
                    {
                        let mut cfg = ScenarioConfig::tiny(kind, ranks);
                        cfg.policy = policy;
                        cfg.gossip_wire = wire;
                        cfg.trigger = trigger;
                        cfg.initial_lb_cost_factor = 0.05;
                        let label = format!("{kind} P={ranks} {policy} {wire} {trigger:?}");
                        cases.push((label, cfg));
                    }
                }
            }
        }
    }
    cases
}

/// One measured row, owned (the committed ones are `'static`).
type Measured = (u64, Vec<u64>, u64, (u64, u64));

fn measure_erosion(cases: Vec<(String, ErosionConfig)>) -> Vec<(String, Measured)> {
    let (labels, cfgs): (Vec<_>, Vec<_>) = cases.into_iter().unzip();
    let results = run_erosion_batch(&cfgs);
    labels
        .into_iter()
        .zip(results)
        .map(|(label, r)| {
            let extras = (r.final_total_weight, r.total_eroded);
            (label, (r.makespan.to_bits(), r.lb_iterations, r.db_entries_total, extras))
        })
        .collect()
}

fn measure_scenarios() -> Vec<(String, Measured)> {
    let (labels, cfgs): (Vec<_>, Vec<_>) = scenario_cases().into_iter().unzip();
    let results = run_scenario_batch(&cfgs);
    labels
        .into_iter()
        .zip(results)
        .map(|(label, r)| {
            let extras = (r.total_work_units, r.traffic_checksum);
            (label, (r.makespan.to_bits(), r.lb_iterations, r.db_entries_total, extras))
        })
        .collect()
}

fn check(name: &str, measured: Vec<(String, Measured)>, golden: &[Row]) {
    assert_eq!(measured.len(), golden.len(), "{name}: the case grid and the table disagree");
    for (i, ((label, got), want)) in measured.iter().zip(golden).enumerate() {
        let want: Measured = (want.0, want.1.to_vec(), want.2, want.3);
        assert_eq!(
            *got,
            want,
            "{name} row {i} [{label}]: makespan {} vs golden {}",
            f64::from_bits(got.0),
            f64::from_bits(want.0)
        );
    }
}

#[test]
fn erosion_runs_match_the_golden_table() {
    check("erosion", measure_erosion(erosion_cases()), EROSION_GOLDEN);
}

#[test]
fn erosion_runs_at_scale_match_the_golden_table() {
    check("erosion at scale", measure_erosion(erosion_at_scale_cases()), EROSION_AT_SCALE_GOLDEN);
}

#[test]
fn scenario_runs_match_the_golden_table() {
    check("scenario", measure_scenarios(), SCENARIO_GOLDEN);
}

/// Which cells erode depends only on the seed, the iteration and the cell,
/// so at one P every policy, trigger, wire and anticipation variant erodes
/// the same cells and ends with the same total weight.
#[test]
fn every_erosion_variant_erodes_the_same_cells() {
    for ((label, cfg), row) in erosion_cases().iter().zip(EROSION_GOLDEN) {
        let want = match cfg.ranks {
            4 => (18540, 1155),
            7 => (30772, 1603),
            p => panic!("no expected extras for P={p}"),
        };
        assert_eq!(row.3, want, "{label}");
    }
}

/// The table must pin what it claims to: a regenerated grid in which most
/// rows never reach the LB step would let the loop's second half drift.
#[test]
fn golden_table_exercises_the_lb_step() {
    for (name, table) in [
        ("erosion", EROSION_GOLDEN),
        ("erosion at scale", EROSION_AT_SCALE_GOLDEN),
        ("scenario", SCENARIO_GOLDEN),
    ] {
        let with_lb = table.iter().filter(|row| !row.1.is_empty()).count();
        assert!(with_lb * 2 > table.len(), "{name}: only {with_lb} rows balance at all");
    }
}

#[test]
#[ignore = "prints the golden table for pasting; not a check"]
fn print_golden_table() {
    for (name, rows) in [
        ("EROSION_GOLDEN", measure_erosion(erosion_cases())),
        ("EROSION_AT_SCALE_GOLDEN", measure_erosion(erosion_at_scale_cases())),
        ("SCENARIO_GOLDEN", measure_scenarios()),
    ] {
        println!("#[rustfmt::skip]\nconst {name}: &[Row] = &[");
        for (label, (bits, lb, db, extras)) in rows {
            println!("    ({bits:#018x}, &{lb:?}, {db}, {extras:?}), // {label}");
        }
        println!("];\n");
    }
}

#[rustfmt::skip]
const EROSION_GOLDEN: &[Row] = &[
    (0x3fd2dce2f130c232, &[3, 12, 29], 16, (18540, 1155)), // P=4 standard Zhai full antic=false
    (0x3fd359105eea3d95, &[3, 17, 49], 16, (18540, 1155)), // P=4 standard Zhai full antic=true
    (0x3fd2dce2f130c232, &[3, 12, 29], 16, (18540, 1155)), // P=4 standard Zhai delta:3 antic=false
    (0x3fd359105eea3d95, &[3, 17, 49], 16, (18540, 1155)), // P=4 standard Zhai delta:3 antic=true
    (0x3fd2da66f8b96302, &[19, 39], 16, (18540, 1155)), // P=4 standard Periodic(20) full antic=false
    (0x3fd393c64cd439bc, &[19, 39], 16, (18540, 1155)), // P=4 standard Periodic(20) full antic=true
    (0x3fd2da66f8b96302, &[19, 39], 16, (18540, 1155)), // P=4 standard Periodic(20) delta:3 antic=false
    (0x3fd393c64cd439bc, &[19, 39], 16, (18540, 1155)), // P=4 standard Periodic(20) delta:3 antic=true
    (0x3fd323a62420d986, &[1, 9, 34], 16, (18540, 1155)), // P=4 standard Menon { max_interval: 25 } full antic=false
    (0x3fd2e92512cc19f9, &[1, 10, 35], 16, (18540, 1155)), // P=4 standard Menon { max_interval: 25 } full antic=true
    (0x3fd323a62420d986, &[1, 9, 34], 16, (18540, 1155)), // P=4 standard Menon { max_interval: 25 } delta:3 antic=false
    (0x3fd2e92512cc19f9, &[1, 10, 35], 16, (18540, 1155)), // P=4 standard Menon { max_interval: 25 } delta:3 antic=true
    (0x3fd23ffe66b08abc, &[4, 32], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Zhai full antic=false
    (0x3fd331f732a1c9dc, &[4, 33], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Zhai full antic=true
    (0x3fd23ffe66b08abc, &[4, 32], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Zhai delta:3 antic=false
    (0x3fd331f732a1c9dc, &[4, 33], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Zhai delta:3 antic=true
    (0x3fd3932cfd6af890, &[19, 39], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Periodic(20) full antic=false
    (0x3fd514d31ea91608, &[19, 39], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Periodic(20) full antic=true
    (0x3fd3932cfd6af890, &[19, 39], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Periodic(20) delta:3 antic=false
    (0x3fd514d31ea91608, &[19, 39], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Periodic(20) delta:3 antic=true
    (0x3fd328a2ddfc4f3a, &[1, 9, 34], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Menon { max_interval: 25 } full antic=false
    (0x3fd3be831aed9033, &[1, 10, 35], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Menon { max_interval: 25 } full antic=true
    (0x3fd328a2ddfc4f3a, &[1, 9, 34], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Menon { max_interval: 25 } delta:3 antic=false
    (0x3fd3be831aed9033, &[1, 10, 35], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 Menon { max_interval: 25 } delta:3 antic=true
    (0x3fd33834d8577814, &[4, 33], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Zhai full antic=false
    (0x3fd439ed9f70c237, &[4, 33], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Zhai full antic=true
    (0x3fd33834d8577814, &[4, 33], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Zhai delta:3 antic=false
    (0x3fd439ed9f70c237, &[4, 33], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Zhai delta:3 antic=true
    (0x3fd3932cfd6af890, &[19, 39], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Periodic(20) full antic=false
    (0x3fd44d03d8287fda, &[19, 39], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Periodic(20) full antic=true
    (0x3fd3932cfd6af890, &[19, 39], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Periodic(20) delta:3 antic=false
    (0x3fd44d03d8287fda, &[19, 39], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Periodic(20) delta:3 antic=true
    (0x3fd328a2ddfc4f3a, &[1, 9, 34], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Menon { max_interval: 25 } full antic=false
    (0x3fd3be831aed9033, &[1, 10, 35], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Menon { max_interval: 25 } full antic=true
    (0x3fd328a2ddfc4f3a, &[1, 9, 34], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Menon { max_interval: 25 } delta:3 antic=false
    (0x3fd3be831aed9033, &[1, 10, 35], 16, (18540, 1155)), // P=4 ulba-fixed:0.4 RobustZScore Menon { max_interval: 25 } delta:3 antic=true
    (0x3fd230d6cd6ec2b4, &[3, 13, 34], 49, (30772, 1603)), // P=7 standard Zhai full antic=false
    (0x3fd248f7900de26b, &[3, 17, 49], 49, (30772, 1603)), // P=7 standard Zhai full antic=true
    (0x3fd230d6cd6ec2b4, &[3, 13, 34], 49, (30772, 1603)), // P=7 standard Zhai delta:3 antic=false
    (0x3fd248f7900de26b, &[3, 17, 49], 49, (30772, 1603)), // P=7 standard Zhai delta:3 antic=true
    (0x3fd24f7ffa492258, &[19, 39], 49, (30772, 1603)), // P=7 standard Periodic(20) full antic=false
    (0x3fd2b553fd60c6f1, &[19, 39], 49, (30772, 1603)), // P=7 standard Periodic(20) full antic=true
    (0x3fd24f7ffa492258, &[19, 39], 49, (30772, 1603)), // P=7 standard Periodic(20) delta:3 antic=false
    (0x3fd2b553fd60c6f1, &[19, 39], 49, (30772, 1603)), // P=7 standard Periodic(20) delta:3 antic=true
    (0x3fd29c1a1721677f, &[1, 9, 34], 49, (30772, 1603)), // P=7 standard Menon { max_interval: 25 } full antic=false
    (0x3fd2032183568de6, &[1, 10, 35], 49, (30772, 1603)), // P=7 standard Menon { max_interval: 25 } full antic=true
    (0x3fd29c1a1721677f, &[1, 9, 34], 49, (30772, 1603)), // P=7 standard Menon { max_interval: 25 } delta:3 antic=false
    (0x3fd2032183568de6, &[1, 10, 35], 49, (30772, 1603)), // P=7 standard Menon { max_interval: 25 } delta:3 antic=true
    (0x3fd2c773a8f970e4, &[3, 18, 48], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Zhai full antic=false
    (0x3fd37cce5e7ca000, &[3, 21, 54], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Zhai full antic=true
    (0x3fd2c773a8f970e4, &[3, 18, 48], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Zhai delta:3 antic=false
    (0x3fd37cce5e7ca000, &[3, 21, 54], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Zhai delta:3 antic=true
    (0x3fd306076fcfb57a, &[19, 39], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Periodic(20) full antic=false
    (0x3fd37f35a3649964, &[19, 39], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Periodic(20) full antic=true
    (0x3fd306076fcfb57a, &[19, 39], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Periodic(20) delta:3 antic=false
    (0x3fd37f35a3649964, &[19, 39], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Periodic(20) delta:3 antic=true
    (0x3fd3df470f8072f7, &[1, 24, 49], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Menon { max_interval: 25 } full antic=false
    (0x3fd4527b355e0e62, &[1, 24, 49], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Menon { max_interval: 25 } full antic=true
    (0x3fd3df470f8072f7, &[1, 24, 49], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Menon { max_interval: 25 } delta:3 antic=false
    (0x3fd4527b355e0e62, &[1, 24, 49], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 Menon { max_interval: 25 } delta:3 antic=true
    (0x3fd36297fcd8d089, &[4, 19, 49], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Zhai full antic=false
    (0x3fd447de63d69cbb, &[4, 23, 57], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Zhai full antic=true
    (0x3fd36297fcd8d089, &[4, 19, 49], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Zhai delta:3 antic=false
    (0x3fd447de63d69cbb, &[4, 23, 57], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Zhai delta:3 antic=true
    (0x3fd306076fcfb57a, &[19, 39], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Periodic(20) full antic=false
    (0x3fd37f35a3649964, &[19, 39], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Periodic(20) full antic=true
    (0x3fd306076fcfb57a, &[19, 39], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Periodic(20) delta:3 antic=false
    (0x3fd37f35a3649964, &[19, 39], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Periodic(20) delta:3 antic=true
    (0x3fd32040dad71fb7, &[1, 9, 34], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Menon { max_interval: 25 } full antic=false
    (0x3fd2dce611c5b9da, &[1, 10, 35], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Menon { max_interval: 25 } full antic=true
    (0x3fd32040dad71fb7, &[1, 9, 34], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Menon { max_interval: 25 } delta:3 antic=false
    (0x3fd2dce611c5b9da, &[1, 10, 35], 49, (30772, 1603)), // P=7 ulba-fixed:0.4 RobustZScore Menon { max_interval: 25 } delta:3 antic=true
];

#[rustfmt::skip]
const EROSION_AT_SCALE_GOLDEN: &[Row] = &[
    (0x402e846f42e863b0, &[6, 33, 66], 16, (3539900, 81339)), // paper(4, 1) standard x80
    (0x402e2a81e58e5db0, &[10], 16, (3539900, 81339)), // paper(4, 1) ulba-fixed:0.4 x80
    (0x4037d0daa62cb9b0, &[6, 32, 62, 95], 64, (472900, 17417)), // scaled(8, 2) standard x120
    (0x4036c4d679d78406, &[10], 64, (472900, 17417)), // scaled(8, 2) ulba-fixed:0.4 x120
];

#[rustfmt::skip]
const SCENARIO_GOLDEN: &[Row] = &[
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // slow-node P=4 standard full Zhai
    (0x3f91782260031e31, &[7, 15, 23], 16, (32768, 0)), // slow-node P=4 standard full Periodic(8)
    (0x3f9409d653c56033, &[11, 23], 16, (32768, 0)), // slow-node P=4 standard full Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // slow-node P=4 standard delta:32 Zhai
    (0x3f91782260031e31, &[7, 15, 23], 16, (32768, 0)), // slow-node P=4 standard delta:32 Periodic(8)
    (0x3f9409d653c56033, &[11, 23], 16, (32768, 0)), // slow-node P=4 standard delta:32 Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // slow-node P=4 ulba-fixed:0.4 full Zhai
    (0x3f91782260031e31, &[7, 15, 23], 16, (32768, 0)), // slow-node P=4 ulba-fixed:0.4 full Periodic(8)
    (0x3f9409d653c56033, &[11, 23], 16, (32768, 0)), // slow-node P=4 ulba-fixed:0.4 full Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // slow-node P=4 ulba-fixed:0.4 delta:32 Zhai
    (0x3f91782260031e31, &[7, 15, 23], 16, (32768, 0)), // slow-node P=4 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3f9409d653c56033, &[11, 23], 16, (32768, 0)), // slow-node P=4 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // slow-node P=6 standard full Zhai
    (0x3f96090df41e1a58, &[7, 15, 23], 36, (49152, 0)), // slow-node P=6 standard full Periodic(8)
    (0x3f9670777cdd4d09, &[11, 23], 36, (49152, 0)), // slow-node P=6 standard full Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // slow-node P=6 standard delta:32 Zhai
    (0x3f96090df41e1a58, &[7, 15, 23], 36, (49152, 0)), // slow-node P=6 standard delta:32 Periodic(8)
    (0x3f9670777cdd4d09, &[11, 23], 36, (49152, 0)), // slow-node P=6 standard delta:32 Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // slow-node P=6 ulba-fixed:0.4 full Zhai
    (0x3f96090df41e1a58, &[7, 15, 23], 36, (49152, 0)), // slow-node P=6 ulba-fixed:0.4 full Periodic(8)
    (0x3f97d4e550fb65da, &[11, 23], 36, (49152, 0)), // slow-node P=6 ulba-fixed:0.4 full Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // slow-node P=6 ulba-fixed:0.4 delta:32 Zhai
    (0x3f96090df41e1a58, &[7, 15, 23], 36, (49152, 0)), // slow-node P=6 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3f97d4e550fb65da, &[11, 23], 36, (49152, 0)), // slow-node P=6 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // scatter P=4 standard full Zhai
    (0x3f9e16d53fc929f9, &[7, 15, 23], 16, (32768, 0)), // scatter P=4 standard full Periodic(8)
    (0x3f9a55bd93f82ead, &[11, 23], 16, (32768, 0)), // scatter P=4 standard full Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // scatter P=4 standard delta:32 Zhai
    (0x3f9e16d53fc929f9, &[7, 15, 23], 16, (32768, 0)), // scatter P=4 standard delta:32 Periodic(8)
    (0x3f9a55bd93f82ead, &[11, 23], 16, (32768, 0)), // scatter P=4 standard delta:32 Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // scatter P=4 ulba-fixed:0.4 full Zhai
    (0x3f9e16d53fc929f9, &[7, 15, 23], 16, (32768, 0)), // scatter P=4 ulba-fixed:0.4 full Periodic(8)
    (0x3f9a9947b8710d53, &[11, 23], 16, (32768, 0)), // scatter P=4 ulba-fixed:0.4 full Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // scatter P=4 ulba-fixed:0.4 delta:32 Zhai
    (0x3f9e16d53fc929f9, &[7, 15, 23], 16, (32768, 0)), // scatter P=4 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3f9a9947b8710d53, &[11, 23], 16, (32768, 0)), // scatter P=4 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // scatter P=6 standard full Zhai
    (0x3fa25015a31ca899, &[7, 15, 23], 36, (49152, 0)), // scatter P=6 standard full Periodic(8)
    (0x3fa0a7c23cab200f, &[11, 23], 36, (49152, 0)), // scatter P=6 standard full Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // scatter P=6 standard delta:32 Zhai
    (0x3fa25015a31ca899, &[7, 15, 23], 36, (49152, 0)), // scatter P=6 standard delta:32 Periodic(8)
    (0x3fa0a7c23cab200f, &[11, 23], 36, (49152, 0)), // scatter P=6 standard delta:32 Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // scatter P=6 ulba-fixed:0.4 full Zhai
    (0x3fa25015a31ca899, &[7, 15, 23], 36, (49152, 0)), // scatter P=6 ulba-fixed:0.4 full Periodic(8)
    (0x3fa0bd5d74f971e0, &[11, 23], 36, (49152, 0)), // scatter P=6 ulba-fixed:0.4 full Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // scatter P=6 ulba-fixed:0.4 delta:32 Zhai
    (0x3fa25015a31ca899, &[7, 15, 23], 36, (49152, 0)), // scatter P=6 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3fa0bd5d74f971e0, &[11, 23], 36, (49152, 0)), // scatter P=6 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // drifting-hotspot P=4 standard full Zhai
    (0x3fa22efc189f1b2e, &[7, 15, 23], 16, (32768, 0)), // drifting-hotspot P=4 standard full Periodic(8)
    (0x3fa0502d381e33e1, &[11, 23], 16, (32768, 0)), // drifting-hotspot P=4 standard full Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // drifting-hotspot P=4 standard delta:32 Zhai
    (0x3fa22efc189f1b2e, &[7, 15, 23], 16, (32768, 0)), // drifting-hotspot P=4 standard delta:32 Periodic(8)
    (0x3fa0502d381e33e1, &[11, 23], 16, (32768, 0)), // drifting-hotspot P=4 standard delta:32 Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // drifting-hotspot P=4 ulba-fixed:0.4 full Zhai
    (0x3fa22efc189f1b2e, &[7, 15, 23], 16, (32768, 0)), // drifting-hotspot P=4 ulba-fixed:0.4 full Periodic(8)
    (0x3fa071f24a5aa334, &[11, 23], 16, (32768, 0)), // drifting-hotspot P=4 ulba-fixed:0.4 full Periodic(12)
    (0x3fa14a153a086b63, &[], 16, (32768, 0)), // drifting-hotspot P=4 ulba-fixed:0.4 delta:32 Zhai
    (0x3fa22efc189f1b2e, &[7, 15, 23], 16, (32768, 0)), // drifting-hotspot P=4 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3fa071f24a5aa334, &[11, 23], 16, (32768, 0)), // drifting-hotspot P=4 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // drifting-hotspot P=6 standard full Zhai
    (0x3fa3546538e81ea5, &[7, 15, 23], 36, (49152, 0)), // drifting-hotspot P=6 standard full Periodic(8)
    (0x3fa12d0a19f75c75, &[11, 23], 36, (49152, 0)), // drifting-hotspot P=6 standard full Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // drifting-hotspot P=6 standard delta:32 Zhai
    (0x3fa3546538e81ea5, &[7, 15, 23], 36, (49152, 0)), // drifting-hotspot P=6 standard delta:32 Periodic(8)
    (0x3fa12d0a19f75c75, &[11, 23], 36, (49152, 0)), // drifting-hotspot P=6 standard delta:32 Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // drifting-hotspot P=6 ulba-fixed:0.4 full Zhai
    (0x3fa3546538e81ea5, &[7, 15, 23], 36, (49152, 0)), // drifting-hotspot P=6 ulba-fixed:0.4 full Periodic(8)
    (0x3fa1da5fe0cfdedc, &[11, 23], 36, (49152, 0)), // drifting-hotspot P=6 ulba-fixed:0.4 full Periodic(12)
    (0x3fa176ad08f6c47a, &[], 36, (49152, 0)), // drifting-hotspot P=6 ulba-fixed:0.4 delta:32 Zhai
    (0x3fa3546538e81ea5, &[7, 15, 23], 36, (49152, 0)), // drifting-hotspot P=6 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3fa1da5fe0cfdedc, &[11, 23], 36, (49152, 0)), // drifting-hotspot P=6 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3f95fef0bb886496, &[], 16, (32768, 0)), // bursty P=4 standard full Zhai
    (0x3f9f24f0ef23b661, &[7, 15, 23], 16, (32768, 0)), // bursty P=4 standard full Periodic(8)
    (0x3f9be70ece6c37a7, &[11, 23], 16, (32768, 0)), // bursty P=4 standard full Periodic(12)
    (0x3f95fef0bb886496, &[], 16, (32768, 0)), // bursty P=4 standard delta:32 Zhai
    (0x3f9f24f0ef23b661, &[7, 15, 23], 16, (32768, 0)), // bursty P=4 standard delta:32 Periodic(8)
    (0x3f9be70ece6c37a7, &[11, 23], 16, (32768, 0)), // bursty P=4 standard delta:32 Periodic(12)
    (0x3f95fef0bb886496, &[], 16, (32768, 0)), // bursty P=4 ulba-fixed:0.4 full Zhai
    (0x3f9f24f0ef23b661, &[7, 15, 23], 16, (32768, 0)), // bursty P=4 ulba-fixed:0.4 full Periodic(8)
    (0x3f9be70ece6c37a7, &[11, 23], 16, (32768, 0)), // bursty P=4 ulba-fixed:0.4 full Periodic(12)
    (0x3f95fef0bb886496, &[], 16, (32768, 0)), // bursty P=4 ulba-fixed:0.4 delta:32 Zhai
    (0x3f9f24f0ef23b661, &[7, 15, 23], 16, (32768, 0)), // bursty P=4 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3f9be70ece6c37a7, &[11, 23], 16, (32768, 0)), // bursty P=4 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3f965820596516c7, &[], 36, (49152, 0)), // bursty P=6 standard full Zhai
    (0x3fa1225f4ebabb37, &[7, 15, 23], 36, (49152, 0)), // bursty P=6 standard full Periodic(8)
    (0x3f9e0499e87ff8e2, &[11, 23], 36, (49152, 0)), // bursty P=6 standard full Periodic(12)
    (0x3f965820596516c7, &[], 36, (49152, 0)), // bursty P=6 standard delta:32 Zhai
    (0x3fa1225f4ebabb37, &[7, 15, 23], 36, (49152, 0)), // bursty P=6 standard delta:32 Periodic(8)
    (0x3f9e0499e87ff8e2, &[11, 23], 36, (49152, 0)), // bursty P=6 standard delta:32 Periodic(12)
    (0x3f965820596516c7, &[], 36, (49152, 0)), // bursty P=6 ulba-fixed:0.4 full Zhai
    (0x3fa1225f4ebabb37, &[7, 15, 23], 36, (49152, 0)), // bursty P=6 ulba-fixed:0.4 full Periodic(8)
    (0x3f9e0499e87ff8e2, &[11, 23], 36, (49152, 0)), // bursty P=6 ulba-fixed:0.4 full Periodic(12)
    (0x3f965820596516c7, &[], 36, (49152, 0)), // bursty P=6 ulba-fixed:0.4 delta:32 Zhai
    (0x3fa1225f4ebabb37, &[7, 15, 23], 36, (49152, 0)), // bursty P=6 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3f9e0499e87ff8e2, &[11, 23], 36, (49152, 0)), // bursty P=6 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3fa17406a51a323a, &[], 16, (32768, 14586561247596323328)), // task-graph P=4 standard full Zhai
    (0x3f9e65f8ee98ee7d, &[7, 15, 23], 16, (32768, 14586561247596323328)), // task-graph P=4 standard full Periodic(8)
    (0x3f9aa4e142c7f329, &[11, 23], 16, (32768, 14586561247596323328)), // task-graph P=4 standard full Periodic(12)
    (0x3fa17406a51a323a, &[], 16, (32768, 14586561247596323328)), // task-graph P=4 standard delta:32 Zhai
    (0x3f9e65f8ee98ee7d, &[7, 15, 23], 16, (32768, 14586561247596323328)), // task-graph P=4 standard delta:32 Periodic(8)
    (0x3f9aa4e142c7f329, &[11, 23], 16, (32768, 14586561247596323328)), // task-graph P=4 standard delta:32 Periodic(12)
    (0x3fa17406a51a323a, &[], 16, (32768, 14586561247596323328)), // task-graph P=4 ulba-fixed:0.4 full Zhai
    (0x3f9e65f8ee98ee7d, &[7, 15, 23], 16, (32768, 14586561247596323328)), // task-graph P=4 ulba-fixed:0.4 full Periodic(8)
    (0x3f9b7029a95ec325, &[11, 23], 16, (32768, 14586561247596323328)), // task-graph P=4 ulba-fixed:0.4 full Periodic(12)
    (0x3fa17406a51a323a, &[], 16, (32768, 14586561247596323328)), // task-graph P=4 ulba-fixed:0.4 delta:32 Zhai
    (0x3f9e65f8ee98ee7d, &[7, 15, 23], 16, (32768, 14586561247596323328)), // task-graph P=4 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3f9b7029a95ec325, &[11, 23], 16, (32768, 14586561247596323328)), // task-graph P=4 ulba-fixed:0.4 delta:32 Periodic(12)
    (0x3fa1a09e74088b51, &[], 36, (49152, 12656529208167609088)), // task-graph P=6 standard full Zhai
    (0x3fa1fbdb9ce313fd, &[7, 15, 23], 36, (49152, 12656529208167609088)), // task-graph P=6 standard full Periodic(8)
    (0x3fa07d378ac71e08, &[11, 23], 36, (49152, 12656529208167609088)), // task-graph P=6 standard full Periodic(12)
    (0x3fa1a09e74088b51, &[], 36, (49152, 12656529208167609088)), // task-graph P=6 standard delta:32 Zhai
    (0x3fa1fbdb9ce313fd, &[7, 15, 23], 36, (49152, 12656529208167609088)), // task-graph P=6 standard delta:32 Periodic(8)
    (0x3fa07d378ac71e08, &[11, 23], 36, (49152, 12656529208167609088)), // task-graph P=6 standard delta:32 Periodic(12)
    (0x3fa1a09e74088b51, &[], 36, (49152, 12656529208167609088)), // task-graph P=6 ulba-fixed:0.4 full Zhai
    (0x3fa1fbdb9ce313fd, &[7, 15, 23], 36, (49152, 12656529208167609088)), // task-graph P=6 ulba-fixed:0.4 full Periodic(8)
    (0x3fa0afc3b0212320, &[11, 23], 36, (49152, 12656529208167609088)), // task-graph P=6 ulba-fixed:0.4 full Periodic(12)
    (0x3fa1a09e74088b51, &[], 36, (49152, 12656529208167609088)), // task-graph P=6 ulba-fixed:0.4 delta:32 Zhai
    (0x3fa1fbdb9ce313fd, &[7, 15, 23], 36, (49152, 12656529208167609088)), // task-graph P=6 ulba-fixed:0.4 delta:32 Periodic(8)
    (0x3fa0afc3b0212320, &[11, 23], 36, (49152, 12656529208167609088)), // task-graph P=6 ulba-fixed:0.4 delta:32 Periodic(12)
];
