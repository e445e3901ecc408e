//! Every LB policy faces the same erosion: a cell's roll depends only on
//! the seed, the iteration and the cell, and the exposure lists at the
//! joins a migration creates are refreshed, so which rank owns a column —
//! and so the policy, and whether it partitions on predicted weights —
//! cannot change which cells erode.

use ulba_core::policy::{LbPolicy, UlbaConfig};
use ulba_erosion::{run_erosion_batch, ErosionConfig, TriggerKind};

#[test]
fn every_policy_erodes_the_same_cells() {
    // A z-threshold of 1 lets the one overloading rank through at P ≤ 7,
    // so the ULBA arm really underloads it and the partitions differ.
    let ulba = LbPolicy::Ulba(UlbaConfig { z_threshold: 1.0, ..UlbaConfig::fixed(0.4) });
    let triggers = [
        TriggerKind::Periodic(20),
        TriggerKind::Periodic(7),
        TriggerKind::Menon { max_interval: 25 },
    ];
    let mut groups = Vec::new();
    let mut cfgs = Vec::new();
    for seed in 0..40 {
        for ranks in [4, 7] {
            for trigger in triggers {
                groups.push(format!("seed {seed} P={ranks} {trigger:?}"));
                for policy in [LbPolicy::Standard, ulba] {
                    for anticipatory in [false, true] {
                        let mut cfg = ErosionConfig::tiny(ranks, 1);
                        cfg.seed = seed;
                        cfg.trigger = trigger;
                        cfg.policy = policy;
                        cfg.anticipatory_partitioning = anticipatory;
                        cfgs.push(cfg);
                    }
                }
            }
        }
    }
    let results = run_erosion_batch(&cfgs);
    let differing: Vec<String> = groups
        .iter()
        .zip(results.chunks(4))
        .filter(|(_, variants)| variants.iter().any(|r| r.total_eroded != variants[0].total_eroded))
        .map(|(group, variants)| {
            let eroded: Vec<u64> = variants.iter().map(|r| r.total_eroded).collect();
            format!("{group}: {eroded:?}")
        })
        .collect();
    assert!(
        differing.is_empty(),
        "{} groups erode differently:\n{}",
        differing.len(),
        differing.join("\n")
    );
    assert!(
        results.iter().any(|r| !r.lb_iterations.is_empty()),
        "the runs must balance for ownership to move"
    );
}
