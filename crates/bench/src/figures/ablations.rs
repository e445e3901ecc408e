//! Ablation studies beyond the paper's figures — experiments the paper
//! does not run: trigger choice, α rule (the paper's fixed α with its
//! z-score or a robust overloader test), anticipatory partitioning, and
//! gossip dissemination mode.

use super::{gain_pct, sweep, Arm};
use crate::output::{print_table, StudyOutput};
use ulba_core::gossip::{simulate_rounds_to_completion, GossipMode};
use ulba_core::outlier::DetectionStat;
use ulba_core::policy::{LbPolicy, UlbaConfig};
use ulba_erosion::{ErosionConfig, TriggerKind};

/// Run ablation `study`: per PE count one sweep cell of `arms` on the
/// scaled one-rock geometry, each arm's value applied to its config by
/// `apply`. Prints one table row per arm median, with its gain over the
/// first arm of its cell.
fn ablation<T: Copy>(
    study: &str,
    pe_counts: &[usize],
    arms: &[(&str, T)],
    apply: impl Fn(&mut ErosionConfig, T),
    seeds: &[u64],
    out: &StudyOutput,
) -> Result<(), String> {
    let cells: Vec<Vec<Arm>> = pe_counts
        .iter()
        .map(|&ranks| {
            let arm = |&(label, value): &(&str, T)| {
                let mut cfg = ErosionConfig::scaled(ranks, 1);
                apply(&mut cfg, value);
                (label.to_string(), cfg)
            };
            arms.iter().map(arm).collect()
        })
        .collect();
    let medians = sweep(study, &cells, seeds, out)?;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(&medians)
        .flat_map(|(cell, medians)| {
            let baseline = medians[0].makespan;
            cell.iter().zip(medians).map(move |((label, cfg), res)| {
                vec![
                    cfg.ranks.to_string(),
                    label.clone(),
                    format!("{:.2}", res.makespan),
                    res.lb_calls.to_string(),
                    format!("{:.1}%", res.mean_utilization * 100.0),
                    format!("{:+.1}%", gain_pct(baseline, res.makespan)),
                ]
            })
        })
        .collect();
    let header = ["PEs", "arm", "time [s]", "LB calls", "mean util", "gain vs first arm"];
    print_table(study, &header, &rows);
    Ok(())
}

/// E-A1 — trigger choice on the erosion app (fixed policy per arm).
pub fn trigger_ablation(ranks: usize, seeds: &[u64], out: &StudyOutput) -> Result<(), String> {
    println!("Ablation E-A1 — LB trigger choice ({ranks} PEs, 1 strong rock)");
    let (standard, ulba) = (LbPolicy::Standard, LbPolicy::ulba_fixed(0.4));
    let menon = TriggerKind::Menon { max_interval: 200 };
    let arms = [
        ("standard+zhai", (standard, TriggerKind::Zhai)),
        ("standard+menon", (standard, menon)),
        ("standard+periodic10", (standard, TriggerKind::Periodic(10))),
        ("standard+periodic50", (standard, TriggerKind::Periodic(50))),
        ("standard+never", (standard, TriggerKind::Never)),
        ("ulba+zhai", (ulba, TriggerKind::Zhai)),
        ("ulba+menon", (ulba, menon)),
    ];
    let apply = |cfg: &mut ErosionConfig, (policy, trigger)| {
        cfg.policy = policy;
        cfg.trigger = trigger;
    };
    ablation("ablation_trigger", &[ranks], &arms, apply, seeds, out)
}

/// E-A2 — α rule: the standard method vs the paper's fixed α = 0.4 with
/// the z-score (mean/σ) overloader test vs the same α with the robust
/// median/MAD test.
pub fn alpha_rule_ablation(
    pe_counts: &[usize],
    seeds: &[u64],
    out: &StudyOutput,
) -> Result<(), String> {
    println!("Ablation E-A2 — α rule (1 strong rock)");
    let robust = UlbaConfig { stat: DetectionStat::RobustZScore, ..UlbaConfig::fixed(0.4) };
    let arms = [
        ("standard", LbPolicy::Standard),
        ("fixed α=0.4 (paper)", LbPolicy::ulba_fixed(0.4)),
        ("fixed α=0.4, robust stat", LbPolicy::Ulba(robust)),
    ];
    let apply = |cfg: &mut ErosionConfig, policy| cfg.policy = policy;
    ablation("ablation_alpha", pe_counts, &arms, apply, seeds, out)
}

/// E-A4 — anticipatory (predicted-weight) partitioning: our spatial
/// extension of ULBA's anticipation. Splitting on weights extrapolated over
/// the expected LB interval balances the *future* load — the standard
/// method with prediction behaves like ULBA with a per-region α derived
/// automatically from the measured growth.
pub fn anticipation_ablation(
    pe_counts: &[usize],
    seeds: &[u64],
    out: &StudyOutput,
) -> Result<(), String> {
    println!("Ablation E-A4 — anticipatory partitioning (1 strong rock)");
    let arms = [
        ("standard", (LbPolicy::Standard, false)),
        ("standard+prediction", (LbPolicy::Standard, true)),
        ("ulba α=0.4 (paper)", (LbPolicy::ulba_fixed(0.4), false)),
        ("ulba α=0.4+prediction", (LbPolicy::ulba_fixed(0.4), true)),
    ];
    let apply = |cfg: &mut ErosionConfig, (policy, anticipate)| {
        cfg.policy = policy;
        cfg.anticipatory_partitioning = anticipate;
    };
    ablation("ablation_anticipation", pe_counts, &arms, apply, seeds, out)
}

/// E-A3 — gossip mode under ULBA (α = 0.4): end-to-end effect on the
/// erosion app, then each mode's rounds to a full database in the
/// round-based simulation.
pub fn gossip_ablation(ranks: usize, seeds: &[u64], out: &StudyOutput) -> Result<(), String> {
    println!("Ablation E-A3 — gossip dissemination mode ({ranks} PEs, 1 strong rock)");
    let arms = [
        ("ring", GossipMode::Ring),
        ("push f=1", GossipMode::RandomPush { fanout: 1 }),
        ("push f=2 (default)", GossipMode::RandomPush { fanout: 2 }),
        ("push f=4", GossipMode::RandomPush { fanout: 4 }),
        ("hybrid f=1", GossipMode::Hybrid { fanout: 1 }),
    ];
    let apply = |cfg: &mut ErosionConfig, mode| cfg.gossip = mode;
    ablation("ablation_gossip", &[ranks], &arms, apply, seeds, out)?;
    let rows: Vec<Vec<String>> = arms
        .iter()
        .map(|&(label, mode)| {
            let rounds = simulate_rounds_to_completion(mode, ranks, seeds[0], 4 * ranks)
                .map_or_else(|| format!(">{}", 4 * ranks), |r| r.to_string());
            vec![label.to_string(), rounds]
        })
        .collect();
    print_table("gossip rounds to a full database", &["mode", "rounds"], &rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{PerfRow, Report};

    #[test]
    fn ablations_run_small() {
        let dir = std::env::temp_dir().join("ulba-abl-test");
        // Tiny PE counts: plumbing checks only.
        type Ablation = fn(&[usize], &StudyOutput) -> Result<(), String>;
        let studies: [(&str, Ablation, &[usize], usize); 4] = [
            ("ablation_trigger", |pes, out| trigger_ablation(pes[0], &[11], out), &[4], 7),
            ("ablation_alpha", |pes, out| alpha_rule_ablation(pes, &[11], out), &[4], 3),
            (
                "ablation_anticipation",
                |pes, out| anticipation_ablation(pes, &[11], out),
                &[4, 8],
                4,
            ),
            ("ablation_gossip", |pes, out| gossip_ablation(pes[0], &[11], out), &[4], 5),
        ];
        for (study, run, pes, arms) in studies {
            let json = dir.join(format!("BENCH_{study}.json"));
            let out = StudyOutput { dir: dir.clone(), smoke: true, json: Some(json.clone()) };
            run(pes, &out).unwrap();
            let report = Report::read(&json).unwrap();
            assert_eq!(report.rows.len(), arms * pes.len(), "{study}");
            assert!(report.rows.iter().all(|r| r.strong_rocks == Some(1)), "{study}");
            let csv = std::fs::read_to_string(dir.join(format!("{study}.csv"))).unwrap();
            assert_eq!(csv.lines().next(), Some(PerfRow::csv_header().join(",").as_str()));
            assert_eq!(csv.lines().count(), 1 + report.rows.len(), "{study}");
        }
    }
}
