//! Ablation studies beyond the paper's figures — experiments the paper
//! does not run: trigger choice, α rule (including the paper's announced
//! future work, dynamic α), anticipatory partitioning, and gossip
//! dissemination mode.

use crate::output::{print_table, write_csv, StudyOutput};
use crate::report::{perf_row, PerfRow};
use std::time::Instant;
use ulba_core::gossip::{simulate_rounds_to_completion, GossipMode};
use ulba_core::outlier::DetectionStat;
use ulba_core::policy::{LbPolicy, UlbaConfig};
use ulba_erosion::{run_erosion_batch, ErosionConfig, ExperimentResult, TriggerKind};

/// Submit a whole ablation's arms to the shared job server as one batch
/// and return the results in arm order, plus the sweep's wall time and
/// the schema-3 rows (policy = arm label, no per-row wall).
fn run_arms(arms: &[(String, usize, ErosionConfig)]) -> (Vec<ExperimentResult>, f64, Vec<PerfRow>) {
    let cfgs: Vec<ErosionConfig> = arms.iter().map(|(_, _, cfg)| cfg.clone()).collect();
    let started = Instant::now();
    let results = run_erosion_batch(&cfgs);
    let sweep_wall = started.elapsed().as_secs_f64();
    let rows = arms
        .iter()
        .zip(&results)
        .map(|((label, ranks, cfg), res)| perf_row(label, *ranks, cfg.gossip_wire, res, None))
        .collect();
    (results, sweep_wall, rows)
}

/// E-A1 — trigger choice on the erosion app (fixed policy per arm); all
/// arms run concurrently on the shared job server.
pub fn trigger_ablation(ranks: usize, seed: u64, out: &StudyOutput) {
    println!("Ablation E-A1 — LB trigger choice ({ranks} PEs, 1 strong rock)");
    let arms: Vec<(&str, LbPolicy, TriggerKind)> = vec![
        ("standard+zhai", LbPolicy::Standard, TriggerKind::Zhai),
        ("standard+menon", LbPolicy::Standard, TriggerKind::Menon { max_interval: 200 }),
        ("standard+periodic10", LbPolicy::Standard, TriggerKind::Periodic(10)),
        ("standard+periodic50", LbPolicy::Standard, TriggerKind::Periodic(50)),
        ("standard+never", LbPolicy::Standard, TriggerKind::Never),
        ("ulba+zhai", LbPolicy::ulba_fixed(0.4), TriggerKind::Zhai),
        ("ulba+menon", LbPolicy::ulba_fixed(0.4), TriggerKind::Menon { max_interval: 200 }),
    ];
    let specs: Vec<(String, usize, ErosionConfig)> = arms
        .into_iter()
        .map(|(name, policy, trigger)| {
            let mut cfg = ErosionConfig::scaled(ranks, 1);
            cfg.policy = policy;
            cfg.trigger = trigger;
            cfg.seed = seed;
            (name.to_string(), ranks, cfg)
        })
        .collect();
    let (results, sweep_wall, perf_rows) = run_arms(&specs);
    let rows: Vec<Vec<String>> = specs
        .iter()
        .zip(&results)
        .map(|((name, ..), res)| {
            vec![
                name.clone(),
                format!("{:.2}", res.makespan),
                res.lb_calls.to_string(),
                format!("{:.1}%", res.mean_utilization * 100.0),
            ]
        })
        .collect();
    print_table("trigger ablation", &["configuration", "time [s]", "LB calls", "mean util"], &rows);
    let header = ["configuration", "time_s", "lb_calls", "mean_util"];
    write_csv(&out.dir, "ablation_trigger", &header, &rows);
    out.write_batch_report("ablation_trigger", sweep_wall, perf_rows);
}

/// E-A2 — α rule: the paper's fixed α vs the z-score-scaled dynamic α
/// (announced as future work in §V) vs robust outlier detection; the
/// whole (P × rule) sweep runs concurrently on the shared job server.
pub fn alpha_rule_ablation(pe_counts: &[usize], seed: u64, out: &StudyOutput) {
    println!("Ablation E-A2 — α rule (1 strong rock)");
    let mut robust = UlbaConfig::fixed(0.4);
    robust.stat = DetectionStat::RobustZScore;
    let mut robust_scaled = UlbaConfig::z_scaled(0.8);
    robust_scaled.stat = DetectionStat::RobustZScore;
    let arms: Vec<(&str, LbPolicy)> = vec![
        ("standard", LbPolicy::Standard),
        ("fixed α=0.4 (paper)", LbPolicy::ulba_fixed(0.4)),
        ("fixed α=0.4, robust stat", LbPolicy::Ulba(robust)),
        ("z-scaled α≤0.8", LbPolicy::Ulba(UlbaConfig::z_scaled(0.8))),
        ("z-scaled α≤0.8, robust stat", LbPolicy::Ulba(robust_scaled)),
    ];
    let specs: Vec<(String, usize, ErosionConfig)> = pe_counts
        .iter()
        .flat_map(|&ranks| {
            arms.iter().map(move |(name, policy)| {
                let mut cfg = ErosionConfig::scaled(ranks, 1);
                cfg.policy = *policy;
                cfg.seed = seed;
                (name.to_string(), ranks, cfg)
            })
        })
        .collect();
    let (results, sweep_wall, perf_rows) = run_arms(&specs);
    let mut rows = Vec::new();
    for (chunk, spec_chunk) in results.chunks(arms.len()).zip(specs.chunks(arms.len())) {
        // The first arm of each P group is the standard baseline.
        let std_time = chunk[0].makespan;
        for ((name, ranks, _), res) in spec_chunk.iter().zip(chunk) {
            let gain = if res.makespan == std_time {
                0.0
            } else {
                (std_time - res.makespan) / std_time * 100.0
            };
            rows.push(vec![
                ranks.to_string(),
                name.clone(),
                format!("{:.2}", res.makespan),
                res.lb_calls.to_string(),
                format!("{gain:+.1}%"),
            ]);
        }
    }
    print_table(
        "α-rule ablation",
        &["PEs", "rule", "time [s]", "LB calls", "gain vs standard"],
        &rows,
    );
    let header = ["pes", "rule", "time_s", "lb_calls", "gain_vs_standard_pct"];
    write_csv(&out.dir, "ablation_alpha", &header, &rows);
    out.write_batch_report("ablation_alpha", sweep_wall, perf_rows);
}

/// E-A4 — anticipatory (predicted-weight) partitioning: our spatial
/// extension of ULBA's anticipation. Splitting on weights extrapolated over
/// the expected LB interval balances the *future* load — the standard
/// method with prediction behaves like ULBA with a per-region α derived
/// automatically from the measured growth.
pub fn anticipation_ablation(pe_counts: &[usize], seed: u64, out: &StudyOutput) {
    println!("Ablation E-A4 — anticipatory partitioning (1 strong rock)");
    let arms: Vec<(&str, LbPolicy, bool)> = vec![
        ("standard", LbPolicy::Standard, false),
        ("standard+prediction", LbPolicy::Standard, true),
        ("ulba α=0.4 (paper)", LbPolicy::ulba_fixed(0.4), false),
        ("ulba α=0.4+prediction", LbPolicy::ulba_fixed(0.4), true),
    ];
    let specs: Vec<(String, usize, ErosionConfig)> = pe_counts
        .iter()
        .flat_map(|&ranks| {
            arms.iter().map(move |(name, policy, anticipate)| {
                let mut cfg = ErosionConfig::scaled(ranks, 1);
                cfg.policy = *policy;
                cfg.anticipatory_partitioning = *anticipate;
                cfg.seed = seed;
                (name.to_string(), ranks, cfg)
            })
        })
        .collect();
    let (results, sweep_wall, perf_rows) = run_arms(&specs);
    let mut rows = Vec::new();
    for (chunk, spec_chunk) in results.chunks(arms.len()).zip(specs.chunks(arms.len())) {
        // The first arm of each P group is the standard baseline.
        let std_time = chunk[0].makespan;
        for ((name, ranks, _), res) in spec_chunk.iter().zip(chunk) {
            let gain = if res.makespan == std_time {
                0.0
            } else {
                (std_time - res.makespan) / std_time * 100.0
            };
            rows.push(vec![
                ranks.to_string(),
                name.clone(),
                format!("{:.2}", res.makespan),
                res.lb_calls.to_string(),
                format!("{:.1}%", res.mean_utilization * 100.0),
                format!("{gain:+.1}%"),
            ]);
        }
    }
    print_table(
        "anticipatory-partitioning ablation",
        &["PEs", "configuration", "time [s]", "LB calls", "mean util", "gain vs standard"],
        &rows,
    );
    let header =
        ["pes", "configuration", "time_s", "lb_calls", "mean_util", "gain_vs_standard_pct"];
    write_csv(&out.dir, "ablation_anticipation", &header, &rows);
    out.write_batch_report("ablation_anticipation", sweep_wall, perf_rows);
}

/// E-A3 — gossip mode: convergence rounds (round-based simulation) and
/// end-to-end effect on the erosion app; the erosion arms run concurrently
/// on the shared job server.
pub fn gossip_ablation(ranks: usize, seed: u64, out: &StudyOutput) {
    println!("Ablation E-A3 — gossip dissemination mode ({ranks} PEs, 1 strong rock)");
    let modes: Vec<(&str, GossipMode)> = vec![
        ("ring", GossipMode::Ring),
        ("push f=1", GossipMode::RandomPush { fanout: 1 }),
        ("push f=2 (default)", GossipMode::RandomPush { fanout: 2 }),
        ("push f=4", GossipMode::RandomPush { fanout: 4 }),
        ("hybrid f=1", GossipMode::Hybrid { fanout: 1 }),
    ];
    let specs: Vec<(String, usize, ErosionConfig)> = modes
        .iter()
        .map(|&(name, mode)| {
            let mut cfg = ErosionConfig::scaled(ranks, 1);
            cfg.gossip = mode;
            cfg.seed = seed;
            (name.to_string(), ranks, cfg)
        })
        .collect();
    let (results, sweep_wall, perf_rows) = run_arms(&specs);
    let mut rows = Vec::new();
    for (&(name, mode), res) in modes.iter().zip(&results) {
        let rounds = simulate_rounds_to_completion(mode, ranks, seed, 4 * ranks)
            .map(|r| r.to_string())
            .unwrap_or_else(|| format!(">{}", 4 * ranks));
        rows.push(vec![
            name.to_string(),
            rounds,
            format!("{:.2}", res.makespan),
            res.lb_calls.to_string(),
        ]);
    }
    print_table(
        "gossip ablation (ULBA α = 0.4)",
        &["mode", "rounds to full DB", "time [s]", "LB calls"],
        &rows,
    );
    let header = ["mode", "rounds_to_full_db", "time_s", "lb_calls"];
    write_csv(&out.dir, "ablation_gossip", &header, &rows);
    out.write_batch_report("ablation_gossip", sweep_wall, perf_rows);
}

#[cfg(test)]
mod tests {
    #[test]
    fn ablations_run_small() {
        let dir = std::env::temp_dir().join("ulba-abl-test");
        let out = crate::output::StudyOutput { dir, smoke: true, json: None };
        // Tiny PE counts: plumbing checks only.
        super::trigger_ablation(4, 11, &out);
        super::alpha_rule_ablation(&[4], 11, &out);
        super::gossip_ablation(4, 11, &out);
    }
}
