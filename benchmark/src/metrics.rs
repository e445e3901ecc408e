//! The declared workloads and metrics — the code-side twin of
//! `BENCHMARK.json` (a unit test keeps the two in step).

use crate::stats::{Better, Bound};
use std::collections::BTreeMap;

/// `(name, why)` of every workload, in report order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "erosion_wide",
        "4096 ranks, tiny stripes, Ring gossip: hub rendezvous and O(P) use of collective results do the work, the kernel almost none",
    ),
    (
        "erosion_paper",
        "paper-size stripes (1000x1000 cells/PE, 400 iterations, P=32): erode/stripe kernels and real column migration dominate, the runtime is a bystander",
    ),
    (
        "scenario_delta",
        "drifting hotspot, 256 ranks, delta:32 gossip wire: WirDatabase delta_since/merge, GossipOutbox and the balancer over 4096 tasks, no kernel",
    ),
    (
        "scenario_full",
        "the same scenario on the full-snapshot wire: the gossip/db layer used the other way, so a gain bought for one wire at the other's cost shows",
    ),
    (
        "sweep_batch",
        "30 small erosion jobs (6 policies x 5 seeds) batched on one JobServer: admission, per-job hub namespaces, resident working set; what regenerating a figure costs",
    ),
    (
        "model_fig2",
        "Table II instances through sigma+, Menon, simulated annealing and the exact DP: model/anneal only, so a runtime change predicts no movement here",
    ),
];

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `rel` is the bound `BENCHMARK.json` declares; `floor` applies only to
    /// the suite's own `--selfcheck`.
    pub bound: Bound,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound { rel: 0.25, floor: 0.050 },
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound { rel: 0.25, floor: 0.0 },
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound { rel: 0.25, floor: 0.0 },
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound { rel: 0.25, floor: 0.0 },
    },
    EndToEnd {
        name: "makespan_virtual_s",
        unit: "virt_s",
        better: Better::Lower,
        bound: Bound { rel: 0.25, floor: 0.0 },
    },
    EndToEnd {
        name: "ulba_speedup_x",
        unit: "x",
        better: Better::Higher,
        bound: Bound { rel: 0.25, floor: 0.0 },
    },
];

/// `(name, unit, better)` of every per-layer metric a `--trace 1` run
/// reports. Names are `<crate>.<module>.<metric>`; a metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 55] = [
    ("runtime.server.spawn_ns_per_rank", "ns", Better::Lower),
    ("runtime.server.submit_join_us", "us", Better::Lower),
    ("runtime.server.scaling_x", "x", Better::Higher),
    ("runtime.server.batch_speedup_x", "x", Better::Higher),
    ("runtime.hub.barrier_ns_per_rank_round", "ns", Better::Lower),
    ("runtime.hub.allgather_ns_per_rank_round", "ns", Better::Lower),
    ("runtime.hub.allgather_fold_ns_per_rank_round", "ns", Better::Lower),
    ("runtime.hub.bcast_ns_per_rank_round", "ns", Better::Lower),
    ("runtime.hub.gather_ns_per_rank_round", "ns", Better::Lower),
    ("runtime.mailbox.p2p_ns_per_msg", "ns", Better::Lower),
    ("runtime.mailbox.push_drain_ns_per_msg", "ns", Better::Lower),
    ("runtime.metrics.idle_frac", "frac", Better::Lower),
    ("runtime.metrics.lb_frac", "frac", Better::Lower),
    ("runtime.metrics.comm_frac", "frac", Better::Lower),
    ("runtime.metrics.busy_max_over_mean", "x", Better::Lower),
    ("core.db.update_ns_per_entry", "ns", Better::Lower),
    ("core.db.delta_since_ns_per_slot", "ns", Better::Lower),
    ("core.db.snapshot_ns_per_entry", "ns", Better::Lower),
    ("core.db.entries_total", "count", Better::Lower),
    ("core.gossip.message_ns_per_call", "ns", Better::Lower),
    ("core.gossip.sim_round_us", "us", Better::Lower),
    ("core.gossip.select_peers_ns_per_call", "ns", Better::Lower),
    ("core.gossip.payload_entries_per_msg", "count", Better::Lower),
    ("core.gossip.rounds_to_complete", "count", Better::Lower),
    ("core.gossip.watermarks_total", "count", Better::Lower),
    ("core.policy.outlier_score_ns_per_entry", "ns", Better::Lower),
    ("core.policy.overhead_estimate_us", "us", Better::Lower),
    ("core.shares.compute_ns_per_rank", "ns", Better::Lower),
    ("core.partition.by_shares_ns_per_item", "ns", Better::Lower),
    ("core.balancer.rebalance_us_per_call", "us", Better::Lower),
    ("core.balancer.lb_calls", "count", Better::Lower),
    ("erosion.erode.step_ns_per_exposed_cell", "ns", Better::Lower),
    ("erosion.erode.exposed_cells_per_iter", "count", Better::Lower),
    ("erosion.stripe.init_us_per_col", "us", Better::Lower),
    ("erosion.stripe.fluid_weight_ns_per_col", "ns", Better::Lower),
    ("erosion.stripe.col_weights_ns_per_col", "ns", Better::Lower),
    ("erosion.stripe.refresh_ns_per_call", "ns", Better::Lower),
    ("erosion.stripe.halo_us_per_rank_iter", "us", Better::Lower),
    ("erosion.stripe.migrate_us_per_col_moved", "us", Better::Lower),
    ("erosion.app.eroded_total", "count", Better::Higher),
    ("erosion.app.eroded_policy_diff", "count", Better::Lower),
    ("scenario.generator.build_ms", "ms", Better::Lower),
    ("scenario.generator.range_units_ns_per_call", "ns", Better::Lower),
    ("scenario.generator.task_weights_ns_per_task", "ns", Better::Lower),
    ("scenario.generator.lambda_error_frac", "frac", Better::Lower),
    ("model.search.dp_ms_per_instance", "ms", Better::Lower),
    ("model.search.anneal_ms_per_instance", "ms", Better::Lower),
    ("model.schedule.sigma_plus_us_per_instance", "us", Better::Lower),
    ("model.instance.sample_us_per_instance", "us", Better::Lower),
    ("anneal.moves_per_s", "1/s", Better::Higher),
    ("model.search.sa_vs_opt_gap_pct", "%", Better::Lower),
    ("model.schedule.sigma_vs_opt_gap_pct", "%", Better::Lower),
    ("app.ulba_gain_pct", "%", Better::Higher),
    ("bench.trace_overhead_frac", "frac", Better::Lower),
    ("bench.projected_frac", "frac", Better::Higher),
];

/// Seconds per one unit of a per-layer timing metric (`None` for counts and
/// ratios), read off its declared unit.
pub fn unit_seconds(name: &str) -> Option<f64> {
    let (_, unit, _) = PER_LAYER.iter().find(|(n, _, _)| *n == name)?;
    match *unit {
        "ns" => Some(1e-9),
        "us" => Some(1e-6),
        "ms" => Some(1e-3),
        _ => None,
    }
}

/// Whether a per-layer metric is a count (or a ratio of virtual times) that
/// must repeat exactly for one build and seed, rather than a host timing.
pub fn repeats_exactly(name: &str) -> bool {
    let Some((_, unit, _)) = PER_LAYER.iter().find(|(n, _, _)| *n == name) else {
        return false;
    };
    *unit == "count"
        || name.starts_with("runtime.metrics.")
        || name.ends_with("_gap_pct")
        || matches!(name, "scenario.generator.lambda_error_frac" | "app.ulba_gain_pct")
}

/// Measured values keyed by declared metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`, which must be declared and not yet set.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(self.0.insert(name, value).is_none(), "{name} recorded twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<String> {
        let Json::Arr(items) = list else { panic!("expected an array") };
        items
            .iter()
            .map(|m| match m.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("metric without a name: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_workloads_and_metrics() {
        let doc = manifest();
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(names(doc.get("workloads").unwrap()), workloads);
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names(doc.get("end_to_end").unwrap()), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names(doc.get("per_layer").unwrap()), layers);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::cli::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn benchmark_json_units_directions_and_bounds_match() {
        let doc = manifest();
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else { panic!("end_to_end") };
        for (decl, json) in END_TO_END.iter().zip(e2e) {
            assert_eq!(json.get("unit"), Some(&Json::Str(decl.unit.into())), "{}", decl.name);
            assert_eq!(
                json.get("better"),
                Some(&Json::Str(decl.better.as_str().into())),
                "{}",
                decl.name
            );
            assert_eq!(
                json.get("bound").and_then(Json::as_f64),
                Some(decl.bound.rel),
                "{}",
                decl.name
            );
        }
        let Some(Json::Arr(layers)) = doc.get("per_layer") else { panic!("per_layer") };
        for ((name, unit, better), json) in PER_LAYER.iter().zip(layers) {
            assert_eq!(json.get("unit"), Some(&Json::Str((*unit).into())), "{name}");
            assert_eq!(json.get("better"), Some(&Json::Str(better.as_str().into())), "{name}");
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else { panic!("workloads") };
        for ((name, why), json) in WORKLOADS.iter().zip(workloads) {
            assert_eq!(json.get("why"), Some(&Json::Str((*why).into())), "{name}");
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(WORKLOADS.iter().map(|w| w.0));
        for name in &all {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn counts_repeat_exactly_and_timings_do_not() {
        assert!(repeats_exactly("core.balancer.lb_calls"));
        assert!(repeats_exactly("runtime.metrics.idle_frac"));
        assert!(repeats_exactly("model.search.sa_vs_opt_gap_pct"));
        assert!(!repeats_exactly("runtime.hub.barrier_ns_per_rank_round"));
        assert!(!repeats_exactly("bench.projected_frac"));
        assert!(!repeats_exactly("wall_s"));
    }

    #[test]
    fn timing_units_convert_to_seconds() {
        assert_eq!(unit_seconds("runtime.hub.barrier_ns_per_rank_round"), Some(1e-9));
        assert_eq!(unit_seconds("core.balancer.rebalance_us_per_call"), Some(1e-6));
        assert_eq!(unit_seconds("scenario.generator.build_ms"), Some(1e-3));
        assert_eq!(unit_seconds("core.db.entries_total"), None);
        assert_eq!(unit_seconds("nope"), None);
    }
}
