//! One run of one workload in this process: set-up, the timed ops, the
//! output checks, and — with tracing on — the spans, the single-worker
//! baseline, the layer drives and the projection.

use crate::drives::{self, DriveParams};
use crate::json::Json;
use crate::metrics::{unit_seconds, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, min_max};
use crate::trace::Tracer;
use crate::workloads::{
    build_inputs, derive_seed, run_op, summarize, ulba_rank_metrics, Inputs, Kind, Outputs, Summary,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use ulba_core::policy::LbPolicy;
use ulba_erosion::{ErosionConfig, ExperimentResult};
use ulba_runtime::JobServer;
use ulba_scenario::{ScenarioResult, LAMBDA_TOLERANCE};

/// Pool workers of every SPMD run: `min(nproc, 4)`, and no other threads.
pub fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Counts ops attempted and failed, and reports every failed check with
/// the workload, the check and both values.
pub struct Tally {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn new(workload: &'static str) -> Self {
        Self { workload, attempted: 0, failed: 0 }
    }

    /// Run one op; a panic (a rank panicked, a job returned `RunError`, an
    /// assert inside the program fired) fails all its units.
    fn op(&mut self, inputs: &Inputs, server: Option<&JobServer>) -> Option<Outputs> {
        self.attempted += inputs.units();
        match catch_unwind(AssertUnwindSafe(|| run_op(inputs, server))) {
            Ok(outputs) => Some(outputs),
            Err(_) => {
                self.failed += inputs.units();
                eprintln!("FAILED {}: an op panicked ({} units)", self.workload, inputs.units());
                None
            }
        }
    }

    /// An output check, counted as one op.
    fn check(
        &mut self,
        name: &str,
        ok: bool,
        left: &dyn std::fmt::Debug,
        right: &dyn std::fmt::Debug,
    ) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {}: check {name}: {left:?} vs {right:?}", self.workload);
        }
    }
}

/// The generated inputs plus the pool they run on.
struct Prepared {
    inputs: Inputs,
    server: Option<JobServer>,
}

/// One set-up: input generation, `JobServer::new`, and one untimed warm-up
/// op cut to one iteration.
fn set_up(kind: Kind, seed: u64, smoke: bool, tally: &mut Tally) -> Prepared {
    let inputs = build_inputs(kind, seed, smoke);
    let server = inputs.is_spmd().then(|| JobServer::new(worker_count()));
    tally.op(&inputs.warm_up(), server.as_ref());
    Prepared { inputs, server }
}

/// Which metrics a result line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `--trace 0`: every end-to-end metric.
    EndToEnd,
    /// `--trace 1`: every per-layer metric.
    PerLayer,
    /// `--reference`: none, only the check's outcome.
    Reference,
}

/// What a run reports.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of `pass`.
    pub fn to_json(&self, pass: Pass) -> Json {
        let declared: Vec<(&str, &str)> = match pass {
            Pass::EndToEnd => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            Pass::PerLayer => PER_LAYER.iter().map(|m| (m.0, m.1)).collect(),
            Pass::Reference => Vec::new(),
        };
        let metrics = declared.into_iter().map(|(name, unit)| {
            let value = self.values.get(name).unwrap_or_else(|| panic!("{name} was not measured"));
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Output checks that need runs beyond the timed op. Returns the standard
/// method's makespan where the op itself does not run it (`erosion_wide`).
fn cross_checks(
    kind: Kind,
    seed: u64,
    smoke: bool,
    prepared: &Prepared,
    outputs: &Outputs,
    tally: &mut Tally,
) -> Option<f64> {
    let server = prepared.server.as_ref();
    match (&prepared.inputs, outputs) {
        (Inputs::Erosion { cfgs, std: None, .. }, _) => {
            // The op runs ULBA only (with one LB call the two methods
            // differ by well under 1 %, and not at all on the default
            // seed); the standard arm runs once, untimed, for the ratio.
            let standard =
                Inputs::single(ErosionConfig { policy: LbPolicy::Standard, ..cfgs[0].clone() });
            Some(summarize(&standard, &tally.op(&standard, server)?).t_ulba)
        }
        (Inputs::Erosion { batched: true, .. }, Outputs::Erosion(batched)) => {
            // Three sampled jobs, each alone on the pool.
            let singles = prepared.inputs.singles();
            for pick in 0..3 {
                let index = derive_seed(seed, kind.name(), 100 + pick) as usize % singles.len();
                if let Some(Outputs::Erosion(alone)) = tally.op(&singles[index], server) {
                    let key =
                        |r: &ExperimentResult| (r.makespan.to_bits(), r.lb_calls, r.total_eroded);
                    tally.check(
                        &format!("job {index} alone ≡ batched"),
                        key(&alone[0]) == key(&batched[index]),
                        &key(&alone[0]),
                        &key(&batched[index]),
                    );
                }
            }
            None
        }
        (Inputs::Scenario { .. }, Outputs::Scenario(results)) => {
            for r in results {
                tally.check(
                    "λ achieved within tolerance",
                    (r.lambda_achieved - r.lambda_target).abs()
                        <= LAMBDA_TOLERANCE * r.lambda_target,
                    &r.lambda_achieved,
                    &r.lambda_target,
                );
            }
            // The other wire merges to the same databases, so it must take
            // the same LB decisions and land on the same makespans.
            let other = build_inputs(kind.other_wire().expect("a scenario workload"), seed, smoke);
            if let Some(Outputs::Scenario(twin)) = tally.op(&other, server) {
                let key = |rs: &[ScenarioResult]| {
                    rs.iter()
                        .map(|r| (r.makespan.to_bits(), r.lb_iterations.clone()))
                        .collect::<Vec<_>>()
                };
                tally.check(
                    "full wire ≡ delta wire",
                    key(&twin) == key(results),
                    &key(&twin),
                    &key(results),
                );
            }
            None
        }
        (Inputs::Model { .. }, Outputs::Model(points)) => {
            for (i, p) in points.iter().enumerate() {
                if let Some((annealed, optimal)) = p.searched {
                    let floor = optimal * (1.0 - 1e-9);
                    tally.check(
                        &format!("instance {i}: σ⁺ ≥ optimum"),
                        p.sigma_time >= floor,
                        &p.sigma_time,
                        &optimal,
                    );
                    tally.check(
                        &format!("instance {i}: SA ≥ optimum"),
                        annealed >= floor,
                        &annealed,
                        &optimal,
                    );
                }
            }
            None
        }
        _ => None,
    }
}

/// Walls of the timed ops and the first op's outputs.
struct TimedOps {
    /// Ops with no span around them.
    plain: Vec<f64>,
    /// Ops inside an `op` span (`alternate` runs only).
    spanned: Vec<f64>,
    /// `VmHWM` once the first op has completed: the footprint of set-up
    /// plus one op, before a long run's allocator drift adds to it.
    peak_rss_mib: f64,
    first: Option<(Outputs, Summary)>,
}

/// Run ops until `seconds` have passed (and at least three, or two of each
/// kind), checking that every op repeats the first one bit for bit. With
/// `alternate`, every second op runs inside an `op` span.
fn timed_ops(
    prepared: &Prepared,
    seconds: f64,
    alternate: bool,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> TimedOps {
    let started = Instant::now();
    let min_ops = if alternate { 4 } else { 3 };
    let mut timed =
        TimedOps { plain: Vec::new(), spanned: Vec::new(), peak_rss_mib: 0.0, first: None };
    let mut ops = 0;
    while ops < min_ops || started.elapsed().as_secs_f64() < seconds {
        let span_this = alternate && ops % 2 == 1;
        tr.set_enabled(span_this);
        let (outputs, wall) =
            tr.scope("op", 1, |_| tally.op(&prepared.inputs, prepared.server.as_ref()));
        tr.set_enabled(alternate);
        let Some(outputs) = outputs else { break };
        ops += 1;
        if span_this { &mut timed.spanned } else { &mut timed.plain }.push(wall);
        let summary = summarize(&prepared.inputs, &outputs);
        match &timed.first {
            None => {
                timed.peak_rss_mib = peak_rss_mib();
                timed.first = Some((outputs, summary));
            }
            Some((_, reference)) => tally.check(
                "op repeats bit for bit",
                summary.fingerprint == reference.fingerprint,
                &summary.t_ulba,
                &reference.t_ulba,
            ),
        }
    }
    timed
}

/// `--trace 0`: the end-to-end metrics of one workload.
pub fn end_to_end(kind: Kind, seed: u64, seconds: f64, smoke: bool) -> Result<RunResult, String> {
    let mut tally = Tally::new(kind.name());

    let timed_set_up = |tally: &mut Tally| {
        let started = Instant::now();
        let prepared = set_up(kind, seed, smoke, tally);
        (prepared, started.elapsed().as_secs_f64())
    };
    let (prepared, first_set_up) = timed_set_up(&mut tally);

    let mut untraced = Tracer::new(kind.name(), false);
    let TimedOps { plain: walls, first, peak_rss_mib, .. } =
        timed_ops(&prepared, seconds, false, &mut untraced, &mut tally);
    let (outputs, summary) = first.ok_or("no op completed")?;
    let t_std = cross_checks(kind, seed, smoke, &prepared, &outputs, &mut tally);
    let speedup = summary
        .speedup()
        .or_else(|| t_std.map(|t| t / summary.t_ulba))
        .ok_or("the standard arm did not complete")?;
    let work = prepared.inputs.work();
    drop(prepared);

    // Set up again, several times, and report the median: one set-up is a
    // few milliseconds on the small workloads. Only now, so that the peak
    // RSS sampled after the first op is that of one set-up and one op —
    // every further pool leaves its threads' allocator arenas behind.
    let mut setups = vec![first_set_up];
    while setups.len() < 5 || (setups.iter().sum::<f64>() < 1.0 && setups.len() < 40) {
        setups.push(timed_set_up(&mut tally).1);
    }

    let wall = median(&walls);
    let mut values = Values::default();
    values.set("setup_s", median(&setups));
    values.set("wall_s", wall);
    values.set("work_per_s", work / wall);
    values.set("peak_rss_mib", peak_rss_mib);
    values.set("makespan_virtual_s", summary.t_ulba);
    values.set("ulba_speedup_x", speedup);
    eprintln!(
        "{}: {} ops (work {} per op), {} set-ups, wall min/median/max {:.4}/{:.4}/{:.4} s",
        kind.name(),
        walls.len(),
        work,
        setups.len(),
        min_max(&walls).0,
        wall,
        min_max(&walls).1,
    );
    Ok(RunResult { attempted: tally.attempted, failed: tally.failed, values })
}

/// Virtual-time split of the ULBA run's rank metrics, and the other counts
/// read off the op's results.
fn result_metrics(inputs: &Inputs, outputs: &Outputs, speedup: Option<f64>, values: &mut Values) {
    let ranks = ulba_rank_metrics(inputs, outputs);
    let total: f64 = ranks.iter().map(|m| m.total()).sum();
    let frac = |part: f64| if total > 0.0 { part / total } else { 0.0 };
    values.set("runtime.metrics.idle_frac", frac(ranks.iter().map(|m| m.idle).sum()));
    values.set("runtime.metrics.lb_frac", frac(ranks.iter().map(|m| m.lb).sum()));
    values.set("runtime.metrics.comm_frac", frac(ranks.iter().map(|m| m.comm).sum()));
    let busy_mean = ranks.iter().map(|m| m.busy).sum::<f64>() / ranks.len().max(1) as f64;
    let busy_max = ranks.iter().map(|m| m.busy).fold(0.0f64, f64::max);
    values.set(
        "runtime.metrics.busy_max_over_mean",
        if busy_mean > 0.0 { busy_max / busy_mean } else { 0.0 },
    );

    let (entries, watermarks, lb_calls, eroded, eroded_diff) = match (inputs, outputs) {
        (Inputs::Erosion { std, ulba, .. }, Outputs::Erosion(results)) => {
            let u = &results[ulba.start];
            let diff =
                std.as_ref().map_or(0, |s| results[s.start].total_eroded.abs_diff(u.total_eroded));
            (u.db_entries_total, u.gossip_watermarks_total, u.lb_calls, u.total_eroded, diff)
        }
        (_, Outputs::Scenario(results)) => (
            results[1].db_entries_total,
            results[1].gossip_watermarks_total,
            results[1].lb_calls,
            0,
            0,
        ),
        _ => (0, 0, 0, 0, 0),
    };
    values.set("core.db.entries_total", entries as f64);
    values.set("core.gossip.watermarks_total", watermarks as f64);
    values.set("core.balancer.lb_calls", lb_calls as f64);
    values.set("erosion.app.eroded_total", eroded as f64);
    values.set("erosion.app.eroded_policy_diff", eroded_diff as f64);
    values.set("app.ulba_gain_pct", speedup.map_or(0.0, |x| 100.0 * (1.0 - 1.0 / x)));
}

/// `(metric, calls)` of every unit cost the op is known to pay, from the
/// workload's own parameters and the op's LB-call counts. README.md states
/// each formula.
fn call_counts(
    inputs: &Inputs,
    outputs: &Outputs,
    dp: &DriveParams,
    v: &Values,
) -> Vec<(&'static str, f64)> {
    // (ranks, iterations, LB calls) of every run in the op.
    let runs: Vec<(f64, f64, f64)> = match (inputs, outputs) {
        (Inputs::Erosion { cfgs, .. }, Outputs::Erosion(results)) => cfgs
            .iter()
            .zip(results)
            .map(|(c, r)| (c.ranks as f64, c.iterations as f64, r.lb_calls as f64))
            .collect(),
        (Inputs::Scenario { cfgs }, Outputs::Scenario(results)) => cfgs
            .iter()
            .zip(results)
            .map(|(c, r)| (c.ranks as f64, c.iterations as f64, r.lb_calls as f64))
            .collect(),
        (Inputs::Model { instances, heavy, .. }, _) => {
            return vec![
                // σ⁺ and Menon schedules, each with its total time.
                ("model.schedule.sigma_plus_us_per_instance", 2.0 * instances.len() as f64),
                ("model.search.dp_ms_per_instance", *heavy as f64),
                ("model.search.anneal_ms_per_instance", *heavy as f64),
            ];
        }
        _ => unreachable!("outputs come from run_op on the same inputs"),
    };
    let sum = |f: &dyn Fn(&(f64, f64, f64)) -> f64| runs.iter().map(f).sum::<f64>();
    let ranks = sum(&|r| r.0);
    let rank_iters = sum(&|r| r.0 * r.1);
    let rank_lbs = sum(&|r| r.0 * r.2);
    let fanout = dp.fanout() as f64;
    let entries = v.get("core.gossip.payload_entries_per_msg").unwrap_or(0.0);
    let erosion = matches!(inputs, Inputs::Erosion { .. });
    let mut counts = vec![
        ("runtime.server.spawn_ns_per_rank", ranks),
        ("runtime.server.submit_join_us", runs.len() as f64),
        // Iteration end: allgather + two folds, then the LB-flag broadcast.
        ("runtime.hub.allgather_fold_ns_per_rank_round", rank_iters),
        ("runtime.hub.bcast_ns_per_rank_round", rank_iters),
        // Two final allreduces per rank; per LB step the cost allreduce
        // (and, in the erosion app, the range allgather).
        (
            "runtime.hub.allgather_ns_per_rank_round",
            2.0 * ranks + rank_lbs * if erosion { 2.0 } else { 1.0 },
        ),
        ("runtime.mailbox.push_drain_ns_per_msg", fanout * rank_iters),
        ("core.gossip.select_peers_ns_per_call", rank_iters),
        ("core.gossip.message_ns_per_call", fanout * rank_iters),
        // Every received entry is merged, plus the rank's own update.
        ("core.db.update_ns_per_entry", (entries * fanout + 1.0) * rank_iters),
        // Every rank scores itself against all P entries at each LB step;
        // rank 0 estimates the ULBA overhead every iteration.
        ("core.policy.outlier_score_ns_per_entry", sum(&|r| r.0 * r.0 * r.2)),
        ("core.policy.overhead_estimate_us", sum(&|r| r.1)),
        ("core.balancer.rebalance_us_per_call", sum(&|r| r.2)),
    ];
    if erosion {
        let cols = dp.cols as f64;
        let exposed = v.get("erosion.erode.exposed_cells_per_iter").unwrap_or(0.0);
        counts.extend([
            ("erosion.erode.step_ns_per_exposed_cell", exposed * rank_iters),
            ("erosion.stripe.init_us_per_col", cols * ranks),
            ("erosion.stripe.fluid_weight_ns_per_col", cols * rank_iters),
            ("erosion.stripe.refresh_ns_per_call", rank_iters),
            ("erosion.stripe.halo_us_per_rank_iter", rank_iters),
            ("erosion.stripe.col_weights_ns_per_col", cols * rank_lbs),
        ]);
    } else {
        counts.extend([
            ("scenario.generator.build_ms", runs.len() as f64),
            ("scenario.generator.range_units_ns_per_call", rank_iters),
            ("scenario.generator.task_weights_ns_per_task", dp.tasks_per_rank as f64 * rank_lbs),
        ]);
    }
    counts
}

/// Whether a unit cost was measured as wall time of a job on all `workers`
/// (an SPMD micro-program) rather than as single-threaded CPU time.
fn measured_on_the_pool(metric: &str) -> bool {
    metric.starts_with("runtime.")
        || metric == "core.balancer.rebalance_us_per_call"
        || metric == "erosion.stripe.halo_us_per_rank_iter"
}

/// The layer a metric belongs to: `<crate>.<module>`, or the crate alone.
/// Annealing time is measured through `model::search` but spent in the
/// `anneal` crate.
fn layer_of(metric: &str) -> &str {
    if metric.contains("anneal") {
        return "anneal";
    }
    match metric.match_indices('.').nth(1) {
        Some((second_dot, _)) => &metric[..second_dot],
        None => metric.split('.').next().expect("non-empty"),
    }
}

/// Project each layer's share of the op: unit cost × known calls, in
/// CPU-seconds (a pool-wall cost occupies every worker). Returns the
/// per-layer seconds, largest first, and their sum over `wall × workers`.
pub fn project(
    counts: &[(&'static str, f64)],
    values: &Values,
    wall: f64,
    workers: usize,
) -> (Vec<(String, f64)>, f64) {
    let mut layers: Vec<(String, f64)> = Vec::new();
    for &(metric, calls) in counts {
        let unit = unit_seconds(metric).expect("projected metrics are timings");
        let width = if measured_on_the_pool(metric) { workers as f64 } else { 1.0 };
        let secs = values.get(metric).unwrap_or(0.0) * unit * calls * width;
        let layer = layer_of(metric);
        match layers.iter_mut().find(|(name, _)| name == layer) {
            Some((_, total)) => *total += secs,
            None => layers.push((layer.to_string(), secs)),
        }
    }
    layers.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite projections"));
    let total: f64 = layers.iter().map(|l| l.1).sum();
    (layers, total / (wall * workers as f64))
}

/// `--trace 1`: spans, baselines, layer drives and the per-layer metrics of
/// one workload; writes `<out>/trace_<workload>.json`.
pub fn traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: &Path,
) -> Result<RunResult, String> {
    let mut tally = Tally::new(kind.name());
    let mut tr = Tracer::new(kind.name(), true);
    let mut values = Values::default();

    let (prepared, _) = tr.scope("setup", 1, |_| set_up(kind, seed, smoke, &mut tally));
    let workers = if prepared.inputs.is_spmd() { worker_count() } else { 1 };

    // The same op again, alternately without and with a span around it:
    // the difference is what tracing costs.
    let TimedOps { plain, spanned, first, .. } =
        timed_ops(&prepared, seconds / 2.0, true, &mut tr, &mut tally);
    let (outputs, summary) = first.ok_or("no op completed")?;
    if plain.is_empty() || spanned.is_empty() {
        return Err("an op failed before both a plain and a traced one completed".into());
    }
    let wall = median(&plain);
    // The fastest op of each kind: with a handful of ops whose walls scatter
    // ±15 %, the minima are steadier than the medians.
    values.set("bench.trace_overhead_frac", min_max(&spanned).0 / min_max(&plain).0 - 1.0);
    let t_std = cross_checks(kind, seed, smoke, &prepared, &outputs, &mut tally);
    let speedup = summary.speedup().or_else(|| t_std.map(|t| t / summary.t_ulba));
    result_metrics(&prepared.inputs, &outputs, speedup, &mut values);

    // The plain single-worker run of the same op, bit-identical by contract.
    let mut scaling = 0.0;
    if prepared.inputs.is_spmd() {
        let one = JobServer::new(1);
        tally.op(&prepared.inputs.warm_up(), Some(&one));
        let (baseline, secs) =
            tr.scope("baseline_1w", 1, |_| tally.op(&prepared.inputs, Some(&one)));
        if let Some(baseline) = baseline {
            let fingerprint = summarize(&prepared.inputs, &baseline).fingerprint;
            tally.check(
                "baseline_1w ≡ W-worker op",
                fingerprint == summary.fingerprint,
                &fingerprint.first(),
                &summary.fingerprint.first(),
            );
            scaling = secs / wall;
        }
    }
    values.set("runtime.server.scaling_x", scaling);

    // A batch's jobs one after another on the same pool.
    let mut batch_speedup = 0.0;
    if matches!(prepared.inputs, Inputs::Erosion { batched: true, .. }) {
        let singles = prepared.inputs.singles();
        let (done, secs) = tr.scope("solo_sum", singles.len() as u64, |_| {
            singles.iter().filter(|job| tally.op(job, prepared.server.as_ref()).is_some()).count()
        });
        if done == singles.len() {
            batch_speedup = secs / wall;
        }
    }
    values.set("runtime.server.batch_speedup_x", batch_speedup);

    let dp = DriveParams::from_inputs(&prepared.inputs);
    let drive_pool = prepared.server.clone().unwrap_or_else(|| JobServer::new(worker_count()));
    let drives_ran =
        catch_unwind(AssertUnwindSafe(|| drives::run_all(&mut tr, &dp, &drive_pool, &mut values)));
    tally.check("layer drives completed", drives_ran.is_ok(), &"panicked", &"ok");
    if drives_ran.is_err() {
        return Err("a layer drive panicked".into());
    }

    let counts = call_counts(&prepared.inputs, &outputs, &dp, &values);
    let (layers, projected) = project(&counts, &values, wall, workers);
    values.set("bench.projected_frac", projected);
    eprintln!(
        "{}: op wall {wall:.4} s on {workers} worker(s); projected {:.1}% of wall x workers:",
        kind.name(),
        projected * 100.0
    );
    for (layer, secs) in &layers {
        eprintln!(
            "  {layer:<22} {secs:>9.4} cpu-s  {:>5.1}%",
            secs / (wall * workers as f64) * 100.0
        );
    }

    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join(format!("trace_{}.json", kind.name()));
    let mut doc = tr.to_json();
    if let Json::Obj(pairs) = &mut doc {
        pairs.push((
            "projected_cpu_s".into(),
            Json::obj(layers.into_iter().map(|(l, s)| (l, Json::Num(s)))),
        ));
    }
    std::fs::write(&path, doc.write()? + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(RunResult { attempted: tally.attempted, failed: tally.failed, values })
}

/// The virtual makespan of the `parallel`/`ulba`/16384 row of the committed
/// `results/BENCH_seed.json` — the repo's CI drift gate.
const REFERENCE_MAKESPAN_P16384: f64 = 0.12409854480000003;

/// `--reference`: the canonical P = 16384 leg once, default seeds, checked
/// to the bit against the committed baseline.
pub fn reference_leg() -> Result<RunResult, String> {
    let mut tally = Tally::new("erosion_wide@16384");
    let leg = Inputs::single(crate::workloads::wide_config(16384));
    let server = JobServer::new(worker_count());
    let started = Instant::now();
    let outputs = tally.op(&leg, Some(&server)).ok_or("the reference leg failed")?;
    let makespan = summarize(&leg, &outputs).t_ulba;
    tally.check(
        "makespan ≡ results/BENCH_seed.json",
        makespan.to_bits() == REFERENCE_MAKESPAN_P16384.to_bits(),
        &makespan,
        &REFERENCE_MAKESPAN_P16384,
    );
    eprintln!(
        "erosion_wide@16384: makespan {makespan:?} virtual s in {:.2} s (committed: {REFERENCE_MAKESPAN_P16384:?})",
        started.elapsed().as_secs_f64()
    );
    Ok(RunResult { attempted: tally.attempted, failed: tally.failed, values: Values::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn layers_are_crate_dot_module() {
        assert_eq!(layer_of("runtime.hub.barrier_ns_per_rank_round"), "runtime.hub");
        assert_eq!(layer_of("core.db.update_ns_per_entry"), "core.db");
        assert_eq!(layer_of("anneal.moves_per_s"), "anneal");
        assert_eq!(layer_of("model.search.anneal_ms_per_instance"), "anneal");
    }

    #[test]
    fn projection_sums_unit_cost_times_calls() {
        let mut values = Values::default();
        values.set("runtime.hub.barrier_ns_per_rank_round", 500.0);
        values.set("runtime.hub.bcast_ns_per_rank_round", 250.0);
        values.set("core.db.update_ns_per_entry", 10.0);
        let counts = [
            ("runtime.hub.barrier_ns_per_rank_round", 1.0e6),
            ("runtime.hub.bcast_ns_per_rank_round", 2.0e6),
            ("core.db.update_ns_per_entry", 1.0e7),
        ];
        // Pool-wall costs occupy both workers: (0.5 + 0.5) s × 2; the
        // single-threaded cost counts once: 0.1 s.
        let (layers, frac) = project(&counts, &values, 2.0, 2);
        assert_eq!(layers[0].0, "runtime.hub");
        assert!((layers[0].1 - 2.0).abs() < 1e-12);
        assert!((layers[1].1 - 0.1).abs() < 1e-12);
        assert!((frac - 2.1 / 4.0).abs() < 1e-12);
    }

    /// Every declared workload × metric name appears exactly once in the
    /// result lines of a smoke run, both passes, with nothing failed.
    #[test]
    fn smoke_run_reports_every_declared_metric_once() {
        let out = std::env::temp_dir().join(format!("ulba-benchmark-test-{}", std::process::id()));
        for (name, _) in WORKLOADS {
            let kind = Kind::from_name(name).unwrap();
            let plain = end_to_end(kind, 7, 0.05, true).unwrap();
            assert!(plain.correct(), "{name}: {} of {} failed", plain.failed, plain.attempted);
            assert!(plain.attempted >= 1);
            let line = plain.to_json(Pass::EndToEnd).write().unwrap();
            for metric in END_TO_END.iter() {
                assert_eq!(
                    line.matches(&format!("\"{}\"", metric.name)).count(),
                    1,
                    "{name} {}",
                    metric.name
                );
            }
            let traced_run = traced(kind, 7, 0.05, true, &out).unwrap();
            assert!(traced_run.correct(), "{name} traced: {} failed", traced_run.failed);
            let line = traced_run.to_json(Pass::PerLayer).write().unwrap();
            for (metric, _, _) in PER_LAYER.iter() {
                assert_eq!(line.matches(&format!("\"{metric}\"")).count(), 1, "{name} {metric}");
            }
            let trace = std::fs::read_to_string(out.join(format!("trace_{name}.json"))).unwrap();
            let doc = Json::parse(&trace).unwrap();
            let Some(Json::Arr(spans)) = doc.get("spans") else { panic!("{name}: no spans") };
            for wanted in ["setup", "op", "drive:runtime.hub.barrier_ns_per_rank_round"] {
                assert!(
                    spans.iter().any(|s| s.get("name") == Some(&Json::Str(wanted.into()))),
                    "{name}: {wanted}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
