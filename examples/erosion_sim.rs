//! The §IV-B numerical study in miniature: the fluid-with-erosion proxy
//! application on the simulated cluster, standard method vs ULBA.
//!
//! Run with: `cargo run --release --example erosion_sim`
//! (Set `PES`/`STRONG` env vars to change the scenario.)

use ulba::core::policy::LbPolicy;
use ulba::erosion::{run_erosion, ErosionConfig};

fn main() {
    let pes: usize = std::env::var("PES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
    let strong: usize = std::env::var("STRONG").ok().and_then(|v| v.parse().ok()).unwrap_or(1);

    println!(
        "Erosion study: {pes} PEs, {strong} strongly erodible rock(s), \
         quarter-scale domain, 400 iterations\n"
    );

    let mut results = Vec::new();
    for (name, policy) in
        [("standard", LbPolicy::Standard), ("ULBA a=0.4", LbPolicy::ulba_fixed(0.4))]
    {
        let mut cfg = ErosionConfig::scaled(pes, strong);
        cfg.policy = policy;
        let res = run_erosion(&cfg);
        println!(
            "{name:>11}: {:.2} s | {} LB calls at {:?}",
            res.makespan, res.lb_calls, res.lb_iterations
        );
        println!(
            "             mean PE utilization {:.1} %, {} cells eroded",
            res.mean_utilization * 100.0,
            res.total_eroded
        );
        for step in &res.lb_steps {
            println!(
                "             LB at iteration {:3}: cost {:.3} s (iteration {:.3} s, \
                 anticipated overhead {:.3} s), N = {} overloading{}",
                step.iteration,
                step.cost_secs,
                step.iter_wall_secs,
                step.overhead_estimate_secs,
                step.overloading,
                if step.majority_fallback { ", majority fallback" } else { "" }
            );
        }
        results.push(res);
    }

    let gain = (results[0].makespan - results[1].makespan) / results[0].makespan * 100.0;
    println!("\nULBA vs standard: {gain:+.1}% wall-clock (paper observed up to +16%).");
    println!(
        "LB calls: {} -> {} ({:.0}% fewer; paper's Fig. 4b: 62.5% fewer).",
        results[0].lb_calls,
        results[1].lb_calls,
        100.0 * (results[0].lb_calls as f64 - results[1].lb_calls as f64)
            / results[0].lb_calls.max(1) as f64
    );

    // A small utilization strip chart, like Fig. 4b.
    println!("\nPer-iteration utilization (every 25th iteration):");
    println!("iter    standard     ULBA");
    for (a, b) in results[0].iterations.iter().zip(&results[1].iterations) {
        if a.iter % 25 == 0 {
            println!(
                "{:4}    {:5.1}%{}    {:5.1}%{}",
                a.iter,
                a.mean_utilization * 100.0,
                if a.lb_active { "*" } else { " " },
                b.mean_utilization * 100.0,
                if b.lb_active { "*" } else { " " },
            );
        }
    }
    println!("(* = LB step during that iteration)");
}
