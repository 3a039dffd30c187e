//! Queue-path profiling probe: N back-to-back replications of the
//! `bench_phy` 200-node dense workload on one queue kind, so a sampling
//! profiler sees only the configuration under study. Not part of the
//! paper reproduction.
//!
//! ```text
//! probe_queue [calendar|heap|mix] [reps]
//! ```
//!
//! `mix` runs once per backoff countdown (lazy, then the per-slot
//! oracle) with the kernel profiler attached and prints the
//! per-event-class dispatch counts instead of wall times.

use std::time::Instant;

use rmac_engine::{
    run_replication, run_replication_instrumented, ObsConfig, Protocol, QueueKind, ScenarioConfig,
};
use rmac_faults::FaultPlan;
use rmac_mobility::Bounds;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("calendar");
    let queue = match mode {
        "heap" => QueueKind::Heap,
        _ => QueueKind::Calendar,
    };
    let reps: u64 = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(5);
    let nodes = 200usize;
    let scale = (nodes as f64 / 75.0).sqrt();
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(nodes)
        .with_packets(150)
        .with_queue(queue);
    cfg.bounds = Bounds::new(500.0 * scale, 300.0 * scale);
    if mode == "mix" {
        for (countdown, cfg) in [
            ("lazy", cfg.clone()),
            ("per-slot", cfg.clone().with_per_slot_backoff()),
        ] {
            print_mix(countdown, &cfg);
        }
        return;
    }
    for rep in 0..reps {
        let t0 = Instant::now();
        let r = run_replication(&cfg, Protocol::Rmac, 1);
        println!(
            "{} rep {rep}: {:.3} s, {} events",
            queue.label(),
            t0.elapsed().as_secs_f64(),
            r.events
        );
    }
}

/// One instrumented replication's event mix and timer tallies.
fn print_mix(countdown: &str, cfg: &ScenarioConfig) {
    let obs = ObsConfig {
        snapshot_period: None,
        kernel_wall: false,
    };
    let (report, obs, _) =
        run_replication_instrumented(cfg, Protocol::Rmac, 1, &FaultPlan::none(), Some(obs));
    let obs = obs.expect("kernel profile requested");
    {
        println!("{countdown} backoff: {} events total", report.events);
        for (i, label) in obs.kernel.labels().iter().enumerate() {
            let n = obs.kernel.class_count(i);
            println!(
                "  {label:<22} {n:>9}  ({:.1}%)",
                100.0 * n as f64 / report.events as f64
            );
        }
        println!("timers by kind (armed / fired):");
        for (i, label) in obs.timer_labels.iter().enumerate() {
            let armed: u64 = obs.nodes.iter().map(|n| n.timer_arm[i]).sum();
            let fired: u64 = obs.nodes.iter().map(|n| n.timer_fire[i]).sum();
            println!("  {label:<14} {armed:>9} / {fired:>9}");
        }
    }
}
