//! The sharded engine's packing, pinned on deterministic event counts.
//!
//! Shard groups are bins of radio components packed longest-processing-
//! time first by a cost estimate computed from the scenario alone. These
//! tests hold the packing to its two promises: on the multicell topology
//! the groups carry near-equal event loads, and a bin that holds several
//! components — run back to back, while their mirrored events land on the
//! same nanoseconds in the oracle's single queue — still reproduces the
//! oracle's report and trace byte for byte.

use std::sync::{Arc, Mutex};

use rmac::engine::{Runner, ShardedRunner, TraceEvent};
use rmac::faults::{ChurnKind, ChurnSpec, JamTarget, JammerSpec};
use rmac::mobility::{Bounds, Pos};
use rmac::prelude::*;

/// Two groups on the multicell topology carry near-equal event loads and
/// reproduce the oracle. Event counts are deterministic, so the bound is
/// exact on any host. At this scale (400 nodes, 30 packets, seed 1) the
/// packing splits 256,789 vs 252,901 events: max/mean 1.008.
#[test]
fn multicell_groups_are_event_balanced() {
    let cfg = ScenarioConfig::multicell(400, 30);
    let oracle = run_replication(&cfg, Protocol::Rmac, 1);
    let (report, stats) =
        ShardedRunner::new(&cfg.clone().with_shards(2), Protocol::Rmac, 1).run_with_stats();
    assert_eq!(report, oracle);
    assert_eq!(stats.groups, 2);
    assert_eq!(stats.cross_pushes, 0);
    let events: Vec<u64> = stats.group_stats.iter().map(|g| g.events).collect();
    let mean = events.iter().sum::<u64>() as f64 / events.len() as f64;
    let max = *events.iter().max().expect("two groups") as f64;
    assert!(
        max / mean <= 1.10,
        "group events {events:?}: max/mean {:.3} > 1.10",
        max / mean
    );
    let nodes: usize = stats.group_stats.iter().map(|g| g.nodes).sum();
    assert_eq!(nodes, cfg.nodes, "groups partition the nodes");
    let share: f64 = stats.group_stats.iter().map(|g| g.est_share).sum();
    assert!(
        (share - 1.0).abs() < 1e-9,
        "estimated shares sum to {share}"
    );
}

/// Island side and spacing (m): five nodes in a 40 m box, islands 300 m
/// apart, far beyond the 75 m radio range.
const PITCH_M: f64 = 300.0;
const CLUSTER: [(f64, f64); 5] = [
    (20.0, 20.0),
    (45.0, 20.0),
    (20.0, 50.0),
    (50.0, 55.0),
    (35.0, 35.0),
];

/// Three translated copies of one cluster, each with an RBT jammer at the
/// same relative spot on the same schedule and the same relative node
/// crashing at the same instant. Island 0 holds the source, so at two
/// shards islands 1 and 2 share a bin, and their mirrored jam bursts,
/// tone edges and crashes land on identical nanoseconds: the trace merge
/// must interleave them in the oracle's push order.
fn mirrored_islands() -> (ScenarioConfig, FaultPlan) {
    let positions: Vec<Pos> = (0..3)
        .flat_map(|k| {
            CLUSTER
                .iter()
                .map(move |&(x, y)| Pos::new(x + k as f64 * PITCH_M, y))
        })
        .collect();
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(6)
        .with_positions(positions)
        .with_check();
    cfg.warmup = SimTime::from_secs(2);
    cfg.drain = SimTime::from_secs(2);
    cfg.bounds = Bounds::new(2.0 * PITCH_M + 60.0, 60.0);
    let mut plan = FaultPlan::none();
    for k in 0..3u16 {
        plan = plan
            .with_jammer(JammerSpec {
                x: 30.0 + f64::from(k) * PITCH_M,
                y: 40.0,
                target: JamTarget::Rbt,
                start_ms: 2_050,
                period_ms: 400,
                burst_ms: 20,
            })
            .with_churn(ChurnSpec {
                node: 5 * k + 3,
                kind: ChurnKind::Crash,
                at_ms: 2_600,
                for_ms: 500,
            });
    }
    (cfg, plan)
}

/// Collect a run's full trace both as JSONL text and as events.
fn sink() -> (Arc<Mutex<Vec<TraceEvent>>>, rmac::engine::Tracer) {
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
    let buf = Arc::clone(&events);
    (
        events,
        Box::new(move |e| buf.lock().expect("trace sink").push(e.clone())),
    )
}

fn jsonl(events: &[TraceEvent]) -> String {
    events.iter().map(|e| e.to_json() + "\n").collect()
}

#[test]
fn mirrored_islands_in_one_bin_match_the_oracle_trace() {
    let (cfg, plan) = mirrored_islands();
    let seed = 21;

    let (oracle_events, tracer) = sink();
    let mut runner = Runner::with_faults(&cfg, Protocol::Rmac, seed, &plan);
    runner.set_tracer(tracer);
    let oracle = runner.run(seed);

    let (events, tracer) = sink();
    let mut sharded =
        ShardedRunner::with_faults(&cfg.clone().with_shards(2), Protocol::Rmac, seed, &plan);
    sharded.set_tracer(tracer);
    let (report, stats) = sharded.run_with_stats();

    assert_eq!(report, oracle);
    assert_eq!(stats.groups, 2);
    assert_eq!(
        stats.group_stats[1].components, 2,
        "islands 1 and 2 share the second bin"
    );
    let oracle_events = oracle_events.lock().expect("trace sink");
    let events = events.lock().expect("trace sink");
    assert_eq!(jsonl(&events), jsonl(&oracle_events), "JSONL traces differ");

    // The layout must really produce same-instant events in different
    // components of the shared bin (jammer k sits on island k).
    let island = |e: &TraceEvent| match e.node.idx() {
        n if n < cfg.nodes => n / CLUSTER.len(),
        n => n - cfg.nodes,
    };
    let tied = events.windows(2).any(|w| {
        let (a, b) = (island(&w[0]), island(&w[1]));
        w[0].t == w[1].t && a != b && a > 0 && b > 0
    });
    assert!(tied, "no same-instant events across islands 1 and 2");
}
