//! Golden-trace regression tests: three canonical scenarios whose full
//! frame-level JSONL traces are committed under `tests/golden/` and
//! re-derived on every run.
//!
//! A byte-for-byte match is a much stronger determinism statement than the
//! `RunReport` equality the other suites check: it pins the *order and
//! timing of every frame and fault event*, so any accidental RNG draw,
//! reordered event, or changed airtime shows up as a one-line diff instead
//! of a silently shifted aggregate.
//!
//! When a trace changes **intentionally** (protocol fix, schema change),
//! regenerate with:
//!
//! ```text
//! RMAC_REGEN_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use rmac::engine::{filter_tracer, QueueKind, Runner, ShardedRunner, TraceLevel, Tracer};
use rmac::faults::{JamTarget, JammerSpec};
use rmac::mobility::Pos;
use rmac::prelude::*;
use rmac::sim::SimTime;

/// Collect a frame-level JSONL trace from any runner shape through one
/// shared sink.
fn frame_sink() -> (Arc<Mutex<Vec<String>>>, Tracer) {
    let lines: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = Arc::clone(&lines);
    let inner: Tracer = Box::new(move |e| sink.lock().expect("trace sink").push(e.to_json()));
    (lines, filter_tracer(TraceLevel::Frames, inner))
}

fn drain_sink(lines: Arc<Mutex<Vec<String>>>) -> String {
    let lines = lines.lock().expect("trace sink");
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines.iter() {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Run one replication with the conformance checker on and a frame-level
/// tracer attached; return the JSONL trace as one string.
fn capture(cfg: &ScenarioConfig, protocol: Protocol, seed: u64, plan: &FaultPlan) -> String {
    let (lines, tracer) = frame_sink();
    match cfg.queue {
        QueueKind::Calendar => {
            let mut runner = Runner::with_faults(cfg, protocol, seed, plan);
            runner.set_tracer(tracer);
            let _ = runner.run(seed);
        }
        QueueKind::Heap => {
            let mut runner = Runner::with_faults_heap(cfg, protocol, seed, plan);
            runner.set_tracer(tracer);
            let _ = runner.run(seed);
        }
    }
    drain_sink(lines)
}

/// Same capture through the sharded engine at the given shard count.
fn capture_sharded(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
    shards: usize,
) -> String {
    let (lines, tracer) = frame_sink();
    let mut runner =
        ShardedRunner::with_faults(&cfg.clone().with_shards(shards), protocol, seed, plan);
    runner.set_tracer(tracer);
    let _ = runner.run();
    drain_sink(lines)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the committed golden file (or rewrite it when
/// `RMAC_REGEN_GOLDEN=1`). On mismatch, report the first diverging line —
/// a full trace diff belongs in `git diff` after a regen, not in a panic
/// message.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("RMAC_REGEN_GOLDEN").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with RMAC_REGEN_GOLDEN=1",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let n_exp = expected.lines().count();
    let n_act = actual.lines().count();
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            e,
            a,
            "{name}: first divergence at line {} (golden has {n_exp} lines, run produced {n_act});\n\
             regenerate with RMAC_REGEN_GOLDEN=1 if the change is intentional",
            i + 1
        );
    }
    panic!(
        "{name}: traces agree for the common prefix but lengths differ \
         (golden {n_exp} lines, run {n_act}); regenerate with RMAC_REGEN_GOLDEN=1 if intentional"
    );
}

/// Keep the traces reviewable: short warmup/drain, a handful of packets.
fn trim(mut cfg: ScenarioConfig, name: &str) -> ScenarioConfig {
    cfg.warmup = SimTime::from_secs(2);
    cfg.drain = SimTime::from_secs(1);
    cfg.name = name.to_string();
    cfg.with_check()
}

/// The four canonical golden scenarios: (golden file, scenario, seed,
/// fault plan). Shared by the oracle regression tests and the sharded
/// replay matrix.
fn golden_scenarios() -> Vec<(&'static str, ScenarioConfig, u64, FaultPlan)> {
    let one_hop = trim(
        ScenarioConfig::paper_stationary(5.0)
            .with_packets(3)
            .with_positions(vec![
                Pos::new(0.0, 0.0),
                Pos::new(60.0, 0.0),
                Pos::new(0.0, 60.0),
                Pos::new(60.0, 60.0),
            ]),
        "golden-one-hop",
    );
    let hidden = trim(
        ScenarioConfig::paper_stationary(10.0)
            .with_packets(3)
            .with_positions(vec![
                Pos::new(0.0, 0.0),
                Pos::new(70.0, 0.0),
                Pos::new(140.0, 0.0),
            ]),
        "golden-hidden-terminal",
    );
    let jam_cfg = trim(
        ScenarioConfig::paper_stationary(5.0)
            .with_packets(3)
            .with_positions(vec![
                Pos::new(0.0, 0.0),
                Pos::new(60.0, 0.0),
                Pos::new(0.0, 60.0),
            ]),
        "golden-tone-jam",
    );
    let jam_plan = FaultPlan {
        jammers: vec![JammerSpec {
            x: 30.0,
            y: 30.0,
            target: JamTarget::Rbt,
            start_ms: 2100,
            period_ms: 300,
            burst_ms: 30,
        }],
        ..FaultPlan::none()
    };
    let clusters = trim(
        ScenarioConfig::paper_stationary(5.0)
            .with_packets(3)
            .with_positions(vec![
                // Cluster A (left): source plus two receivers.
                Pos::new(40.0, 100.0),
                Pos::new(90.0, 100.0),
                Pos::new(40.0, 160.0),
                // Cluster B (right): radio-isolated bystanders, > 75 m
                // from everything in A, so two shards run the two
                // components as two causally closed groups.
                Pos::new(420.0, 100.0),
                Pos::new(460.0, 140.0),
            ]),
        "golden-decoupled-clusters",
    );
    vec![
        ("one_hop_multicast.jsonl", one_hop, 7, FaultPlan::none()),
        ("hidden_terminal.jsonl", hidden, 11, FaultPlan::none()),
        ("tone_jam.jsonl", jam_cfg, 13, jam_plan),
        ("decoupled_clusters.jsonl", clusters, 17, FaultPlan::none()),
    ]
}

/// Fig. 4's shape at golden fidelity: one sender multicasting to three
/// in-range receivers — MRTS, RBT window, reliable data, ordered ABTs.
#[test]
fn golden_one_hop_multicast() {
    let (name, cfg, seed, plan) = golden_scenarios().swap_remove(0);
    let trace = capture(&cfg, Protocol::Rmac, seed, &plan);
    assert!(
        trace.contains("\"kind\":\"Mrts\"") && trace.contains("\"kind\":\"DataReliable\""),
        "trace lost the MRTS/data exchange"
    );
    assert_golden(name, &trace);
}

/// The classic hidden-terminal line: 0 and 2 are out of range of each
/// other, both in range of 1. The trace pins how RMAC's busy tones
/// arbitrate the middle node.
#[test]
fn golden_hidden_terminal_chain() {
    let (name, cfg, seed, plan) = golden_scenarios().swap_remove(1);
    let trace = capture(&cfg, Protocol::Rmac, seed, &plan);
    assert_golden(name, &trace);
}

/// An RBT jammer parked next to a one-hop multicast: the trace pins both
/// the jam bursts (fault events) and the MAC's deferrals under them.
#[test]
fn golden_tone_jam() {
    let (name, cfg, seed, plan) = golden_scenarios().swap_remove(2);
    let trace = capture(&cfg, Protocol::Rmac, seed, &plan);
    assert!(
        trace.contains("\"ev\":\"fault\""),
        "trace lost the jam bursts"
    );
    assert_golden(name, &trace);
}

/// Two radio-isolated clusters: under two shards the component analysis
/// splits them into separate groups, so this golden exercises the sharded
/// engine's per-group trace buffers and the `(time, seq)` merge rather
/// than the single-group pass-through.
#[test]
fn golden_decoupled_clusters() {
    let (name, cfg, seed, plan) = golden_scenarios().swap_remove(3);
    let trace = capture(&cfg, Protocol::Rmac, seed, &plan);
    assert_golden(name, &trace);

    // The merge path must really be live: with a tracer attached and two
    // shards this scenario must still decouple into >1 group (the tracer
    // no longer forces the serial fallback) and reproduce the oracle.
    let (lines, tracer) = frame_sink();
    let mut runner =
        ShardedRunner::with_faults(&cfg.clone().with_shards(2), Protocol::Rmac, seed, &plan);
    runner.set_tracer(tracer);
    let (_, stats) = runner.run_with_stats();
    assert!(
        stats.groups > 1,
        "decoupled clusters collapsed to one group (groups={}); \
         the merge path is not being exercised",
        stats.groups
    );
    assert_eq!(
        drain_sink(lines),
        trace,
        "{name}: merged multi-group trace diverged from the oracle"
    );
}

/// The engine's trace contract as a full matrix: every golden scenario
/// replays **byte-stable** under queue ∈ {calendar, heap} × shards ∈
/// {serial, 1, 2, 4, 8}. Traces are compared both against a fresh oracle
/// capture (the live contract) and against the committed golden file (so
/// a simultaneous oracle+variant drift cannot slip through). The serial
/// heap leg pins the calendar scheduler against the binary-heap oracle
/// at frame granularity; multi-group sharded runs buffer trace events
/// per group and merge them in global `(time, seq)` order.
#[test]
fn golden_traces_replay_byte_stable_under_sharding() {
    let regen = std::env::var("RMAC_REGEN_GOLDEN").ok().as_deref() == Some("1");
    for (name, cfg, seed, plan) in golden_scenarios() {
        let oracle = capture(&cfg, Protocol::Rmac, seed, &plan);
        for queue in [QueueKind::Calendar, QueueKind::Heap] {
            let qcfg = cfg.clone().with_queue(queue);
            let serial = capture(&qcfg, Protocol::Rmac, seed, &plan);
            assert_eq!(
                serial,
                oracle,
                "{name}: serial {} trace diverged from the oracle",
                queue.label()
            );
            for shards in [1usize, 2, 4, 8] {
                let sharded = capture_sharded(&qcfg, Protocol::Rmac, seed, &plan, shards);
                assert_eq!(
                    sharded,
                    oracle,
                    "{name}: sharded trace diverged from the oracle \
                     (queue={}, shards={shards})",
                    queue.label()
                );
            }
        }
        if !regen {
            let committed = std::fs::read_to_string(golden_path(name))
                .unwrap_or_else(|e| panic!("missing golden file {name} ({e})"));
            assert_eq!(
                oracle, committed,
                "{name}: capture diverged from the committed golden"
            );
        }
    }
}
