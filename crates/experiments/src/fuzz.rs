//! The scenario-fuzzing harness: materialize randomized
//! [`FuzzScenario`]s, run them under the conformance checker, and shrink
//! any violator to a minimal reproducer.
//!
//! The generation vocabulary lives in `rmac_core::testkit::fuzz` (it is
//! engine-free on purpose); this module owns the conversion into real
//! `ScenarioConfig` + `FaultPlan` pairs, the checked execution (panics in
//! the stack are caught and treated as findings, not crashes of the
//! fuzzer), and a greedy delta-debugging shrinker — the vendored proptest
//! shim has no value trees, so minimization is explicit: drop faults one
//! at a time, halve traffic, pop nodes, and keep any reduction that still
//! reproduces the same invariant failure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rmac_core::testkit::fuzz::{FuzzProtocol, FuzzQueue, FuzzScenario, FuzzTopology};
use rmac_engine::{
    run_replication_checked, run_replication_sharded_checked, CheckReport, Protocol, QueueKind,
    ScenarioConfig,
};
use rmac_faults::{BurstySpec, ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};
use rmac_mobility::{Bounds, Pos};
use rmac_sim::{SimRng, SimTime};

/// Gap between adjacent [`FuzzTopology::Islands`] copies (m); wider than
/// the 75 m radio range, so islands never couple.
const ISLAND_GAP_M: f64 = 100.0;

/// What one checked replication of a fuzz case produced.
#[derive(Debug)]
pub enum CaseOutcome {
    /// Every invariant held.
    Clean,
    /// The checker recorded violations.
    Violations(CheckReport),
    /// The stack itself panicked (an engine/MAC bug, also a finding).
    Panicked(String),
    /// The sharded engine's report diverged from the single-queue oracle
    /// — a conservative-sync ordering bug, the fuzzer's rarest and most
    /// valuable catch.
    ShardDivergence { shards: usize },
    /// The serial calendar-queue engine's report diverged from the serial
    /// binary-heap oracle — a scheduler ordering bug in the calendar
    /// queue itself.
    QueueDivergence { queue: &'static str },
}

impl CaseOutcome {
    /// Stable signature used to decide whether a shrunk case still
    /// reproduces "the same" failure: the first violated invariant's id,
    /// or `"PANIC"`. `None` when clean.
    pub fn signature(&self) -> Option<String> {
        match self {
            CaseOutcome::Clean => None,
            CaseOutcome::Violations(r) => {
                r.violations.first().map(|v| v.invariant.id().to_string())
            }
            CaseOutcome::Panicked(_) => Some("PANIC".to_string()),
            CaseOutcome::ShardDivergence { .. } => Some("SHARD_DIVERGENCE".to_string()),
            CaseOutcome::QueueDivergence { .. } => Some("QUEUE_DIVERGENCE".to_string()),
        }
    }

    /// Human-readable failure description.
    pub fn describe(&self) -> String {
        match self {
            CaseOutcome::Clean => "clean".to_string(),
            CaseOutcome::Violations(r) => r.summary(),
            CaseOutcome::Panicked(msg) => format!("panic: {msg}"),
            CaseOutcome::ShardDivergence { shards } => {
                format!("sharded report (shards={shards}) diverged from the single-queue oracle")
            }
            CaseOutcome::QueueDivergence { queue } => {
                format!("serial {queue}-queue report diverged from the binary-heap oracle")
            }
        }
    }
}

/// Convert the engine-free scenario description into a runnable config.
/// Warmup/drain are shortened from the paper defaults so one fuzz case
/// simulates in a fraction of a second.
pub fn materialize(fs: &FuzzScenario) -> (ScenarioConfig, Protocol, FaultPlan) {
    let mut cfg = match fs.topology {
        FuzzTopology::Chain { hops, spacing_m } => {
            let positions: Vec<Pos> = (0..=hops)
                .map(|i| Pos::new(i as f64 * spacing_m, 0.0))
                .collect();
            ScenarioConfig::paper_stationary(fs.rate_pps).with_positions(positions)
        }
        FuzzTopology::Cluster { nodes, side_m } => {
            let mut c = ScenarioConfig::paper_stationary(fs.rate_pps).with_nodes(nodes);
            c.bounds = Bounds::new(side_m, side_m);
            c
        }
        FuzzTopology::Islands {
            clusters,
            nodes,
            side_m,
        } => {
            // One cluster placed from a stream fixed by its shape, then
            // translated copies `ISLAND_GAP_M` apart (island-major node
            // numbering, so the source sits in island 0).
            let mut rng = SimRng::new(side_m.to_bits() ^ nodes as u64).split(11);
            let base: Vec<(f64, f64)> = (0..nodes)
                .map(|_| (rng.uniform_f64(0.0, side_m), rng.uniform_f64(0.0, side_m)))
                .collect();
            let pitch = side_m + ISLAND_GAP_M;
            let positions = (0..clusters)
                .flat_map(|k| {
                    base.iter()
                        .map(move |&(x, y)| Pos::new(x + k as f64 * pitch, y))
                })
                .collect();
            let mut c = ScenarioConfig::paper_stationary(fs.rate_pps).with_positions(positions);
            c.bounds = Bounds::new(clusters as f64 * pitch - ISLAND_GAP_M, side_m);
            c
        }
    };
    cfg.name = format!("fuzz-{}", fs.label());
    cfg.packets = fs.packets;
    cfg.payload = fs.payload;
    cfg.warmup = SimTime::from_secs(2);
    cfg.drain = SimTime::from_secs(3);
    cfg.shards = fs.shards.max(1);
    cfg.queue = match fs.queue {
        FuzzQueue::Heap => QueueKind::Heap,
        FuzzQueue::Calendar => QueueKind::Calendar,
    };

    let nodes = fs.nodes() as u16;
    let jam_pos = match fs.topology {
        FuzzTopology::Chain { hops, spacing_m } => (hops as f64 * spacing_m / 2.0, 0.0),
        FuzzTopology::Cluster { side_m, .. } | FuzzTopology::Islands { side_m, .. } => {
            (side_m / 2.0, side_m / 2.0)
        }
    };
    let plan = FaultPlan {
        salt: 0,
        bursty: fs
            .faults
            .bursty
            .map(|(mean_good_ms, mean_bad_ms, loss_bad)| BurstySpec {
                mean_good_ms,
                mean_bad_ms,
                loss_good: 0.0,
                loss_bad,
            }),
        churn: fs
            .faults
            .churn
            .iter()
            .map(|c| ChurnSpec {
                node: u16::from(c.node) % nodes,
                kind: ChurnKind::Crash,
                at_ms: c.at_ms,
                for_ms: c.for_ms,
            })
            .collect(),
        jammers: fs
            .faults
            .jam
            .iter()
            .map(|j| JammerSpec {
                x: jam_pos.0,
                y: jam_pos.1,
                target: match j.target {
                    0 => JamTarget::Data,
                    1 => JamTarget::Rbt,
                    _ => JamTarget::Abt,
                },
                start_ms: j.start_ms,
                // The engine merges overlapping tone bursts; keep a gap.
                period_ms: j.period_ms.max(j.burst_ms + 20),
                burst_ms: j.burst_ms,
            })
            .collect(),
        skew: fs
            .faults
            .skew
            .iter()
            .map(|&(node, ppm)| SkewSpec {
                node: u16::from(node) % nodes,
                ppm,
            })
            .collect(),
    };
    let protocol = match fs.protocol {
        FuzzProtocol::Rmac => Protocol::Rmac,
        FuzzProtocol::Bmmm => Protocol::Bmmm,
        FuzzProtocol::RmacSkipRbtSense => Protocol::RmacSkipRbtSense,
    };
    (cfg, protocol, plan)
}

/// Run one fuzz case under the conformance checker — through the
/// single-queue oracle *and* the sharded engine at the case's shard
/// count, with the C1–C5 invariants checked on every shard group. Panics
/// anywhere in the stack become [`CaseOutcome::Panicked`] findings; a
/// sharded/oracle report mismatch becomes a
/// [`CaseOutcome::ShardDivergence`] finding.
pub fn run_case(fs: &FuzzScenario, seed: u64) -> CaseOutcome {
    let (cfg, protocol, plan) = materialize(fs);
    let result = catch_unwind(AssertUnwindSafe(|| {
        // The serial binary-heap run is always the ground truth. When the
        // case drew the calendar queue, a second serial run exercises it
        // differentially; for heap cases that run would be the oracle
        // again, so it is skipped.
        let oracle = run_replication_checked(&cfg.clone().with_heap_queue(), protocol, seed, &plan);
        let case_queue = (cfg.queue != QueueKind::Heap)
            .then(|| run_replication_checked(&cfg, protocol, seed, &plan));
        let sharded = run_replication_sharded_checked(&cfg, protocol, seed, &plan);
        (oracle, case_queue, sharded)
    }));
    match result {
        Ok(((oracle_report, check), case_queue, (sharded_report, sharded_check))) => {
            if !check.is_clean() {
                return CaseOutcome::Violations(check);
            }
            if let Some((queue_report, queue_check)) = case_queue {
                if !queue_check.is_clean() {
                    return CaseOutcome::Violations(queue_check);
                }
                if queue_report != oracle_report {
                    return CaseOutcome::QueueDivergence {
                        queue: cfg.queue.label(),
                    };
                }
            }
            if !sharded_check.is_clean() {
                CaseOutcome::Violations(sharded_check)
            } else if sharded_report != oracle_report {
                CaseOutcome::ShardDivergence { shards: cfg.shards }
            } else {
                CaseOutcome::Clean
            }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            CaseOutcome::Panicked(msg)
        }
    }
}

/// Candidate reductions of `fs`, most aggressive structural cuts last so
/// the cheap fault-dropping passes run first.
fn reductions(fs: &FuzzScenario) -> Vec<FuzzScenario> {
    let mut out = Vec::new();
    for i in 0..fs.faults.churn.len() {
        let mut c = fs.clone();
        c.faults.churn.remove(i);
        out.push(c);
    }
    for i in 0..fs.faults.skew.len() {
        let mut c = fs.clone();
        c.faults.skew.remove(i);
        out.push(c);
    }
    if fs.faults.jam.is_some() {
        let mut c = fs.clone();
        c.faults.jam = None;
        out.push(c);
    }
    if fs.faults.bursty.is_some() {
        let mut c = fs.clone();
        c.faults.bursty = None;
        out.push(c);
    }
    if fs.packets > 3 {
        let mut c = fs.clone();
        c.packets = (fs.packets / 2).max(3);
        out.push(c);
    }
    match fs.topology {
        FuzzTopology::Chain { hops, spacing_m } if hops > 1 => {
            let mut c = fs.clone();
            c.topology = FuzzTopology::Chain {
                hops: hops - 1,
                spacing_m,
            };
            out.push(c);
        }
        FuzzTopology::Cluster { nodes, side_m } if nodes > 2 => {
            let mut c = fs.clone();
            c.topology = FuzzTopology::Cluster {
                nodes: nodes - 1,
                side_m,
            };
            out.push(c);
        }
        FuzzTopology::Islands {
            clusters,
            nodes,
            side_m,
        } => {
            if clusters > 2 {
                let mut c = fs.clone();
                c.topology = FuzzTopology::Islands {
                    clusters: clusters - 1,
                    nodes,
                    side_m,
                };
                out.push(c);
            }
            if nodes > 1 {
                let mut c = fs.clone();
                c.topology = FuzzTopology::Islands {
                    clusters,
                    nodes: nodes - 1,
                    side_m,
                };
                out.push(c);
            }
        }
        _ => {}
    }
    if fs.payload > 50 {
        let mut c = fs.clone();
        c.payload = 50;
        out.push(c);
    }
    // Halve the shard count so reproducers carry the smallest partition
    // that still fails (a SHARD_DIVERGENCE at shards=2 is a far tighter
    // repro than one at shards=8).
    if fs.shards > 1 {
        let mut c = fs.clone();
        c.shards /= 2;
        out.push(c);
    }
    // Try the heap oracle queue: if the failure survives, it is not a
    // calendar-scheduler artifact and the repro is simpler to replay. A
    // QUEUE_DIVERGENCE never survives this cut (the heap run *is* the
    // oracle), which is exactly the disambiguation we want recorded.
    if fs.queue == FuzzQueue::Calendar {
        let mut c = fs.clone();
        c.queue = FuzzQueue::Heap;
        out.push(c);
    }
    out
}

/// Greedy delta-debugging: repeatedly try the reductions of the current
/// scenario, keeping any that still fails with `signature`, until a full
/// pass makes no progress or `budget` replications are spent. Returns the
/// minimized scenario and the replications used.
pub fn shrink(
    fs: &FuzzScenario,
    seed: u64,
    signature: &str,
    budget: usize,
) -> (FuzzScenario, usize) {
    let mut cur = fs.clone();
    let mut spent = 0;
    'outer: loop {
        for candidate in reductions(&cur) {
            if spent >= budget {
                break 'outer;
            }
            spent += 1;
            if run_case(&candidate, seed).signature().as_deref() == Some(signature) {
                cur = candidate;
                continue 'outer;
            }
        }
        break;
    }
    (cur, spent)
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serialize a minimized failing case to JSON (reproducer artifact). The
/// file carries both the primitive scenario and the materialized fault
/// plan so a human can replay it without the fuzzer.
pub fn repro_json(fs: &FuzzScenario, seed: u64, signature: &str, detail: &str) -> String {
    let topo = match fs.topology {
        FuzzTopology::Chain { hops, spacing_m } => {
            format!(r#"{{"kind":"chain","hops":{hops},"spacing_m":{spacing_m}}}"#)
        }
        FuzzTopology::Cluster { nodes, side_m } => {
            format!(r#"{{"kind":"cluster","nodes":{nodes},"side_m":{side_m}}}"#)
        }
        FuzzTopology::Islands {
            clusters,
            nodes,
            side_m,
        } => format!(
            r#"{{"kind":"islands","clusters":{clusters},"nodes":{nodes},"side_m":{side_m}}}"#
        ),
    };
    let (_, _, plan) = materialize(fs);
    format!(
        concat!(
            "{{\n",
            "  \"signature\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"label\": \"{}\",\n",
            "  \"protocol\": \"{:?}\",\n",
            "  \"topology\": {},\n",
            "  \"rate_pps\": {},\n",
            "  \"packets\": {},\n",
            "  \"payload\": {},\n",
            "  \"shards\": {},\n",
            "  \"queue\": \"{}\",\n",
            "  \"fault_plan\": {},\n",
            "  \"detail\": \"{}\"\n",
            "}}\n"
        ),
        json_escape(signature),
        seed,
        json_escape(&fs.label()),
        fs.protocol,
        topo,
        fs.rate_pps,
        fs.packets,
        fs.payload,
        fs.shards,
        match fs.queue {
            FuzzQueue::Heap => "heap",
            FuzzQueue::Calendar => "calendar",
        },
        plan.to_json(),
        json_escape(detail),
    )
}

/// Write the reproducer under `dir` (created if needed), named by case
/// index and signature. Returns the path.
pub fn write_repro(
    dir: &Path,
    case: u32,
    fs: &FuzzScenario,
    seed: u64,
    signature: &str,
    detail: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("case{case:04}_{signature}.json"));
    std::fs::write(&path, repro_json(fs, seed, signature, detail))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::Strategy;
    use proptest::test_runner::TestRng;
    use rmac_core::testkit::fuzz::{scenario_strategy, FuzzFaults};

    fn mutant_cluster() -> FuzzScenario {
        mutant_cluster_on(FuzzQueue::Calendar)
    }

    fn mutant_cluster_on(queue: FuzzQueue) -> FuzzScenario {
        FuzzScenario {
            topology: FuzzTopology::Cluster {
                nodes: 7,
                side_m: 80.0,
            },
            protocol: FuzzProtocol::RmacSkipRbtSense,
            rate_pps: 20.0,
            packets: 24,
            payload: 300,
            faults: FuzzFaults {
                bursty: Some((300.0, 300.0, 0.9)),
                churn: vec![],
                jam: None,
                skew: vec![(1, 80.0)],
            },
            shards: 2,
            queue,
        }
    }

    /// The mutant fails with C1 and the shrinker brings the reproducer
    /// down to ≤ 5 nodes while preserving the signature (the ISSUE's
    /// shrinker acceptance bar).
    #[test]
    fn shrinker_minimizes_the_mutant_to_five_nodes_or_fewer() {
        let fs = mutant_cluster();
        let outcome = run_case(&fs, 3);
        let sig = outcome.signature().expect("mutant must violate");
        assert_eq!(sig, "C1", "{}", outcome.describe());
        let (small, spent) = shrink(&fs, 3, &sig, 60);
        assert!(spent > 0);
        assert!(
            small.nodes() <= 5,
            "shrunk only to {} nodes: {:?}",
            small.nodes(),
            small
        );
        assert!(small.packets <= fs.packets);
        // Still reproduces after minimization.
        assert_eq!(run_case(&small, 3).signature().as_deref(), Some("C1"));
    }

    /// Randomly drawn conformant-protocol cases come back clean (a small
    /// fixed budget of the same cases the CI smoke runs).
    #[test]
    fn sampled_cases_are_clean_for_conformant_protocols() {
        let strat = scenario_strategy();
        for case in 0..6u32 {
            let fs = strat.generate(&mut TestRng::for_case("fuzz_scenarios", case));
            let outcome = run_case(&fs, u64::from(case));
            assert!(
                outcome.signature().is_none(),
                "case {case} ({}): {}",
                fs.label(),
                outcome.describe()
            );
        }
    }

    /// The queue axis is a real behavioral knob, not a label: the C1
    /// mutant violates identically under both queue implementations, and
    /// the drawn queue is preserved through shrinking unless dropping it
    /// keeps the failure alive.
    #[test]
    fn mutant_fails_the_same_way_under_both_queues() {
        for queue in [FuzzQueue::Heap, FuzzQueue::Calendar] {
            let fs = mutant_cluster_on(queue);
            let outcome = run_case(&fs, 3);
            assert_eq!(
                outcome.signature().as_deref(),
                Some("C1"),
                "queue {queue:?}: {}",
                outcome.describe()
            );
        }
    }

    /// Islands are the fuzzer's multi-group cases: the sharded run packs
    /// their components into more than one group (so a SHARD_DIVERGENCE
    /// is a live finding class, not a vacuous one) and still matches the
    /// oracle.
    #[test]
    fn islands_exercise_the_multi_group_path() {
        let fs = FuzzScenario {
            topology: FuzzTopology::Islands {
                clusters: 3,
                nodes: 3,
                side_m: 40.0,
            },
            protocol: FuzzProtocol::Rmac,
            rate_pps: 20.0,
            packets: 6,
            payload: 200,
            faults: FuzzFaults::default(),
            shards: 2,
            queue: FuzzQueue::Calendar,
        };
        let (cfg, protocol, plan) = materialize(&fs);
        assert_eq!(cfg.nodes, 9);
        let (report, stats) =
            rmac_engine::ShardedRunner::with_faults(&cfg, protocol, 5, &plan).run_with_stats();
        assert_eq!(stats.groups, 2, "three islands into two groups");
        assert_eq!(report, rmac_engine::run_replication(&cfg, protocol, 5));
        assert!(run_case(&fs, 5).signature().is_none());
        assert!(repro_json(&fs, 5, "C1", "").contains("\"islands\""));
    }

    #[test]
    fn repro_json_is_well_formed_enough() {
        let fs = mutant_cluster();
        let json = repro_json(&fs, 3, "C1", "minimal reproducer");
        assert!(json.contains("\"signature\": \"C1\""));
        assert!(json.contains("\"cluster\""));
        assert!(json.contains("\"queue\": \"calendar\""));
        assert!(json.contains("\"fault_plan\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
