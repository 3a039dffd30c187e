//! Scenario-fuzzing vocabulary: engine-free descriptions of randomized
//! topologies, traffic and fault plans, plus the proptest strategies that
//! draw them.
//!
//! The types here deliberately use only primitives (no `ScenarioConfig`,
//! no `FaultPlan`) so they can live next to the MAC they exercise without
//! dragging the engine into `rmac-core`'s dependency graph; the
//! `rmac-experiments` fuzz harness converts them into real configs, runs
//! them under the conformance checker, and shrinks any violator back down
//! through these same structures.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Union;

/// Node placement for one fuzz case.
#[derive(Clone, Debug, PartialEq)]
pub enum FuzzTopology {
    /// A straight multihop chain: `hops + 1` nodes, `spacing_m` apart —
    /// hidden terminals at every hop.
    Chain { hops: usize, spacing_m: f64 },
    /// A dense square cluster: `nodes` random positions in a
    /// `side_m × side_m` box — contention and fan-out stress.
    Cluster { nodes: usize, side_m: f64 },
    /// `clusters` translated copies of one random `nodes`-node cluster
    /// in a `side_m × side_m` box, spaced beyond radio range: several
    /// radio components whose mirrored events land on the same
    /// nanoseconds — the sharded engine's multi-group path.
    Islands {
        clusters: usize,
        nodes: usize,
        side_m: f64,
    },
}

impl FuzzTopology {
    /// Number of protocol nodes this topology produces.
    pub fn nodes(&self) -> usize {
        match *self {
            FuzzTopology::Chain { hops, .. } => hops + 1,
            FuzzTopology::Cluster { nodes, .. } => nodes,
            FuzzTopology::Islands {
                clusters, nodes, ..
            } => clusters * nodes,
        }
    }
}

/// Which MAC family the case runs (mirrors the engine's `Protocol` without
/// depending on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzProtocol {
    /// RMAC, the paper's contribution.
    Rmac,
    /// The BMMM baseline.
    Bmmm,
    /// The deliberately broken C1 mutant. Never drawn by
    /// [`scenario_strategy`] — it exists so the shrinker has a reliably
    /// violating MAC to minimize against in its own tests.
    RmacSkipRbtSense,
}

/// Which event-queue implementation drives the case's engines (mirrors
/// the engine's `QueueKind` without depending on it). Every case also
/// runs the serial binary-heap oracle, so drawing `Calendar` turns the
/// case into a differential test of the calendar scheduler: a report
/// mismatch between the two queues is its own finding class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzQueue {
    /// The binary-heap `EventQueue` oracle.
    Heap,
    /// The calendar/ladder `CalendarQueue` (the engine default).
    Calendar,
}

/// One crash/restart window (node index, start ms, duration ms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzChurn {
    /// Index of the crashed node (taken modulo the population).
    pub node: u8,
    /// Crash time, milliseconds of simulation time.
    pub at_ms: u64,
    /// Outage length in milliseconds.
    pub for_ms: u64,
}

/// One jammer (channel 0 = data, 1 = RBT, 2 = ABT).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzJam {
    /// Attacked channel: 0 data, 1 RBT, 2 ABT.
    pub target: u8,
    /// First burst, ms.
    pub start_ms: u64,
    /// Burst cadence, ms (clamped above the burst length on conversion).
    pub period_ms: u64,
    /// Burst length, ms.
    pub burst_ms: u64,
}

/// Fault plane of one fuzz case, in primitives.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuzzFaults {
    /// Gilbert–Elliott bursty loss: (mean good ms, mean bad ms, loss-bad).
    pub bursty: Option<(f64, f64, f64)>,
    /// Crash/restart windows.
    pub churn: Vec<FuzzChurn>,
    /// At most one jammer (tones or data noise).
    pub jam: Option<FuzzJam>,
    /// Per-node clock skew in ppm (node index modulo population).
    pub skew: Vec<(u8, f64)>,
}

impl FuzzFaults {
    /// No faults at all.
    pub fn is_empty(&self) -> bool {
        self.bursty.is_none() && self.churn.is_empty() && self.jam.is_none() && self.skew.is_empty()
    }
}

/// A complete randomized scenario: everything the fuzz harness needs to
/// assemble and run one checked replication.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzScenario {
    /// Node placement.
    pub topology: FuzzTopology,
    /// Protocol under test.
    pub protocol: FuzzProtocol,
    /// Source rate, packets/second.
    pub rate_pps: f64,
    /// Packets the source generates.
    pub packets: u64,
    /// Application payload bytes.
    pub payload: usize,
    /// Fault plane.
    pub faults: FuzzFaults,
    /// Shard count for the sharded conservative-sync engine. Every case
    /// runs both the single-queue oracle and the sharded engine at this
    /// count; a report divergence is itself a finding.
    pub shards: usize,
    /// Event-queue implementation for the case's engines. Every case is
    /// also run against the serial heap oracle; a queue-kind report
    /// divergence is itself a finding.
    pub queue: FuzzQueue,
}

impl FuzzScenario {
    /// Protocol population of the case.
    pub fn nodes(&self) -> usize {
        self.topology.nodes()
    }

    /// One-line label for logs and reproducer files.
    pub fn label(&self) -> String {
        let topo = match self.topology {
            FuzzTopology::Chain { hops, spacing_m } => {
                format!("chain{}x{:.0}m", hops, spacing_m)
            }
            FuzzTopology::Cluster { nodes, side_m } => {
                format!("cluster{}in{:.0}m", nodes, side_m)
            }
            FuzzTopology::Islands {
                clusters,
                nodes,
                side_m,
            } => format!("islands{}x{}in{:.0}m", clusters, nodes, side_m),
        };
        format!(
            "{topo}-{:?}-{:.0}pps-{}pkt-{}B-s{}{}{}",
            self.protocol,
            self.rate_pps,
            self.packets,
            self.payload,
            self.shards,
            // The calendar queue is the engine default; only the heap
            // oracle gets a tag so pre-existing labels stay stable.
            match self.queue {
                FuzzQueue::Calendar => "",
                FuzzQueue::Heap => "-heap",
            },
            if self.faults.is_empty() {
                ""
            } else {
                "-faulty"
            }
        )
    }
}

/// Strategy over topologies: chains up to 5 hops (spacing inside, at, or
/// slightly past radio range), clusters up to 7 nodes, and 2–4 islands
/// of 2–3 nodes each.
pub fn topology_strategy() -> impl Strategy<Value = FuzzTopology> {
    prop_oneof![
        (1usize..=5, 40.0..80.0)
            .prop_map(|(hops, spacing_m)| FuzzTopology::Chain { hops, spacing_m }),
        (2usize..=7, 40.0..120.0)
            .prop_map(|(nodes, side_m)| FuzzTopology::Cluster { nodes, side_m }),
        (2usize..=4, 2usize..=3, 30.0..70.0).prop_map(|(clusters, nodes, side_m)| {
            FuzzTopology::Islands {
                clusters,
                nodes,
                side_m,
            }
        }),
    ]
}

/// Strategy over fault planes; roughly half the draws are fault-free so
/// the fuzzer keeps covering the benign path too.
pub fn faults_strategy() -> impl Strategy<Value = FuzzFaults> {
    let bursty = prop_oneof![
        Just(None),
        (100.0..2000.0, 50.0..800.0, 0.3..0.95).prop_map(Some),
    ];
    let churn = vec(
        (0u8..8, 1500u64..7000, 200u64..2500).prop_map(|(node, at_ms, for_ms)| FuzzChurn {
            node,
            at_ms,
            for_ms,
        }),
        0..3,
    );
    let jam = prop_oneof![
        Just(None),
        (0u8..3, 1500u64..6000, 150u64..600, 10u64..80).prop_map(
            |(target, start_ms, period_ms, burst_ms)| Some(FuzzJam {
                target,
                start_ms,
                period_ms,
                burst_ms,
            })
        ),
    ];
    let skew = vec((0u8..8, -250.0..250.0), 0..3);
    (bursty, churn, jam, skew).prop_map(|(bursty, churn, jam, skew)| FuzzFaults {
        bursty,
        churn,
        jam,
        skew,
    })
}

/// The full scenario strategy: randomized topology, protocol, traffic and
/// fault plane, sized so one case simulates in well under a second.
pub fn scenario_strategy() -> impl Strategy<Value = FuzzScenario> {
    let protocol = Union::new(vec![
        proptest::strategy::boxed(Just(FuzzProtocol::Rmac)),
        proptest::strategy::boxed(Just(FuzzProtocol::Bmmm)),
    ]);
    let shards = prop_oneof![Just(1usize), Just(2), Just(4), Just(8)];
    let queue = prop_oneof![Just(FuzzQueue::Calendar), Just(FuzzQueue::Heap)];
    (
        topology_strategy(),
        protocol,
        5.0..60.0,
        (3u64..=30, 50usize..=500),
        (faults_strategy(), shards, queue),
    )
        .prop_map(
            |(topology, protocol, rate_pps, (packets, payload), (faults, shards, queue))| {
                FuzzScenario {
                    topology,
                    protocol,
                    rate_pps,
                    packets,
                    payload,
                    faults,
                    shards,
                    queue,
                }
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn strategies_draw_in_bounds() {
        let strat = scenario_strategy();
        let mut rng = TestRng::for_case("fuzz_strategy_bounds", 0);
        for _ in 0..200 {
            let s = strat.generate(&mut rng);
            assert!((2..=12).contains(&s.nodes()), "{:?}", s.topology);
            assert!(s.rate_pps >= 5.0 && s.rate_pps < 60.0);
            assert!((3..=30).contains(&s.packets));
            assert!((50..=500).contains(&s.payload));
            assert!(s.faults.churn.len() < 3);
            if let Some(j) = s.faults.jam {
                assert!(j.target < 3);
                assert!(j.burst_ms < j.period_ms, "burst fits inside period");
            }
            assert!(matches!(s.shards, 1 | 2 | 4 | 8));
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn draws_are_deterministic_per_case() {
        let strat = scenario_strategy();
        let a = strat.generate(&mut TestRng::for_case("det", 7));
        let b = strat.generate(&mut TestRng::for_case("det", 7));
        assert_eq!(a, b);
        let c = strat.generate(&mut TestRng::for_case("det", 8));
        assert_ne!(a, c, "different cases draw different scenarios");
    }

    #[test]
    fn both_fault_classes_and_protocols_appear() {
        let strat = scenario_strategy();
        let mut rng = TestRng::for_case("fuzz_strategy_coverage", 1);
        let draws: Vec<FuzzScenario> = (0..300).map(|_| strat.generate(&mut rng)).collect();
        assert!(draws.iter().any(|s| s.protocol == FuzzProtocol::Rmac));
        assert!(draws.iter().any(|s| s.protocol == FuzzProtocol::Bmmm));
        assert!(draws.iter().any(|s| s.faults.is_empty()));
        assert!(draws.iter().any(|s| !s.faults.churn.is_empty()));
        assert!(draws.iter().any(|s| s.faults.jam.is_some()));
        assert!(draws
            .iter()
            .any(|s| matches!(s.topology, FuzzTopology::Chain { .. })));
        assert!(draws
            .iter()
            .any(|s| matches!(s.topology, FuzzTopology::Cluster { .. })));
        assert!(draws
            .iter()
            .any(|s| matches!(s.topology, FuzzTopology::Islands { .. })));
        assert!(draws.iter().any(|s| s.shards == 1));
        assert!(draws.iter().any(|s| s.shards > 1));
        assert!(draws.iter().any(|s| s.queue == FuzzQueue::Heap));
        assert!(draws.iter().any(|s| s.queue == FuzzQueue::Calendar));
    }
}
