//! The sharded engine's determinism contract (property-based).
//!
//! For any scenario kind, node count, cluster count, source rate, fault
//! plan and seed, running under the sharded conservative-sync engine at
//! 1/2/4/8 shards is **bit-identical** — every `RunReport` field,
//! including the processed event count — to the single-queue oracle.
//! Multi-cluster draws split into several radio components, so the suite
//! exercises the multi-group path as well as the flat route. Same pattern as
//! `tests/grid_equivalence.rs`: the oracle is the brute-force ground
//! truth, the optimised path must be observationally invisible.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rmac::faults::{ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};
use rmac::mobility::{Bounds, Pos};
use rmac::prelude::*;

/// Side of one island's square in a multi-cluster draw (m).
const ISLAND_M: f64 = 60.0;
/// Gap between islands (m); wider than the 75 m radio range.
const ISLAND_GAP_M: f64 = 100.0;

/// Random small-but-live scenarios over all three mobility kinds, on a
/// dense plane so every protocol phase (contention, tones, retries,
/// forwarding) actually fires. With `clusters > 1` the nodes are dealt
/// round-robin onto that many islands out of each other's radio range
/// (node 0, the source, on island 0).
fn any_cfg() -> impl Strategy<Value = ScenarioConfig> {
    (
        (0usize..3, 1usize..4),
        5usize..22,
        50u64..400, // 5..40 pkt/s, scaled by 10
        4u64..16,
        0u64..1_000_000,
    )
        .prop_map(|((scenario, clusters), nodes, rate_x10, packets, layout)| {
            let rate = rate_x10 as f64 / 10.0;
            let mut cfg = match scenario {
                0 => ScenarioConfig::paper_stationary(rate),
                1 => ScenarioConfig::paper_speed1(rate),
                _ => ScenarioConfig::paper_speed2(rate),
            }
            .with_nodes(nodes)
            .with_packets(packets);
            cfg.bounds = Bounds::new(150.0, 120.0);
            if clusters > 1 {
                let pitch = ISLAND_M + ISLAND_GAP_M;
                let mut rng = SimRng::new(layout);
                let positions = (0..nodes)
                    .map(|i| {
                        let x0 = (i % clusters) as f64 * pitch;
                        Pos::new(
                            rng.uniform_f64(x0, x0 + ISLAND_M),
                            rng.uniform_f64(0.0, ISLAND_M),
                        )
                    })
                    .collect();
                cfg = cfg.with_positions(positions);
                cfg.bounds = Bounds::new(clusters as f64 * pitch - ISLAND_GAP_M, 120.0);
            }
            cfg
        })
}

/// A fault plan drawing from every class the plane supports (or none).
fn any_plan() -> impl Strategy<Value = FaultPlan> {
    prop_oneof![
        Just(FaultPlan::none()),
        (0u16..8, 500u64..2_000, 500u64..2_000).prop_map(|(node, at_ms, for_ms)| {
            FaultPlan::none().with_churn(ChurnSpec {
                node,
                kind: ChurnKind::Crash,
                at_ms,
                for_ms,
            })
        }),
        (0.0..150.0f64, 0.0..120.0f64, 0usize..2, 500u64..1_500).prop_map(
            |(x, y, target, start_ms)| {
                FaultPlan::none().with_jammer(JammerSpec {
                    x,
                    y,
                    target: if target == 0 {
                        JamTarget::Rbt
                    } else {
                        JamTarget::Data
                    },
                    start_ms,
                    period_ms: 300,
                    burst_ms: 25,
                })
            }
        ),
        (0u16..8, -200.0..200.0f64)
            .prop_map(|(node, ppm)| { FaultPlan::none().with_skew(SkewSpec { node, ppm }) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: sharded (2/4/8) ≡ single-shard ≡ oracle,
    /// field for field, under random scenarios and fault plans. The
    /// oracle side carries the conformance checker so every generated
    /// case is also invariant-clean.
    #[test]
    fn sharded_replication_is_bit_identical(
        cfg in any_cfg(),
        plan in any_plan(),
        seed in 0u64..10_000,
    ) {
        let oracle = run_replication_with_faults(
            &cfg.clone().with_check(),
            Protocol::Rmac,
            seed,
            &plan,
        );
        for shards in [1usize, 2, 4, 8] {
            let sharded = run_replication_sharded_with_faults(
                &cfg.clone().with_shards(shards),
                Protocol::Rmac,
                seed,
                &plan,
            );
            // RunReport equality covers every field, including the
            // processed-event count (`events`).
            prop_assert_eq!(&sharded, &oracle, "shards={}", shards);
            prop_assert_eq!(sharded.events, oracle.events, "event count, shards={}", shards);
        }
    }

    /// The baseline protocols ride the same engine: spot-check BMW-like
    /// contention under sharding too.
    #[test]
    fn sharded_baseline_is_bit_identical(
        nodes in 5usize..18,
        packets in 4u64..12,
        seed in 0u64..10_000,
    ) {
        let mut cfg = ScenarioConfig::paper_stationary(10.0)
            .with_nodes(nodes)
            .with_packets(packets);
        cfg.bounds = Bounds::new(150.0, 120.0);
        let oracle = run_replication(&cfg, Protocol::Bmmm, seed);
        for shards in [2usize, 8] {
            let sharded = run_replication_sharded(
                &cfg.clone().with_shards(shards),
                Protocol::Bmmm,
                seed,
            );
            prop_assert_eq!(&sharded, &oracle, "shards={}", shards);
        }
    }

    /// The checked entry point merges per-group conformance reports; the
    /// merged gate counters must match the oracle checker's exactly.
    #[test]
    fn sharded_check_gates_match_oracle(
        cfg in any_cfg(),
        seed in 0u64..10_000,
    ) {
        let (oracle_report, oracle_check) =
            run_replication_checked(&cfg, Protocol::Rmac, seed, &FaultPlan::none());
        let (report, check) = run_replication_sharded_checked(
            &cfg.clone().with_shards(4),
            Protocol::Rmac,
            seed,
            &FaultPlan::none(),
        );
        prop_assert_eq!(&report, &oracle_report);
        prop_assert!(check.is_clean());
        prop_assert_eq!(check.tx_checked, oracle_check.tx_checked);
        prop_assert_eq!(check.rx_ok_checked, oracle_check.rx_ok_checked);
        prop_assert_eq!(check.tone_emissions, oracle_check.tone_emissions);
        prop_assert_eq!(check.transition_nodes, oracle_check.transition_nodes);
    }
}

/// The cluster axis is live: replaying the draws of
/// `sharded_replication_is_bit_identical`, some cases run as more than one
/// shard group, so the proptest above covers the multi-group merge and not
/// only the flat route.
#[test]
fn equivalence_suite_reaches_multi_group_runs() {
    let (cfg, plan) = (any_cfg(), any_plan());
    let multi = (0..24u32)
        .filter(|&case| {
            let mut rng = TestRng::for_case(
                concat!(module_path!(), "::sharded_replication_is_bit_identical"),
                case,
            );
            let cfg = cfg.generate(&mut rng);
            let plan = plan.generate(&mut rng);
            let seed = (0u64..10_000).generate(&mut rng);
            let (_, stats) =
                ShardedRunner::with_faults(&cfg.with_shards(4), Protocol::Rmac, seed, &plan)
                    .run_with_stats();
            stats.groups >= 2
        })
        .count();
    assert!(multi > 0, "no drawn case ran more than one shard group");
}

/// A deliberately decoupled layout — two dense clusters far outside radio
/// range — must decompose into parallel groups *and* still match the
/// oracle bit for bit. This is the case where the engine actually runs
/// multi-threaded, so it guards the merge path specifically.
#[test]
fn decoupled_clusters_run_parallel_and_match() {
    let mut positions = Vec::new();
    for i in 0..12 {
        // Cluster A at the left edge, cluster B 900 m to the right (the
        // 75 m radio cannot bridge the gap).
        let (cx, cy) = ((i % 4) as f64 * 30.0, (i / 4) as f64 * 30.0);
        positions.push(Pos::new(cx + 10.0, cy + 10.0));
        positions.push(Pos::new(cx + 910.0, cy + 10.0));
    }
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_nodes(positions.len())
        .with_packets(8)
        .with_positions(positions);
    cfg.bounds = Bounds::new(1_000.0, 100.0);
    let oracle = run_replication(&cfg, Protocol::Rmac, 3);
    let (report, stats) =
        ShardedRunner::new(&cfg.clone().with_shards(4), Protocol::Rmac, 3).run_with_stats();
    assert_eq!(report, oracle);
    assert!(
        stats.groups >= 2,
        "expected radio-isolated clusters to decompose ({} groups)",
        stats.groups
    );
}
