//! The lazy backoff countdown's equivalence contract.
//!
//! A lazy countdown arms one wake-up at its final boundary plus a check at
//! the first boundary after each busy edge, keyed where the per-slot
//! event for that boundary would have sorted (DESIGN.md §12). The
//! per-slot countdown (`ScenarioConfig::with_per_slot_backoff`) is the
//! oracle. For every protocol, mobility kind and fault class this harness
//! holds the lazy engine to:
//!
//! * every `RunReport` field but `events` identical to the oracle's;
//! * a byte-identical JSONL trace;
//! * strictly fewer events.
//!
//! Hand-built cases pin the tie-breaks: two receivers equidistant from
//! one sender (countdowns aligned to the nanosecond), colocated nodes
//! (zero propagation delay), a BMMM NAV set exactly on a boundary, and a
//! frame end exactly on a boundary.

use std::sync::{Arc, Mutex};

use proptest::collection::vec;
use proptest::prelude::*;
use rmac::baselines::Bmmm;
use rmac::engine::Runner;
use rmac::faults::{BurstySpec, ChurnKind, ChurnSpec, JamTarget, JammerSpec, SkewSpec};
use rmac::mac::testkit::Mock;
use rmac::mac::{MacConfig, MacService, Rmac, State, TxRequest};
use rmac::mobility::{Bounds, Pos};
use rmac::phy::Indication;
use rmac::prelude::*;
use rmac::sim::EventKey;
use rmac::wire::consts::SLOT;
use rmac::wire::{Dest, Frame, FrameKind};
use rmac_core::testkit::fuzz::{
    FuzzBackoff, FuzzFaults, FuzzProtocol, FuzzQueue, FuzzScenario, FuzzTopology,
};
use rmac_experiments::fuzz::materialize;

/// Run one replication with a JSONL trace attached.
fn traced(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> (RunReport, Vec<String>) {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    let mut runner = Runner::with_faults(cfg, protocol, seed, plan);
    runner.set_tracer(Box::new(move |e| {
        sink.lock().expect("trace sink").push(e.to_json())
    }));
    let report = runner.run(seed);
    let lines = std::mem::take(&mut *lines.lock().expect("trace sink"));
    (report, lines)
}

/// Run lazy and per-slot, assert the contract, and return both traces'
/// lines (lazy) for case-specific checks.
fn assert_elision_exact(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> Result<Vec<String>, TestCaseError> {
    let (oracle, oracle_trace) = traced(&cfg.clone().with_per_slot_backoff(), protocol, seed, plan);
    let (lazy, lazy_trace) = traced(cfg, protocol, seed, plan);
    prop_assert!(
        lazy.events < oracle.events,
        "{}: events {} not below the per-slot {}",
        protocol.label(),
        lazy.events,
        oracle.events
    );
    let lazy_but_events = RunReport {
        events: oracle.events,
        ..lazy.clone()
    };
    prop_assert_eq!(&lazy_but_events, &oracle, "{}", protocol.label());
    prop_assert_eq!(lazy_trace.len(), oracle_trace.len());
    for (i, (a, b)) in lazy_trace.iter().zip(&oracle_trace).enumerate() {
        prop_assert_eq!(a, b, "trace line {} of {}", i, protocol.label());
    }
    Ok(lazy_trace)
}

const PROTOCOLS: [Protocol; 5] = [
    Protocol::Rmac,
    Protocol::Bmmm,
    Protocol::Bmw,
    Protocol::Lbp,
    Protocol::Mx80211,
];

/// A small dense scenario: `nodes` in a 150 m × 100 m box, so most pairs
/// contend and backoffs suspend often.
fn scenario(mobility: u8, rate: f64, nodes: usize, packets: u64) -> ScenarioConfig {
    let mut cfg = match mobility {
        0 => ScenarioConfig::paper_stationary(rate),
        1 => ScenarioConfig::paper_speed1(rate),
        _ => ScenarioConfig::paper_speed2(rate),
    }
    .with_nodes(nodes)
    .with_packets(packets);
    cfg.bounds = Bounds::new(150.0, 100.0);
    cfg.warmup = SimTime::from_secs(2);
    cfg.drain = SimTime::from_secs(2);
    cfg
}

/// Fault planes over every class: skew (the lattice period moves off
/// 20 µs), crash/deaf churn, data/RBT/ABT jammers, bursty loss.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let skew = vec((0u16..14, -300.0..300.0), 0..4);
    let churn = vec((0u16..14, any::<bool>(), 2000u64..4000, 100u64..1500), 0..3);
    let jam = prop_oneof![Just(None), (0u8..3, 2000u64..3500).prop_map(Some)];
    let bursty = any::<bool>();
    (skew, churn, jam, bursty).prop_map(|(skew, churn, jam, bursty)| {
        let mut plan = FaultPlan::none();
        for (node, ppm) in skew {
            plan = plan.with_skew(SkewSpec { node, ppm });
        }
        for (node, crash, at_ms, for_ms) in churn {
            plan = plan.with_churn(ChurnSpec {
                node,
                kind: if crash {
                    ChurnKind::Crash
                } else {
                    ChurnKind::Deaf
                },
                at_ms,
                for_ms,
            });
        }
        if let Some((target, start_ms)) = jam {
            plan = plan.with_jammer(JammerSpec {
                x: 75.0,
                y: 50.0,
                target: match target {
                    0 => JamTarget::Data,
                    1 => JamTarget::Rbt,
                    _ => JamTarget::Abt,
                },
                start_ms,
                period_ms: 90,
                burst_ms: 7,
            });
        }
        if bursty {
            plan = plan.with_bursty(BurstySpec::moderate());
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every protocol × mobility kind × fault plan: the lazy countdown is
    /// the per-slot one with fewer events.
    #[test]
    fn lazy_backoff_matches_the_per_slot_oracle(
        protocol in 0usize..5,
        mobility in 0u8..3,
        rate in 10.0..80.0,
        nodes in 4usize..=14,
        packets in 4u64..=14,
        plan in plan_strategy(),
        seed in 0u64..10_000,
    ) {
        let cfg = scenario(mobility, rate, nodes, packets);
        assert_elision_exact(&cfg, PROTOCOLS[protocol], seed, &plan)?;
    }
}

/// Two receivers 70 m either side of the source hear its frames end on
/// the same nanosecond, so their forwarding countdowns start together and
/// their lattices align exactly; whenever they draw the same BI both
/// expire on one boundary and the tie-break alone orders them. The line
/// is `D – B – S – A – C`, 70 m apart, so A and B each forward to a child
/// and never hear each other.
#[test]
fn equidistant_receivers_tie_on_aligned_lattices() {
    let positions = vec![
        Pos::new(150.0, 50.0), // S (source)
        Pos::new(220.0, 50.0), // A
        Pos::new(80.0, 50.0),  // B
        Pos::new(290.0, 50.0), // C
        Pos::new(10.0, 50.0),  // D
    ];
    let mut cfg = ScenarioConfig::paper_stationary(25.0)
        .with_positions(positions)
        .with_packets(60);
    cfg.warmup = SimTime::from_secs(2);
    cfg.drain = SimTime::from_secs(2);
    cfg.bounds = Bounds::new(300.0, 100.0);
    // BMMM's reliable exchanges answer S one receiver at a time, so its
    // receivers' countdowns align only when forwarding is unreliable.
    let bmmm_cfg = cfg.clone().with_unreliable_forwarding();
    for (protocol, cfg) in [(Protocol::Rmac, &cfg), (Protocol::Bmmm, &bmmm_cfg)] {
        let mut simultaneous = 0;
        for seed in 1..=3 {
            let trace = assert_elision_exact(cfg, protocol, seed, &FaultPlan::none())
                .unwrap_or_else(|e| panic!("{e}"));
            // TxDone lines of A (node 1) and B (node 2) at the same ns.
            let tx_at = |node: u16| -> Vec<String> {
                let tag = format!("\"node\":{node},");
                trace
                    .iter()
                    .filter(|l| l.contains(&tag) && l.contains("\"ev\":\"tx_done\""))
                    .map(|l| l.split(",\"node\"").next().unwrap_or_default().to_string())
                    .collect()
            };
            let b = tx_at(2);
            simultaneous += tx_at(1).iter().filter(|t| b.contains(t)).count();
        }
        assert!(
            simultaneous > 0,
            "{}: A and B never expired on the same boundary",
            protocol.label()
        );
    }
}

/// Colocated nodes: zero propagation delay, so a transmission starting on
/// a boundary reaches the other node on that same nanosecond, pushed at
/// that instant — after the boundary's own (anchored) event.
#[test]
fn colocated_nodes_match_the_oracle() {
    let positions = vec![
        Pos::new(40.0, 40.0),
        Pos::new(70.0, 40.0),
        Pos::new(70.0, 40.0),
        Pos::new(70.0, 40.0),
        Pos::new(40.0, 70.0),
        Pos::new(40.0, 70.0),
    ];
    let mut cfg = ScenarioConfig::paper_stationary(40.0)
        .with_positions(positions)
        .with_packets(25);
    cfg.warmup = SimTime::from_secs(2);
    cfg.drain = SimTime::from_secs(2);
    cfg.bounds = Bounds::new(100.0, 100.0);
    for protocol in PROTOCOLS {
        for seed in 1..=2 {
            assert_elision_exact(&cfg, protocol, seed, &FaultPlan::none())
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Three two-node islands in two shard groups: the group holding two
/// islands runs them back to back, each from time zero, and the rebuilt
/// final clock (`sim_secs`) must still be the per-slot engine's, so the
/// last non-backoff dispatch time is a maximum across parts, not the
/// last part's clock (`fuzz_scenarios --smoke` case 221, seed 221).
#[test]
fn sharded_islands_keep_the_per_slot_final_clock() {
    let fs = FuzzScenario {
        topology: FuzzTopology::Islands {
            clusters: 3,
            nodes: 2,
            side_m: 66.57889984440597,
        },
        protocol: FuzzProtocol::Rmac,
        rate_pps: 44.01480243028274,
        packets: 28,
        payload: 50,
        faults: FuzzFaults::default(),
        shards: 2,
        queue: FuzzQueue::Heap,
        backoff: FuzzBackoff::Lazy,
    };
    let (cfg, protocol, plan) = materialize(&fs);
    let oracle =
        run_replication_with_faults(&cfg.clone().with_per_slot_backoff(), protocol, 221, &plan);
    let flat = run_replication_with_faults(&cfg, protocol, 221, &plan);
    let sharded = run_replication_sharded_with_faults(&cfg, protocol, 221, &plan);
    assert_eq!(sharded, flat);
    assert_eq!(
        RunReport {
            events: oracle.events,
            ..sharded
        },
        oracle
    );
}

/// An indication at exactly boundary `t`, keyed as pushed at `anchor`:
/// `early` anchors sort before the boundary's own event (a frame end
/// pushed at its frame's start), late ones after it (a push within the
/// last slot).
fn at_boundary(t: SimTime, early: bool) -> EventKey {
    let anchor = if early {
        t - SLOT - SimTime::from_nanos(100)
    } else {
        t - SLOT + SimTime::from_nanos(100)
    };
    EventKey::plain(t, anchor, 1 << 40)
}

/// A BMMM node counting down its DIFS-padded BI (3 slots from 0)
/// overhears an RTS whose NAV is set exactly on boundary 2: if the frame
/// end sorts before that boundary's event, the boundary finds the medium
/// busy and suspends with BI 2; if after, boundary 2 ticks and boundary 3
/// suspends with BI 1. When the NAV lapses the node resumes and sends
/// after the remaining slots; both countdowns agree on both orders.
#[test]
fn bmmm_nav_set_on_a_boundary_orders_like_the_oracle() {
    let nav = SimTime::from_micros(300);
    let sent_at = |early: bool, per_slot: bool| {
        let mut m = Mock::new();
        let cfg = MacConfig {
            per_slot_backoff: per_slot,
            ..MacConfig::default()
        };
        let mut mac = Bmmm::new(NodeId(1), cfg);
        mac.submit(&mut m, broadcast(1));
        assert!(m.actions.is_empty(), "DIFS padding defers the first send");
        m.advance_to(&mut mac, at_boundary(SLOT.mul(2), early));
        let rts = Frame::control(FrameKind::Rts, NodeId(7), NodeId(8), nav);
        m.rx_frame(&mut mac, NodeId(1), rts, true);
        mac.on_indication(&mut m, &Indication::CarrierOff { node: NodeId(1) });
        // The NAV lapses; the node's NAV wake-up resumes contention.
        while m.actions.is_empty() {
            m.fire_earliest(&mut mac);
        }
        m.now
    };
    let nav_end = SLOT.mul(2) + nav + SimTime::NANO;
    for per_slot in [true, false] {
        assert_eq!(sent_at(true, per_slot), nav_end + SLOT.mul(2));
        assert_eq!(sent_at(false, per_slot), nav_end + SLOT.mul(1));
    }
}

/// An RMAC countdown whose carrier goes busy just after boundary 1 and
/// idle again exactly on boundary 2: a frame end pushed at its frame's
/// start (early) clears the channel before boundary 2 looks, so the
/// countdown runs on; one pushed within the last slot (late) leaves the
/// channel busy at boundary 2, which suspends. Both countdowns agree.
#[test]
fn frame_end_on_a_boundary_orders_like_the_oracle() {
    // A seed whose first draw leaves room for a mid-count suspension.
    let seed = (0..100)
        .find(|&s| {
            let mut m = Mock::new();
            m.rng = SimRng::new(s);
            let mut r = Rmac::new(NodeId(0), MacConfig::default());
            m.data_busy = true;
            r.submit(&mut m, broadcast(1));
            r.bi() >= 4
        })
        .expect("a seed drawing BI >= 4");
    for early in [true, false] {
        let mut outcomes = Vec::new();
        for per_slot in [true, false] {
            let mut m = Mock::new();
            m.rng = SimRng::new(seed);
            let cfg = MacConfig {
                per_slot_backoff: per_slot,
                ..MacConfig::default()
            };
            let mut r = Rmac::new(NodeId(0), cfg);
            m.data_busy = true;
            r.submit(&mut m, broadcast(1));
            let bi = r.bi();
            m.data_busy = false;
            r.on_indication(&mut m, &Indication::CarrierOff { node: NodeId(0) });
            assert_eq!(r.state(), State::Backoff);
            let on = SLOT + SimTime::from_nanos(100);
            m.advance_to(
                &mut r,
                EventKey::plain(on, on - SimTime::from_nanos(200), 1 << 40),
            );
            m.data_busy = true;
            r.on_indication(&mut m, &Indication::CarrierOn { node: NodeId(0) });
            m.advance_to(&mut r, at_boundary(SLOT.mul(2), early));
            m.data_busy = false;
            r.on_indication(&mut m, &Indication::CarrierOff { node: NodeId(0) });
            let state_after = r.state();
            while r.state() == State::Backoff {
                m.fire_earliest(&mut r);
            }
            outcomes.push((state_after, r.state(), m.now, r.bi(), bi));
        }
        assert_eq!(outcomes[0], outcomes[1], "early = {early}");
        let (state_after, state, now, _, bi) = outcomes[0];
        if early {
            // The countdown never noticed the frame.
            assert_eq!(
                (state_after, state, now),
                (State::Backoff, State::TxUnrdata, SLOT.mul(bi))
            );
        } else {
            // Boundary 2 suspended it; the CarrierOff restarted it at once
            // with the one ticked slot charged.
            assert_eq!(state_after, State::Backoff);
            assert_eq!(
                (state, now),
                (State::TxUnrdata, SLOT.mul(2) + SLOT.mul(bi - 1))
            );
        }
    }
}

fn broadcast(token: u64) -> TxRequest {
    TxRequest {
        reliable: false,
        dest: Dest::Broadcast,
        payload: Default::default(),
        token,
    }
}
