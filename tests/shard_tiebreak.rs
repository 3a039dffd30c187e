//! Regression tests pinning the same-instant tie-break rule the sharded
//! engine rests on.
//!
//! The oracle dispatches every radio component from one queue; a shard
//! group runs each component on a flat queue of its own. The two agree
//! only because of the **FIFO** contract: same-timestamp events — e.g. a
//! tone edge and a frame arrival start reaching two receivers equidistant
//! from their emitters, right at the τ propagation horizon — dispatch in
//! push (sequence) order, and that order holds on every subsequence of the
//! oracle's pushes. These tests pin the rule at the queue layer with real
//! engine events on both queue kinds, and end-to-end through a scenario
//! built to mass-produce simultaneous events on both sides of a sender.

use rmac::engine::world::Ev;
use rmac::mobility::{Bounds, Pos};
use rmac::phy::{PhyEvent, Tone};
use rmac::prelude::*;
use rmac::sim::{CalendarQueue, EventQueue, SimQueue};

/// Pop everything left in `q`, in dispatch order.
fn drain(mut q: impl SimQueue<Ev>) -> Vec<Ev> {
    std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
}

/// The queue-level pin with real engine events: a ToneEdge to node 1 and a
/// FrameArriveStart to node 2 pushed at the identical timestamp (an exact τ horizon boundary), must
/// pop in push order on either queue kind: tone first here, because it
/// was pushed first.
#[test]
fn same_instant_tone_edge_and_frame_start_keep_push_order() {
    check_tone_edge_and_frame_start(CalendarQueue::new());
    check_tone_edge_and_frame_start(EventQueue::new());
}

fn check_tone_edge_and_frame_start(mut q: impl SimQueue<Ev>) {
    // τ for the paper's 75 m range is 250 ns; pick a boundary instant.
    let tau = SimTime::from_nanos(250);
    let t = SimTime::from_micros(100) + tau;
    q.push(
        t,
        Ev::Phy(PhyEvent::ToneEdge {
            rx: NodeId(1),
            tone: Tone::Rbt,
            on: true,
            emit: 9,
        }),
    );
    q.push(
        t,
        Ev::Phy(PhyEvent::FrameArriveStart {
            rx: NodeId(2),
            tx: 4,
            power: 1.0,
        }),
    );
    q.push(
        t,
        Ev::Phy(PhyEvent::ToneEdge {
            rx: NodeId(3),
            tone: Tone::Abt,
            on: false,
            emit: 9,
        }),
    );
    let order = drain(q);
    assert_eq!(order.len(), 3);
    assert!(
        matches!(order[0], Ev::Phy(PhyEvent::ToneEdge { rx: NodeId(1), .. })),
        "first push must dispatch first, got {:?}",
        order[0]
    );
    assert!(
        matches!(
            order[1],
            Ev::Phy(PhyEvent::FrameArriveStart { rx: NodeId(2), .. })
        ),
        "same-instant event lost FIFO order, got {:?}",
        order[1]
    );
    assert!(
        matches!(order[2], Ev::Phy(PhyEvent::ToneEdge { rx: NodeId(3), .. })),
        "third push must dispatch last, got {:?}",
        order[2]
    );
}

/// Same-instant timers at nodes of several components, pushed in an
/// interleaved node order: the dispatch order is exactly the push order on
/// either queue kind.
#[test]
fn interleaved_same_instant_events_dispatch_in_sequence_order() {
    check_interleaved_timers(CalendarQueue::new());
    check_interleaved_timers(EventQueue::new());
}

fn check_interleaved_timers(mut q: impl SimQueue<Ev>) {
    let t = SimTime::from_millis(5);
    let pushed: Vec<u16> = vec![3, 0, 1, 2, 7, 4, 6, 5];
    for &n in &pushed {
        q.push(
            t,
            Ev::MacTimer {
                node: NodeId(n),
                kind: rmac::mac::api::TimerKind::BackoffSlot,
                gen: 0,
                epoch: 0,
            },
        );
    }
    let popped: Vec<u16> = drain(q)
        .into_iter()
        .map(|e| match e {
            Ev::MacTimer { node, .. } => node.0,
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(
        popped, pushed,
        "same-instant dispatch must follow push order"
    );
}

/// End-to-end pin: a sender at the centre of the plane with receivers
/// mirrored at equal distances on both sides. Every frame arrival and tone
/// edge it emits reaches both sides at the *same nanosecond*, and the
/// sharded report must still match the oracle bit for bit, at every shard
/// count. The layout is one radio component, so every count routes to the
/// flat runner.
#[test]
fn boundary_straddling_receivers_match_oracle() {
    // Sender at x = 150 m, receiver pairs mirrored ±10, ±25, ±40 m.
    let mut positions = vec![Pos::new(150.0, 50.0)];
    for d in [10.0, 25.0, 40.0] {
        positions.push(Pos::new(150.0 - d, 50.0));
        positions.push(Pos::new(150.0 + d, 50.0));
    }
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(positions.len())
        .with_packets(12)
        .with_positions(positions)
        .with_check();
    cfg.bounds = Bounds::new(300.0, 100.0);
    let oracle = run_replication(&cfg, Protocol::Rmac, 17);
    for shards in [2usize, 4, 8] {
        let (report, stats) =
            ShardedRunner::new(&cfg.clone().with_shards(shards), Protocol::Rmac, 17)
                .run_with_stats();
        assert_eq!(report, oracle, "shards={shards}");
        assert_eq!(stats.groups, 1, "one component must run flat");
    }
}
