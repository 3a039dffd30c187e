//! The calendar queue's equivalence contract (property-based).
//!
//! `CalendarQueue` replaced the binary-heap `EventQueue` as the engine's
//! default scheduler; the heap stays available behind `SimQueue` as the
//! ground-truth oracle. This harness pins the contract at two levels:
//!
//! 1. **Queue level** — for random operation schedules (bursty
//!    same-timestamp clusters, delays that straddle the calendar's
//!    window/ring/far boundaries, interleaved pops, anchored pushes that
//!    tie on `(time, anchor)`) the calendar pops the *identical*
//!    `(key, event)` stream as the heap, on the default geometry and on
//!    deliberately tiny geometries that force constant rotation and
//!    far-heap traffic.
//! 2. **Replication level** — for scenarios drawn from the fuzz generator,
//!    a full replication produces a **bit-identical** `RunReport` under
//!    heap and calendar queues, serial and sharded at 1/2/4/8 shards.
//!
//! Same philosophy as `tests/shard_equivalence.rs`: the optimised path
//! must be observationally invisible.

use proptest::collection::vec;
use proptest::prelude::*;
use rmac::engine::QueueKind;
use rmac::prelude::*;
use rmac::sim::{CalendarQueue, EventKey, EventQueue, SimTime};
use rmac_experiments::fuzz::materialize;

use rmac_core::testkit::fuzz::scenario_strategy;

/// One step of a random queue workload. Push delays are relative to the
/// clock at apply time so schedules stay legal under any pop interleaving.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Push at `now + delta_ns`.
    Push(u64),
    /// Anchored push at `now + delta_ns` (`delta_ns ≥ 1`), sorting as if
    /// pushed `lead_ns ≥ 1` before that (at most the delay plus one slot,
    /// so anchors fall both before and after `now`), with one of a few
    /// lattice rank words so aligned anchors tie.
    Anchored { delta: u64, lead: u64, lattice: u64 },
    /// Pop the earliest event (no-op on an empty queue).
    Pop,
}

/// Delays chosen to land in every region of the calendar's default
/// geometry (4096 ns windows × 1024 buckets ≈ 4.2 ms ring horizon):
/// zero-delay bursts, in-window, in-ring, ring-boundary-straddling, and
/// far-overflow. The tiny test geometries compress the same draws into
/// constant rotation/far traffic.
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Same-timestamp bursts: the FIFO tie-break must carry the order.
        Just(0u64),
        // Inside the active window.
        1u64..4_096,
        // Inside the bucket ring.
        4_096u64..4_194_304,
        // Straddling the ring horizon (the far-heap handoff boundary).
        4_100_000u64..4_300_000,
        // Deep in the far heap (epochs ahead).
        4_300_000u64..80_000_000,
    ]
}

/// Push-heavy schedules with enough pops to advance the clock mid-stream
/// (rotations and far pulls only happen on pop-driven refills).
fn schedule_strategy() -> impl Strategy<Value = Vec<Op>> {
    // The vendored proptest shim's `prop_oneof!` is unweighted; listing
    // the push arm twice biases schedules push-heavy so queues build real
    // depth before drains.
    vec(
        prop_oneof![
            delta_strategy().prop_map(Op::Push),
            delta_strategy().prop_map(Op::Push),
            Just(Op::Pop),
        ],
        0..400,
    )
}

/// Schedules mixing plain and anchored pushes. Anchors come from a few
/// slot-like leads, so many anchored events share `(time, anchor)` (with
/// each other, and with plain events pushed at the anchor instant) and
/// the lattice rank and sequence number must carry the order.
fn anchored_schedule_strategy() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            delta_strategy().prop_map(Op::Push),
            anchored_strategy(),
            anchored_strategy(),
            Just(Op::Pop),
        ],
        0..400,
    )
}

fn anchored_strategy() -> impl Strategy<Value = Op> {
    // A lattice event is anchored strictly before it fires.
    let lead = prop_oneof![Just(1u64), Just(20_000u64), Just(40_000u64), 1u64..60_000];
    (delta_strategy(), lead, 1u64..4).prop_map(|(delta, lead, lattice)| {
        let delta = delta.max(1);
        Op::Anchored {
            delta,
            lead: lead.min(delta + 20_000),
            lattice,
        }
    })
}

/// Apply one schedule to the heap oracle and a calendar twin, asserting
/// the pending key and the popped `(time, event)` pair agree at every
/// step, then drain both to empty the same way. Anchored pushes carry
/// the push's id in their rank word, so keys stay unique as the queues
/// require.
fn assert_pops_identical(ops: &[Op], mut cal: CalendarQueue<u32>) -> Result<(), TestCaseError> {
    let mut heap: EventQueue<u32> = EventQueue::new();
    let mut now = 0u64;
    let mut next_id = 0u32;
    let step = |heap: &mut EventQueue<u32>,
                cal: &mut CalendarQueue<u32>,
                now: &mut u64|
     -> Result<(), TestCaseError> {
        prop_assert_eq!(
            heap.peek_key(),
            cal.peek_key(),
            "peek_key diverged at t={}",
            *now
        );
        let h = heap.pop();
        let c = cal.pop();
        prop_assert_eq!(h, c, "pop diverged at t={}", *now);
        if let Some((t, _)) = h {
            *now = t.nanos();
        }
        prop_assert_eq!(heap.len(), cal.len());
        Ok(())
    };
    for op in ops {
        match *op {
            Op::Push(delta) => {
                let at = rmac::sim::SimTime::from_nanos(now + delta);
                heap.push(at, next_id);
                cal.push(at, next_id);
                next_id += 1;
            }
            Op::Anchored {
                delta,
                lead,
                lattice,
            } => {
                let at = now + delta;
                let key = EventKey {
                    time: SimTime::from_nanos(at),
                    anchor: SimTime::from_nanos(at.saturating_sub(lead)),
                    tie: lattice_word(lattice, u64::from(next_id)),
                };
                heap.push_keyed(key, next_id);
                cal.push_keyed(key, next_id);
                next_id += 1;
            }
            Op::Pop => step(&mut heap, &mut cal, &mut now)?,
        }
    }
    while !heap.is_empty() || !cal.is_empty() {
        step(&mut heap, &mut cal, &mut now)?;
    }
    prop_assert_eq!(heap.total_pushed(), cal.total_pushed());
    prop_assert_eq!(heap.total_popped(), cal.total_popped());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random push/pop schedules pop identically on the default calendar
    /// geometry.
    #[test]
    fn random_schedules_pop_identically(ops in schedule_strategy()) {
        assert_pops_identical(&ops, CalendarQueue::new())?;
    }

    /// The same schedules on deliberately tiny geometries, so every case
    /// hammers window rotation, the ring-horizon handoff, and the
    /// empty-ring fast-forward instead of staying inside one wide window.
    #[test]
    fn tiny_geometries_pop_identically(
        ops in schedule_strategy(),
        shift in 3u32..8,
        nbuckets_log2 in 1u32..5,
    ) {
        assert_pops_identical(&ops, CalendarQueue::with_geometry(shift, 1 << nbuckets_log2))?;
    }

    /// Anchored and plain pushes mixed, with aligned-anchor ties, pop
    /// identically on the default and on tiny geometries.
    #[test]
    fn anchored_schedules_pop_identically(
        ops in anchored_schedule_strategy(),
        shift in 3u32..13,
        nbuckets_log2 in 1u32..11,
    ) {
        assert_pops_identical(&ops, CalendarQueue::new())?;
        assert_pops_identical(&ops, CalendarQueue::with_geometry(shift, 1 << nbuckets_log2))?;
    }
}

proptest! {
    // Full replications are ~10⁴× the cost of a queue schedule; a smaller
    // case budget still covers both topology families, both protocols,
    // every fault class and all four shard counts.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The replication-level contract: for randomized fuzz scenarios the
    /// heap-queue engine and the calendar-queue engine produce
    /// bit-identical `RunReport`s — serial, and sharded at 1/2/4/8 shards
    /// under the calendar (plus a heap-sharded spot check), every variant
    /// compared field-for-field against the heap-serial oracle.
    #[test]
    fn replications_are_bit_identical_across_queues(
        fs in scenario_strategy(),
        seed in 0u64..10_000,
    ) {
        let (cfg, protocol, plan) = materialize(&fs);
        let oracle = run_replication_with_faults(
            &cfg.clone().with_queue(QueueKind::Heap),
            protocol,
            seed,
            &plan,
        );
        let calendar = run_replication_with_faults(
            &cfg.clone().with_queue(QueueKind::Calendar),
            protocol,
            seed,
            &plan,
        );
        prop_assert_eq!(&calendar, &oracle, "serial calendar vs heap oracle");
        prop_assert_eq!(calendar.events, oracle.events, "processed event count");
        for shards in [1usize, 2, 4, 8] {
            let sharded = run_replication_sharded_with_faults(
                &cfg.clone().with_shards(shards).with_queue(QueueKind::Calendar),
                protocol,
                seed,
                &plan,
            );
            prop_assert_eq!(&sharded, &oracle, "calendar shards={}", shards);
        }
        let heap_sharded = run_replication_sharded_with_faults(
            &cfg.clone().with_shards(4).with_queue(QueueKind::Heap),
            protocol,
            seed,
            &plan,
        );
        prop_assert_eq!(&heap_sharded, &oracle, "heap shards=4");
    }
}

/// A directed bit-identity check on the paper-shaped dense scenario (the
/// bench workload's family): big enough that the calendar actually
/// rotates through many windows, cheap enough for every CI run.
#[test]
fn dense_paper_scenario_is_bit_identical() {
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_nodes(30)
        .with_packets(12);
    cfg.bounds = rmac::mobility::Bounds::new(200.0, 150.0);
    let oracle = run_replication(&cfg.clone().with_heap_queue(), Protocol::Rmac, 42);
    let calendar = run_replication(&cfg, Protocol::Rmac, 42);
    assert_eq!(calendar, oracle);
    assert_eq!(calendar.events, oracle.events);
}

/// Aligned anchors tie on `(time, anchor)`: lattice rank, then sequence
/// number, decide; a plain event pushed earlier than the anchor sorts
/// first and one pushed later sorts last, whatever the push order.
#[test]
fn aligned_anchor_ties_pop_in_key_order() {
    let t = SimTime::from_micros(100);
    let anchor = SimTime::from_micros(80);
    let key = |lattice, seq| EventKey {
        time: t,
        anchor,
        tie: lattice_word(lattice, seq),
    };
    let mut heap: EventQueue<&str> = EventQueue::new();
    let mut cal: CalendarQueue<&str> = CalendarQueue::new();
    for q in [&mut heap as &mut dyn Push, &mut cal] {
        q.keyed(key(7, 3), "late-lattice");
        q.keyed(key(2, 9), "early-lattice-second");
        q.keyed(key(2, 4), "early-lattice-first");
        q.keyed(
            EventKey::plain(t, SimTime::from_micros(90), 50),
            "plain-after",
        );
        q.keyed(
            EventKey::plain(t, SimTime::from_micros(70), 60),
            "plain-before",
        );
    }
    let order = [
        "plain-before",
        "early-lattice-first",
        "early-lattice-second",
        "late-lattice",
        "plain-after",
    ];
    for want in order {
        assert_eq!(heap.pop(), Some((t, want)));
        assert_eq!(cal.pop(), Some((t, want)));
    }
}

/// A lattice event's rank word (top bit set) from a small rank and a
/// unique low part.
fn lattice_word(rank: u64, low: u64) -> u64 {
    (1 << 63) | rank << 40 | low
}

/// Object-safe push front-end over both queues, for the directed test.
trait Push {
    fn keyed(&mut self, key: EventKey, v: &'static str);
}
impl Push for EventQueue<&'static str> {
    fn keyed(&mut self, key: EventKey, v: &'static str) {
        self.push_keyed(key, v);
    }
}
impl Push for CalendarQueue<&'static str> {
    fn keyed(&mut self, key: EventKey, v: &'static str) {
        self.push_keyed(key, v);
    }
}
