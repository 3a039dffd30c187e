//! The event loop: one simulation replication.

use std::sync::Arc;

use bytes::Bytes;
use rmac_check::{CheckConfig, CheckReport, Checker};
use rmac_core::api::{MacContext, MacCounters, MacService, TimerKind, TxOutcome, TxRequest};
use rmac_faults::{ChurnKind, FaultInjector, FaultPlan, JamTarget};
use rmac_metrics::{percentile, RunReport};
use rmac_mobility::{random_positions, MobilityKind, Motion, Pos};
use rmac_net::{BlessConfig, NetLayer};
use rmac_obs::{frame_kind_index, ObsReport, Registry, Snapshot};
use rmac_phy::FrameTallies;
use rmac_phy::{Channel, ChannelConfig, IndexMode, Indication, PhyEvent, Tone, ToneLog};
use rmac_sim::{CalendarQueue, EventKey, EventQueue, SimQueue, SimRng, SimTime, Tie};
use rmac_wire::{consts::BYTE_TIME, Dest, Frame, NodeId};

use crate::config::{Protocol, QueueKind, ScenarioConfig};
use crate::obs::{class_of, timer_idx, EngineObs, ObsConfig, TIMER_LABELS};
use crate::trace::{TraceEvent, TraceWhat, Tracer};

/// The engine's event type.
#[derive(Clone, Debug)]
pub enum Ev {
    /// A channel event (propagation, frame ends, tone edges).
    Phy(PhyEvent),
    /// A MAC-armed timer at one node.
    MacTimer {
        node: NodeId,
        kind: TimerKind,
        gen: u64,
        /// The node's restart epoch when the timer was armed; a timer from
        /// a pre-crash MAC incarnation is discarded on mismatch.
        epoch: u32,
    },
    /// One node's BLESS-lite beacon tick.
    Beacon { node: NodeId },
    /// The source's next application packet.
    Source,
    /// A scheduled fault-plane action.
    Fault(FaultEv),
}

/// The fault plane's scheduled actions (crash/restart windows and jamming
/// burst edges from the attached [`FaultPlan`]).
#[derive(Clone, Copy, Debug)]
pub enum FaultEv {
    /// A node crashes: radio silenced, MAC and network state lost.
    NodeDown { node: NodeId },
    /// A crashed node restarts with fresh MAC and network entities.
    NodeUp { node: NodeId },
    /// Jammer `jammer` begins a noise burst.
    JamOn { jammer: usize },
    /// Jammer `jammer` ends a tone burst.
    JamOff { jammer: usize },
}

impl From<PhyEvent> for Ev {
    fn from(pe: PhyEvent) -> Ev {
        Ev::Phy(pe)
    }
}

/// Per-beacon scheduling jitter bound (ns): each beacon reschedules at
/// `period + uniform(0, BEACON_JITTER_NS)` so beacons never phase-lock
/// with the data traffic. Shared with the shard module's timetable
/// builder, which must replay the draws exactly.
pub(crate) const BEACON_JITTER_NS: u64 = 10_000_000;

/// Restriction of a runner to the causally closed slot set it is running
/// ([`Runner::begin_part`]). Scoped runners only seed and dispatch events
/// for owned slots; the component analysis in [`crate::shard`] guarantees
/// no event for a non-owned slot can ever be generated.
pub(crate) struct Scope {
    /// Per channel slot (protocol nodes, then jammers): owned here?
    pub(crate) owned: Vec<bool>,
}

impl Scope {
    fn owns(&self, slot: usize) -> bool {
        self.owned[slot]
    }
}

/// A precomputed beacon schedule (see [`crate::shard::BeaconTimetable`]).
/// When attached, the runner reads each node's next beacon fire time from
/// the table instead of drawing jitter from the shared scheduler stream —
/// the values are identical (the beacon subsystem is closed under the
/// scheduler stream), but the table lets decoupled shard groups consume
/// "their" draws without a live shared RNG.
pub(crate) struct BeaconPlan {
    /// Per node: absolute fire times, `times[i][0]` being the initial
    /// staggered beacon. Covers every fire at or before end-of-run plus
    /// one successor each.
    pub(crate) times: std::sync::Arc<Vec<Vec<SimTime>>>,
    /// Per node: how many fires have dispatched so far.
    fired: Vec<u32>,
}

impl BeaconPlan {
    pub(crate) fn new(times: std::sync::Arc<Vec<Vec<SimTime>>>) -> BeaconPlan {
        let n = times.len();
        BeaconPlan {
            times,
            fired: vec![0; n],
        }
    }

    /// The fire time following the beacon currently dispatching at `node`.
    fn next_fire(&mut self, node: NodeId, now: SimTime) -> SimTime {
        let k = self.fired[node.idx()] as usize;
        self.fired[node.idx()] += 1;
        debug_assert_eq!(
            self.times[node.idx()][k],
            now,
            "beacon timetable out of step with dispatch"
        );
        self.times[node.idx()][k + 1]
    }
}

/// Node placement and motion assembly shared by the oracle and sharded
/// engines: positions from the master's `split(1)` stream, per-node
/// waypoint motions from `split(1000 + i)`, jammer slots appended
/// stationary. Pure in `master`, so every shard group derives identical
/// world geometry.
pub(crate) fn build_motions(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    master: &SimRng,
) -> Vec<Motion> {
    let mut place_rng = master.split(1);
    let positions = cfg
        .positions
        .clone()
        .unwrap_or_else(|| random_positions(cfg.nodes, cfg.bounds, &mut place_rng));
    debug_assert_eq!(positions.len(), cfg.nodes, "position count mismatch");
    let mut motions: Vec<Motion> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| match cfg.mobility {
            MobilityKind::Stationary => Motion::stationary(p),
            kind => Motion::new(p, kind, cfg.bounds, master.split(1000 + i as u64)),
        })
        .collect();
    // Jammers occupy extra channel slots past the protocol population;
    // they carry no MAC or network entity and never move.
    for j in &plan.jammers {
        motions.push(Motion::stationary(Pos { x: j.x, y: j.y }));
    }
    motions
}

/// Everything the MAC context borrows mutably: the queue, channel, and
/// per-node rngs/counters. Kept separate from the MAC/net entities so the
/// borrow checker can hand a MAC `&mut` access to the rest of the world.
struct WorldCore<Q: SimQueue<Ev>> {
    q: Q,
    channel: Channel,
    chan_rng: SimRng,
    rngs: Vec<SimRng>,
    counters: Vec<MacCounters>,
    /// Per-node restart epoch; bumped on every fault-plane restart.
    epochs: Vec<u32>,
    /// Per-node clock-skew factor on MAC timer delays (1.0 = no skew).
    skew: Vec<f64>,
    /// Per-node crashed flag.
    down: Vec<bool>,
    /// Optional deep instrumentation ([`crate::Runner::set_obs`]). Boxed so
    /// the disabled path costs one pointer-sized `Option` check.
    obs: Option<Box<EngineObs>>,
    /// Optional protocol-conformance checker ([`crate::Runner::set_check`]),
    /// attached the same zero-cost-when-off way as `obs`.
    check: Option<Box<Checker>>,
}

impl<Q: SimQueue<Ev>> WorldCore<Q> {
    /// Apply `node`'s clock-skew factor to a MAC timer delay.
    fn skewed(&self, node: NodeId, delay: SimTime) -> SimTime {
        let f = self.skew[node.idx()];
        if f == 1.0 {
            delay
        } else {
            SimTime::from_nanos((delay.nanos() as f64 * f).round() as u64)
        }
    }
}

/// The per-call [`MacContext`] view handed to a MAC entity.
struct Ctx<'a, Q: SimQueue<Ev>> {
    core: &'a mut WorldCore<Q>,
    node: NodeId,
    /// The node's network layer, for on-demand neighbor queries. Most MAC
    /// callbacks never ask, so the (alloc + sort) of a fresh-neighbor
    /// snapshot is paid only when [`MacContext::neighbors`] is called.
    net: &'a NetLayer,
    delivered: &'a mut Vec<Arc<Frame>>,
    outcomes: &'a mut Vec<(u64, TxOutcome)>,
}

impl<Q: SimQueue<Ev>> Ctx<'_, Q> {
    /// This node's timer event, counted as armed when obs is attached.
    fn timer_event(&mut self, kind: TimerKind, gen: u64) -> Ev {
        let node = self.node;
        if let Some(obs) = self.core.obs.as_mut() {
            obs.nodes[node.idx()].timer_arm[timer_idx(kind)] += 1;
        }
        Ev::MacTimer {
            node,
            kind,
            gen,
            epoch: self.core.epochs[node.idx()],
        }
    }
}

impl<Q: SimQueue<Ev>> MacContext for Ctx<'_, Q> {
    fn now(&self) -> SimTime {
        self.core.q.now()
    }
    fn schedule(&mut self, delay: SimTime, kind: TimerKind, gen: u64) {
        let delay = self.core.skewed(self.node, delay);
        let ev = self.timer_event(kind, gen);
        self.core.q.push_after(delay, ev);
    }
    fn local_delay(&self, delay: SimTime) -> SimTime {
        self.core.skewed(self.node, delay)
    }
    fn dispatch_key(&self) -> EventKey {
        self.core.q.current_key()
    }
    fn schedule_anchored(
        &mut self,
        at: SimTime,
        slot: SimTime,
        tie: Option<Tie>,
        kind: TimerKind,
        gen: u64,
    ) -> Tie {
        let q = &self.core.q;
        let tie =
            tie.unwrap_or_else(|| Tie::open(q.current_key(), slot, q.instant_seq(), q.next_seq()));
        let ev = self.timer_event(kind, gen);
        self.core
            .q
            .push_keyed(EventKey::on_lattice(at, slot, tie), ev);
        tie
    }
    fn start_tx(&mut self, frame: Frame) {
        if let Some(chk) = self.core.check.as_mut() {
            chk.on_tx_start(self.core.q.now(), self.node, &frame);
        }
        self.core
            .channel
            .start_tx(&mut self.core.q, self.node, frame);
    }
    fn abort_tx(&mut self) {
        self.core.channel.abort_tx(&mut self.core.q, self.node);
    }
    fn start_tone(&mut self, tone: Tone) {
        if let Some(chk) = self.core.check.as_mut() {
            chk.on_tone(self.core.q.now(), self.node, tone, true);
        }
        self.core
            .channel
            .start_tone(&mut self.core.q, self.node, tone);
    }
    fn stop_tone(&mut self, tone: Tone) {
        if let Some(chk) = self.core.check.as_mut() {
            chk.on_tone(self.core.q.now(), self.node, tone, false);
        }
        self.core
            .channel
            .stop_tone(&mut self.core.q, self.node, tone);
    }
    fn data_busy(&self) -> bool {
        self.core.channel.data_busy(self.node)
    }
    fn tone_present(&self, tone: Tone) -> bool {
        self.core.channel.tone_present(self.node, tone)
    }
    fn open_tone_watch(&mut self, tone: Tone) {
        let now = self.core.q.now();
        self.core.channel.open_watch(self.node, tone, now);
    }
    fn close_tone_watch(&mut self, tone: Tone) -> ToneLog {
        let now = self.core.q.now();
        self.core.channel.close_watch(self.node, tone, now)
    }
    fn deliver(&mut self, frame: &Arc<Frame>) {
        self.delivered.push(Arc::clone(frame));
    }
    fn notify(&mut self, token: u64, outcome: TxOutcome) {
        self.outcomes.push((token, outcome));
    }
    fn neighbors(&mut self) -> Vec<NodeId> {
        self.net.fresh_neighbors(self.core.q.now())
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rngs[self.node.idx()]
    }
    fn counters(&mut self) -> &mut MacCounters {
        &mut self.core.counters[self.node.idx()]
    }
}

/// Runtime state of an attached fault plan.
struct FaultRt {
    plan: FaultPlan,
    crashes: u64,
    jam_bursts: u64,
    /// Sequence numbers for the jammers' noise frames.
    jam_seq: u32,
}

/// One assembled replication: node stacks plus the event loop.
///
/// Generic over the queue implementation: the default (and what
/// [`Runner::new`] builds) runs on the [`CalendarQueue`]; the heap oracle
/// stays available through [`Runner::new_heap`] for differential testing;
/// the sharded engine runs one runner per group on either queue.
/// Monomorphization keeps each variant's hot loop branch-free over the
/// choice.
pub struct Runner<Q: SimQueue<Ev> = CalendarQueue<Ev>> {
    core: WorldCore<Q>,
    macs: Vec<Box<dyn MacService>>,
    nets: Vec<NetLayer>,
    cfg: ScenarioConfig,
    protocol: Protocol,
    packets_left: u64,
    sched_rng: SimRng,
    tracer: Option<Tracer>,
    faults: Option<FaultRt>,
    /// Reused indication buffer for PHY dispatch (the event loop's hottest
    /// allocation without it).
    inds_scratch: Vec<Indication>,
    /// Slot-ownership restriction while this runner drives one part of a
    /// shard group; `None` for the whole-world oracle.
    scope: Option<Scope>,
    /// Precomputed beacon schedule replacing the live scheduler-stream
    /// draws; `None` for the whole-world oracle.
    beacon_plan: Option<BeaconPlan>,
    /// Events dispatched and final clock of the parts a shard group has
    /// already run on this world ([`Runner::begin_part`]).
    retired: (u64, SimTime),
    /// The previous dispatch's key (debug builds check the anchored-key
    /// contract against it).
    last_key: EventKey,
    /// Time of the latest dispatch that was not a backoff wake-up, and the
    /// per-slot backoff horizon of MAC incarnations a restart replaced,
    /// crash keys per node: what [`Runner::final_clock`] rebuilds the
    /// per-slot engine's final clock from.
    last_plain: SimTime,
    replaced_horizon: SimTime,
    crash_keys: Vec<EventKey>,
}

impl Runner<CalendarQueue<Ev>> {
    /// Build a replication from a scenario, protocol and seed, on the
    /// default [`CalendarQueue`].
    pub fn new(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> Runner {
        Runner::with_faults(cfg, protocol, seed, &FaultPlan::none())
    }

    /// Build a replication with a fault plan attached.
    ///
    /// An empty plan is bit-identical to [`Runner::new`]: every RNG stream
    /// is seeded exactly as in the fault-free constructor, the PHY hook is
    /// only installed when the plan can corrupt frames, and jammer slots
    /// are only appended when jammers exist.
    pub fn with_faults(
        cfg: &ScenarioConfig,
        protocol: Protocol,
        seed: u64,
        plan: &FaultPlan,
    ) -> Runner {
        Runner::assemble(cfg, protocol, seed, plan, None)
    }
}

impl Runner<EventQueue<Ev>> {
    /// Build a replication on the binary-heap oracle queue — the
    /// differential-testing counterpart of [`Runner::new`]. Reports are
    /// bit-identical to the calendar-queue runner's.
    pub fn new_heap(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> Runner<EventQueue<Ev>> {
        Runner::with_faults_heap(cfg, protocol, seed, &FaultPlan::none())
    }

    /// [`Runner::with_faults`] on the heap oracle queue.
    pub fn with_faults_heap(
        cfg: &ScenarioConfig,
        protocol: Protocol,
        seed: u64,
        plan: &FaultPlan,
    ) -> Runner<EventQueue<Ev>> {
        Runner::assemble(cfg, protocol, seed, plan, None)
    }
}

/// One dispatched event in a shard group part's log (see
/// [`Runner::run_loop_logged`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DispatchRec {
    /// The popped event's key. Its sequence numbers (a plain key's tie, a
    /// lattice key's opening instant) are part-local.
    pub(crate) key: EventKey,
    /// Pushes the dispatch made (each gets the next local seq, in order).
    pub(crate) pushes: u32,
    /// Trace events the dispatch emitted into the group's buffer.
    pub(crate) traces: u32,
}

/// The channel slot of every seed push, in the oracle's seeding order:
/// beacons for nodes `0..nodes`, the source (slot 0), then per crash-churn
/// entry a down/up pair, then one `JamOn` per jammer. Mirrors
/// [`Runner::run_loop`]'s seeding (`seed_events`) exactly — the trace
/// merge uses it to assign oracle sequence numbers to each group's seed
/// pushes, so the two enumerations must never drift apart.
pub(crate) fn seed_slots(cfg: &ScenarioConfig, plan: &FaultPlan) -> Vec<usize> {
    let mut slots: Vec<usize> = (0..cfg.nodes).collect();
    slots.push(0); // Ev::Source is pinned to node 0.
    for c in &plan.churn {
        if matches!(c.kind, ChurnKind::Crash) && (c.node as usize) < cfg.nodes {
            slots.push(c.node as usize); // NodeDown
            slots.push(c.node as usize); // NodeUp
        }
    }
    for j in 0..plan.jammers.len() {
        slots.push(cfg.nodes + j);
    }
    slots
}

impl<Q: SimQueue<Ev>> Runner<Q> {
    /// Shared assembly behind [`Runner::with_faults`] and the sharded
    /// engine's per-group runners: identical node-stack construction and
    /// RNG stream derivation, parameterized over the queue implementation
    /// and the beacon schedule source.
    pub(crate) fn assemble(
        cfg: &ScenarioConfig,
        protocol: Protocol,
        seed: u64,
        plan: &FaultPlan,
        beacon_plan: Option<BeaconPlan>,
    ) -> Runner<Q> {
        let master = SimRng::new(seed);
        let motions = build_motions(cfg, plan, &master);
        let node_slots = motions.len();
        let mut channel = Channel::new(
            ChannelConfig {
                range_m: cfg.range_m,
                ber_per_bit: cfg.ber_per_bit,
                index: if cfg.phy_grid {
                    IndexMode::grid()
                } else {
                    IndexMode::BruteForce
                },
                ..ChannelConfig::default()
            },
            motions,
        );
        if plan.has_phy_faults() {
            channel.set_fault_hook(Box::new(FaultInjector::from_plan(plan, seed)));
        }
        let bless_cfg = BlessConfig {
            beacon_period: cfg.beacon_period,
            freshness: cfg.freshness,
            root: NodeId(0),
        };
        let macs = (0..cfg.nodes)
            .map(|i| protocol.make_mac(NodeId(i as u16), cfg.mac))
            .collect();
        let nets = (0..cfg.nodes)
            .map(|i| {
                let mut net = NetLayer::new(NodeId(i as u16), bless_cfg, cfg.payload);
                net.set_reliable_forwarding(cfg.reliable_forwarding);
                net
            })
            .collect();
        let rngs = (0..cfg.nodes)
            .map(|i| master.split(2000 + i as u64))
            .collect();
        let mut skew = vec![1.0f64; cfg.nodes];
        for s in &plan.skew {
            if (s.node as usize) < cfg.nodes {
                skew[s.node as usize] = 1.0 + s.ppm * 1e-6;
            }
        }
        // Pre-size the event heap from the scenario scale: each in-flight
        // transmission holds ~2 events per in-range receiver, plus MAC
        // timers and beacons per node. 64 slots per node slot covers dense
        // contention rounds without reallocating mid-replication.
        let queue_capacity = (node_slots * 64).max(4096);
        let mut runner = Runner {
            core: WorldCore {
                q: Q::with_capacity(queue_capacity),
                channel,
                chan_rng: master.split(2),
                rngs,
                counters: vec![MacCounters::default(); cfg.nodes],
                epochs: vec![0; cfg.nodes],
                skew,
                down: vec![false; cfg.nodes],
                obs: None,
                check: None,
            },
            macs,
            nets,
            cfg: cfg.clone(),
            protocol,
            packets_left: cfg.packets,
            sched_rng: master.split(3),
            tracer: None,
            faults: if plan.is_empty() {
                None
            } else {
                Some(FaultRt {
                    plan: plan.clone(),
                    crashes: 0,
                    jam_bursts: 0,
                    jam_seq: 0,
                })
            },
            inds_scratch: Vec::new(),
            last_key: EventKey::default(),
            last_plain: SimTime::ZERO,
            replaced_horizon: SimTime::ZERO,
            crash_keys: vec![EventKey::default(); cfg.nodes],
            scope: None,
            beacon_plan,
            retired: (0, SimTime::ZERO),
        };
        if cfg.check {
            runner.set_check();
        }
        runner
    }

    /// Start the next part of a shard group on this world: restrict the
    /// runner to the causally closed slot set `owned`, swap in a fresh
    /// queue (keeping the finished part's event count and clock for the
    /// harvest), and retire the channel's leftover in-flight records.
    /// Parts share no slot, so each runs exactly as it would alone; running
    /// them back to back keeps one part's node state in cache at a time.
    pub(crate) fn begin_part(&mut self, owned: Vec<bool>) {
        let slots = owned.iter().filter(|&&o| o).count();
        let done = std::mem::replace(&mut self.core.q, Q::with_capacity((slots * 64).max(4096)));
        self.retired.0 += done.total_popped();
        self.retired.1 = self.retired.1.max(done.now());
        self.core.channel.retire_in_flight();
        self.scope = Some(Scope { owned });
        self.last_key = EventKey::default();
    }

    /// Whether this runner owns channel slot `slot` (always true for the
    /// whole-world oracle).
    fn owns(&self, slot: usize) -> bool {
        self.scope.as_ref().is_none_or(|s| s.owns(slot))
    }

    /// Attach an observer that sees every PHY indication, submission and
    /// delivery as it is dispatched (protocol timelines, debugging).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Attach the deep instrumentation layer ([`crate::obs`]): the kernel
    /// self-profile, per-node protocol counters, and (when configured) the
    /// periodic snapshot sampler. Collect the results with
    /// [`Runner::run_obs`]. Instrumentation never perturbs the simulation;
    /// the report stays bit-identical.
    pub fn set_obs(&mut self, cfg: ObsConfig) {
        self.core.obs = Some(Box::new(EngineObs::new(cfg, self.cfg.nodes)));
        // Transition counting lives in the MACs (they cannot see `obs`),
        // gated so detached runs skip the per-transition increment.
        for mac in self.macs.iter_mut() {
            mac.enable_transition_counting();
        }
    }

    /// Attach the protocol-conformance checker ([`rmac_check`]): every
    /// transmission start, tone emission and PHY indication is streamed
    /// through the invariant catalogue (DESIGN.md §8). Like the obs layer
    /// the checker never perturbs the simulation — it draws no randomness
    /// and schedules nothing, so reports stay bit-identical.
    pub fn set_check(&mut self) {
        self.core.check = Some(Box::new(Checker::new(CheckConfig::new(
            self.cfg.nodes,
            self.protocol.conformance_class(),
        ))));
        // C4 needs the MACs' transition matrices (same mechanism obs uses).
        for mac in self.macs.iter_mut() {
            mac.enable_transition_counting();
        }
    }

    /// Attach the conformance checker if not already attached (idempotent;
    /// the sharded engine's checked path and [`run_replication_checked`]
    /// both want "checker on, whatever `cfg.check` said").
    pub(crate) fn ensure_check(&mut self) {
        if self.core.check.is_none() {
            self.set_check();
        }
    }

    fn trace(&mut self, node: NodeId, what: TraceWhat) {
        if let Some(tr) = self.tracer.as_mut() {
            tr(&TraceEvent {
                t: self.core.q.now(),
                node,
                what,
            });
        }
    }

    fn trace_indication(&mut self, ind: &Indication) {
        if self.tracer.is_none() {
            return;
        }
        let what = match ind {
            Indication::TxDone { frame, aborted, .. } => TraceWhat::TxDone {
                kind: frame.kind,
                bytes: frame.length_bytes(),
                aborted: *aborted,
            },
            Indication::FrameRx { frame, ok, .. } => TraceWhat::Rx {
                kind: frame.kind,
                src: frame.src,
                ok: *ok,
            },
            Indication::ToneChanged { tone, present, .. } => TraceWhat::Tone {
                tone: *tone,
                present: *present,
            },
            Indication::CarrierOn { .. } => TraceWhat::Carrier { busy: true },
            Indication::CarrierOff { .. } => TraceWhat::Carrier { busy: false },
        };
        self.trace(ind.node(), what);
    }

    /// Run to completion, returning the report plus the final tree (each
    /// node's parent), for topology studies like the paper's Fig. 6.
    pub fn run_with_tree(self, seed: u64) -> (RunReport, Vec<Option<NodeId>>) {
        let mut me = self;
        me.run_loop();
        me.assert_check_clean();
        let parents = me.nets.iter().map(|n| n.bless().parent()).collect();
        (me.collect(seed), parents)
    }

    /// Run to completion and produce the replication's report.
    pub fn run(mut self, seed: u64) -> RunReport {
        self.run_loop();
        self.assert_check_clean();
        self.collect(seed)
    }

    /// Run to completion and produce the report plus, when
    /// [`Runner::set_obs`] was called, the observability report.
    pub fn run_obs(mut self, seed: u64) -> (RunReport, Option<ObsReport>) {
        self.run_loop();
        self.assert_check_clean();
        let obs = self.finish_obs();
        (self.collect(seed), obs)
    }

    /// Run to completion and return the conformance report alongside the
    /// replication's report instead of panicking on violations (fuzzing and
    /// the checker's own tests — a mutant MAC *should* produce a dirty
    /// report, not a panic).
    ///
    /// The checker must be attached (`cfg.check` or [`Runner::set_check`]).
    pub fn run_checked(mut self, seed: u64) -> (RunReport, CheckReport) {
        assert!(
            self.core.check.is_some(),
            "run_checked without an attached checker (set `cfg.check`)"
        );
        self.run_loop();
        let check = self.finish_check().expect("checker vanished mid-run");
        (self.collect(seed), check)
    }

    /// Run to completion with the checker attached (like
    /// [`Runner::run_checked`]) and, when [`Runner::set_obs`] was called,
    /// the observability report alongside. One pass yields the run report,
    /// the counter/histogram snapshot, and the conformance verdict — the
    /// campaign store's ingestion entry point.
    pub fn run_instrumented(mut self, seed: u64) -> (RunReport, Option<ObsReport>, CheckReport) {
        assert!(
            self.core.check.is_some(),
            "run_instrumented without an attached checker (set `cfg.check`)"
        );
        self.run_loop();
        let check = self.finish_check().expect("checker vanished mid-run");
        let obs = self.finish_obs();
        (self.collect(seed), obs, check)
    }

    /// Close out the attached checker: validate the end-of-run transition
    /// matrices (C4) and assemble the report.
    pub(crate) fn finish_check(&mut self) -> Option<CheckReport> {
        let mut check = self.core.check.take()?;
        for (i, mac) in self.macs.iter().enumerate() {
            // A scoped runner validates only its owned nodes: the others'
            // MACs exist (full-width vectors keep global node indexing)
            // but never ran, and their empty matrices belong to the
            // group that actually drove them.
            if self.scope.as_ref().is_some_and(|s| !s.owns(i)) {
                continue;
            }
            if let Some((labels, matrix)) = mac.transitions() {
                check.check_transitions(NodeId(i as u16), labels, &matrix);
            }
        }
        Some(check.finish(self.core.q.now()))
    }

    /// Panic with the full violation listing when an attached checker found
    /// any breach. No-op when detached (the common path) or clean.
    pub(crate) fn assert_check_clean(&mut self) {
        if let Some(report) = self.finish_check() {
            assert!(
                report.is_clean(),
                "protocol-conformance check failed ({}, scenario '{}'):\n{}",
                self.protocol.label(),
                self.cfg.name,
                report.summary()
            );
        }
    }

    /// Seed the queue's initial events: beacons in node order, the source,
    /// then the fault plan's scheduled actions. A scoped (shard group
    /// part) runner seeds only its owned slots, in the same global
    /// enumeration order — the restriction of the oracle's seeding to the
    /// part.
    /// [`seed_slots`] mirrors this enumeration; keep the two in lockstep.
    fn seed_events(&mut self) {
        // Stagger the first beacons uniformly over one period so the
        // network does not start in lockstep, with a shard group's stagger
        // times read from the precomputed table.
        for i in 0..self.cfg.nodes {
            let at = match &self.beacon_plan {
                Some(plan) => plan.times[i][0],
                None => {
                    SimTime::from_nanos(self.sched_rng.below(self.cfg.beacon_period.nanos().max(1)))
                }
            };
            if self.owns(i) {
                self.core.q.push(
                    at,
                    Ev::Beacon {
                        node: NodeId(i as u16),
                    },
                );
            }
        }
        if self.owns(0) {
            self.core.q.push(self.cfg.warmup, Ev::Source);
        }
        if let Some(f) = &self.faults {
            // Deaf/Mute churn is enforced purely at the PHY by the
            // injector; only full crashes need engine-side events.
            let owned = self.scope.as_ref().map(|s| s.owned.as_slice());
            for c in &f.plan.churn {
                if matches!(c.kind, ChurnKind::Crash) && (c.node as usize) < self.cfg.nodes {
                    if owned.is_some_and(|o| !o[c.node as usize]) {
                        continue;
                    }
                    let node = NodeId(c.node);
                    self.core.q.push(
                        SimTime::from_millis(c.at_ms),
                        Ev::Fault(FaultEv::NodeDown { node }),
                    );
                    self.core.q.push(
                        SimTime::from_millis(c.at_ms + c.for_ms),
                        Ev::Fault(FaultEv::NodeUp { node }),
                    );
                }
            }
            for (j, spec) in f.plan.jammers.iter().enumerate() {
                if owned.is_some_and(|o| !o[self.cfg.nodes + j]) {
                    continue;
                }
                self.core.q.push(
                    SimTime::from_millis(spec.start_ms),
                    Ev::Fault(FaultEv::JamOn { jammer: j }),
                );
            }
        }
    }

    pub(crate) fn run_loop(&mut self) {
        self.seed_events();
        let end = self.cfg.end_time();
        // Two copies of the pop/dispatch loop so the detached path stays
        // exactly the pre-instrumentation hot loop — no per-event obs
        // branch, and `dispatch` keeps its inlining context.
        if self.core.obs.is_none() {
            // Fused head-check + pop: one key comparison per event decides
            // both "is it due" and "which window half wins".
            while let Some((_, ev)) = self.core.q.pop_at_or_before(end) {
                self.dispatch(ev);
            }
        } else {
            // Sampler presence is fixed for the whole run; hoist the check
            // so sampler-less instrumented runs skip the per-event call.
            let sampling = self.core.obs.as_ref().is_some_and(|o| o.sampler.is_some());
            while let Some(t) = self.core.q.peek_time() {
                if t > end {
                    break;
                }
                if sampling {
                    self.sample_until(t);
                }
                let (_, ev) = self.core.q.pop().expect("peeked event vanished");
                self.dispatch_observed(ev);
            }
        }
    }

    /// [`Runner::run_loop`] plus a per-dispatch log, for a shard group part
    /// whose trace must later be interleaved back into the oracle's global
    /// emission order (DESIGN.md §10). For every dispatched event the log
    /// records the popped `(time, local seq)` key, how many pushes the
    /// dispatch made, and how many trace events it appended to `buf` (the
    /// group's buffering tracer sink, attached via [`Runner::set_tracer`]
    /// before this call). The trace-merge reconstruction in
    /// [`crate::shard`] replays these logs against the seeding enumeration
    /// ([`seed_slots`]) to recover each event's oracle sequence number.
    pub(crate) fn run_loop_logged(
        &mut self,
        buf: &std::sync::Mutex<Vec<TraceEvent>>,
    ) -> Vec<DispatchRec> {
        self.seed_events();
        let end = self.cfg.end_time();
        let mut log = Vec::new();
        let mut traced = 0u32;
        while let Some(key) = self.core.q.peek_key() {
            if key.time > end {
                break;
            }
            let pushed_before = self.core.q.total_pushed();
            let (_, ev) = self.core.q.pop().expect("peeked event vanished");
            self.dispatch(ev);
            let traced_now = buf.lock().expect("trace buffer poisoned").len() as u32;
            log.push(DispatchRec {
                key,
                pushes: (self.core.q.total_pushed() - pushed_before) as u32,
                traces: traced_now - traced,
            });
            traced = traced_now;
        }
        log
    }

    /// Record every snapshot boundary at or before `t` (the next event's
    /// timestamp). Boundary checks run *between* events, outside the queue,
    /// so sampling changes neither the popped-event count nor any tie-break.
    fn sample_until(&mut self, t: SimTime) {
        let Some(mut obs) = self.core.obs.take() else {
            return;
        };
        if let Some(sampler) = obs.sampler.as_mut() {
            while sampler.due(t.nanos()) {
                let snap = self.snapshot_at(sampler.next_boundary_ns());
                sampler.record(snap);
            }
        }
        self.core.obs = Some(obs);
    }

    /// Cumulative run state as of now, stamped with boundary time `t_ns`.
    fn snapshot_at(&self, t_ns: u64) -> Snapshot {
        Snapshot {
            t_ns,
            events: self.core.q.total_popped(),
            queue_len: self.core.q.len() as u64,
            queue_high_water: self.core.q.depth_high_water() as u64,
            tx_frames: self.core.channel.frame_tallies().tx_frames.iter().sum(),
            rx_ok: self.core.channel.frame_tallies().rx_ok.iter().sum(),
            rx_corrupt: self.core.channel.frame_tallies().rx_corrupt.iter().sum(),
            receptions: self
                .nets
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != 0)
                .map(|(_, net)| net.stats().received)
                .sum(),
            crashes: self.faults.as_ref().map_or(0, |f| f.crashes),
            jam_bursts: self.faults.as_ref().map_or(0, |f| f.jam_bursts),
        }
    }

    /// The anchored-key contract (DESIGN.md §12): no plain event ties a
    /// backoff-lattice event on `(time, anchor)`, i.e. none is pushed
    /// exactly one skewed slot ahead. Such a tie pops the two adjacently,
    /// so comparing each dispatch with the previous one catches it.
    #[cfg(debug_assertions)]
    fn check_anchor_contract(&mut self) {
        let (prev, cur) = (self.last_key, self.core.q.current_key());
        debug_assert!(
            (prev.time, prev.anchor) != (cur.time, cur.anchor)
                || prev.is_lattice() == cur.is_lattice(),
            "plain and lattice events tie on (time, anchor): {prev:?} {cur:?}"
        );
        self.last_key = cur;
    }

    /// Dispatch one event, profiled when instrumentation is attached.
    fn dispatch_observed(&mut self, ev: Ev) {
        let Some(obs) = self.core.obs.as_deref_mut() else {
            self.dispatch(ev);
            return;
        };
        let class = class_of(&ev);
        // One `dispatch` call site below, so the force-inlined event match
        // is materialised once here, not once per profiling mode.
        let start = if obs.kernel.wall_enabled() {
            Some(std::time::Instant::now())
        } else {
            obs.kernel.count(class);
            None
        };
        self.dispatch(ev);
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(obs) = self.core.obs.as_deref_mut() {
                obs.kernel.record_ns(class, ns);
            }
        }
    }

    #[inline(always)]
    fn dispatch(&mut self, ev: Ev) {
        #[cfg(debug_assertions)]
        self.check_anchor_contract();
        if !matches!(
            ev,
            Ev::MacTimer {
                kind: TimerKind::BackoffSlot,
                ..
            }
        ) {
            // A max, not the clock: a shard group's parts each restart it.
            self.last_plain = self.last_plain.max(self.core.q.now());
        }
        match ev {
            Ev::Phy(pe) => {
                let now = self.core.q.now();
                let mut inds = std::mem::take(&mut self.inds_scratch);
                inds.clear();
                self.core
                    .channel
                    .handle(now, &mut self.core.chan_rng, &pe, &mut inds);
                for ind in inds.drain(..) {
                    self.indicate(&ind);
                }
                self.inds_scratch = inds;
            }
            Ev::MacTimer {
                node,
                kind,
                gen,
                epoch,
            } => {
                // Timers armed by a MAC incarnation that has since crashed
                // (or not yet restarted) must not fire. (Generation
                // staleness is resolved *inside* the MAC's timer slots and
                // is invisible here; these tallies count engine-level
                // liveness only.)
                let stale = self.core.down[node.idx()] || epoch != self.core.epochs[node.idx()];
                if let Some(obs) = self.core.obs.as_mut() {
                    let slot = timer_idx(kind);
                    let n = &mut obs.nodes[node.idx()];
                    if stale {
                        n.timer_stale[slot] += 1;
                    } else {
                        n.timer_fire[slot] += 1;
                    }
                }
                if stale {
                    return;
                }
                let mut delivered = Vec::new();
                let mut outcomes = Vec::new();
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                    net: &self.nets[node.idx()],
                    delivered: &mut delivered,
                    outcomes: &mut outcomes,
                };
                self.macs[node.idx()].on_timer(&mut ctx, kind, gen);
                self.post_mac(node, delivered, outcomes);
            }
            Ev::Beacon { node } => {
                // A crashed node emits no beacons but keeps its tick alive
                // (and its jitter draw, for determinism) for the restart.
                if !self.core.down[node.idx()] {
                    let now = self.core.q.now();
                    let mut reqs = Vec::new();
                    self.nets[node.idx()].on_beacon_timer(now, &mut reqs);
                    for req in reqs {
                        self.submit(node, req);
                    }
                }
                // Next beacon: the nominal period plus a little jitter so
                // beacons never phase-lock with the data traffic. With a
                // beacon plan attached the jitter was pre-drawn into the
                // timetable (same stream, same draw order, same values).
                let next = match self.beacon_plan.as_mut() {
                    Some(plan) => plan.next_fire(node, self.core.q.now()),
                    None => {
                        let jitter = SimTime::from_nanos(self.sched_rng.below(BEACON_JITTER_NS));
                        self.core.q.now() + self.cfg.beacon_period + jitter
                    }
                };
                self.core.q.push(next, Ev::Beacon { node });
            }
            Ev::Source => {
                if self.packets_left == 0 {
                    return;
                }
                if self.core.down[0] {
                    // The source rides out its own crash: packets are
                    // deferred, not silently dropped.
                    self.core
                        .q
                        .push_after(self.cfg.source_interval(), Ev::Source);
                    return;
                }
                self.packets_left -= 1;
                let now = self.core.q.now();
                let mut reqs = Vec::new();
                self.nets[0].on_source_timer(now, &mut reqs);
                for req in reqs {
                    self.submit(NodeId(0), req);
                }
                if self.packets_left > 0 {
                    self.core
                        .q
                        .push_after(self.cfg.source_interval(), Ev::Source);
                }
            }
            Ev::Fault(fe) => self.on_fault(fe),
        }
    }

    fn on_fault(&mut self, fe: FaultEv) {
        match fe {
            FaultEv::NodeDown { node } => {
                self.trace(node, TraceWhat::Fault { label: "crash" });
                self.core.down[node.idx()] = true;
                self.crash_keys[node.idx()] = self.core.q.current_key();
                if let Some(f) = self.faults.as_mut() {
                    f.crashes += 1;
                }
                // Silence the radio: abort any transmission in flight and
                // drop both busy tones.
                if self.core.channel.is_transmitting(node) {
                    self.core.channel.abort_tx(&mut self.core.q, node);
                }
                for tone in [Tone::Rbt, Tone::Abt] {
                    if self.core.channel.is_emitting(node, tone) {
                        self.core.channel.stop_tone(&mut self.core.q, node, tone);
                    }
                }
                // The crash (not the protocol) cut short whatever was in
                // flight; wipe the node's conformance state accordingly.
                if let Some(chk) = self.core.check.as_mut() {
                    chk.on_node_down(node);
                }
            }
            FaultEv::NodeUp { node } => {
                self.trace(node, TraceWhat::Fault { label: "restart" });
                self.core.down[node.idx()] = false;
                // A restart loses all volatile state: fresh MAC and
                // network entities, and a bumped epoch so the dead
                // incarnation's timers cannot reach the new one.
                self.core.epochs[node.idx()] = self.core.epochs[node.idx()].wrapping_add(1);
                let dead = self.macs[node.idx()]
                    .backoff_horizon(self.crash_keys[node.idx()], self.cfg.end_time());
                self.replaced_horizon = self.replaced_horizon.max(dead);
                self.macs[node.idx()] = self.protocol.make_mac(node, self.cfg.mac);
                if self.core.obs.is_some() || self.core.check.is_some() {
                    // Keep the revived incarnation observable too.
                    self.macs[node.idx()].enable_transition_counting();
                }
                // Tone edges during the outage were delivered to no one;
                // resync the checker's sensed-tone model from the channel.
                if self.core.check.is_some() {
                    let now = self.core.q.now();
                    let rbt = self.core.channel.tone_present(node, Tone::Rbt);
                    let abt = self.core.channel.tone_present(node, Tone::Abt);
                    if let Some(chk) = self.core.check.as_mut() {
                        chk.on_node_up(now, node, rbt, abt);
                    }
                }
                let bless_cfg = BlessConfig {
                    beacon_period: self.cfg.beacon_period,
                    freshness: self.cfg.freshness,
                    root: NodeId(0),
                };
                let mut net = NetLayer::new(node, bless_cfg, self.cfg.payload);
                net.set_reliable_forwarding(self.cfg.reliable_forwarding);
                self.nets[node.idx()] = net;
            }
            FaultEv::JamOn { jammer } => {
                let (spec, seq) = {
                    let f = self.faults.as_mut().expect("jam event without fault plan");
                    let spec = f.plan.jammers[jammer].clone();
                    f.jam_bursts += 1;
                    f.jam_seq = f.jam_seq.wrapping_add(1);
                    (spec, f.jam_seq)
                };
                let node = NodeId((self.cfg.nodes + jammer) as u16);
                let label = match spec.target {
                    JamTarget::Data => "jam-data",
                    JamTarget::Rbt => "jam-rbt",
                    JamTarget::Abt => "jam-abt",
                };
                self.trace(node, TraceWhat::Fault { label });
                match spec.target {
                    JamTarget::Data => {
                        // One garbage broadcast frame sized to the burst
                        // length; its payload never parses as a NetPayload,
                        // so even a clean reception dies above the MAC.
                        if !self.core.channel.is_transmitting(node) {
                            let bytes_per_ms = 1_000_000 / BYTE_TIME.nanos();
                            let len = (spec.burst_ms * bytes_per_ms).clamp(1, 1400) as usize;
                            let frame = Frame::data_unreliable(
                                node,
                                Dest::Broadcast,
                                Bytes::from(vec![0u8; len]),
                                seq,
                            );
                            self.core.channel.start_tx(&mut self.core.q, node, frame);
                        }
                    }
                    JamTarget::Rbt | JamTarget::Abt => {
                        let tone = match spec.target {
                            JamTarget::Rbt => Tone::Rbt,
                            _ => Tone::Abt,
                        };
                        // Overlapping bursts merge: the earliest JamOff
                        // wins. Keep burst_ms < period_ms for clean gaps.
                        if !self.core.channel.is_emitting(node, tone) {
                            self.core.channel.start_tone(&mut self.core.q, node, tone);
                        }
                        self.core.q.push_after(
                            SimTime::from_millis(spec.burst_ms),
                            Ev::Fault(FaultEv::JamOff { jammer }),
                        );
                    }
                }
                if spec.period_ms > 0 {
                    self.core.q.push_after(
                        SimTime::from_millis(spec.period_ms),
                        Ev::Fault(FaultEv::JamOn { jammer }),
                    );
                }
            }
            FaultEv::JamOff { jammer } => {
                let node = NodeId((self.cfg.nodes + jammer) as u16);
                let target = self
                    .faults
                    .as_ref()
                    .expect("jam event without fault plan")
                    .plan
                    .jammers[jammer]
                    .target;
                let tone = match target {
                    JamTarget::Rbt => Tone::Rbt,
                    JamTarget::Abt => Tone::Abt,
                    // Data bursts end on their own when the frame's
                    // airtime elapses.
                    JamTarget::Data => return,
                };
                if self.core.channel.is_emitting(node, tone) {
                    self.core.channel.stop_tone(&mut self.core.q, node, tone);
                }
            }
        }
    }

    /// Tally an indication into the per-node observability record. Only
    /// called with instrumentation attached — the run-level frame
    /// aggregates live in the channel (always on, counted at indication
    /// creation), so the detached path pays nothing here.
    fn observe_indication(&mut self, node: NodeId, ind: &Indication) {
        let now_ns = self.core.q.now().nanos();
        let Some(obs) = self.core.obs.as_mut() else {
            return;
        };
        let n = &mut obs.nodes[node.idx()];
        match ind {
            Indication::TxDone { frame, aborted, .. } => {
                n.tx[frame_kind_index(frame.kind)] += 1;
                if *aborted {
                    n.tx_aborted += 1;
                }
            }
            Indication::FrameRx { frame, ok, .. } => {
                let k = frame_kind_index(frame.kind);
                if *ok {
                    n.rx_ok[k] += 1;
                } else {
                    n.rx_corrupt[k] += 1;
                }
            }
            Indication::ToneChanged { tone, present, .. } => {
                let t = match tone {
                    Tone::Rbt => 0,
                    Tone::Abt => 1,
                };
                n.tone_edge(t, *present, now_ns);
            }
            Indication::CarrierOn { .. } | Indication::CarrierOff { .. } => {}
        }
    }

    fn indicate(&mut self, ind: &Indication) {
        let node = ind.node();
        // Jammer slots (channel indices past the protocol population) have
        // no MAC entity; crashed nodes have a dead one.
        if node.idx() >= self.macs.len() || self.core.down[node.idx()] {
            return;
        }
        if self.core.obs.is_some() {
            self.observe_indication(node, ind);
        }
        // The checker sees the indication before the MAC reacts, keeping its
        // sensed-state model in lockstep with what the MAC can observe.
        if let Some(chk) = self.core.check.as_mut() {
            chk.on_indication(self.core.q.now(), ind);
        }
        self.trace_indication(ind);
        let mut delivered = Vec::new();
        let mut outcomes = Vec::new();
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
            net: &self.nets[node.idx()],
            delivered: &mut delivered,
            outcomes: &mut outcomes,
        };
        self.macs[node.idx()].on_indication(&mut ctx, ind);
        self.post_mac(node, delivered, outcomes);
    }

    /// Route MAC deliveries up to the network layer and send any resulting
    /// forwards back down.
    fn post_mac(
        &mut self,
        node: NodeId,
        delivered: Vec<Arc<Frame>>,
        outcomes: Vec<(u64, TxOutcome)>,
    ) {
        let now = self.core.q.now();
        // Positive acknowledgments are cross-layer liveness evidence for
        // the tree (failures are already accounted in the MAC counters).
        for (_, outcome) in &outcomes {
            if let TxOutcome::Reliable {
                delivered: acked, ..
            } = outcome
            {
                self.nets[node.idx()].on_reliable_outcome(now, acked);
            }
        }
        if delivered.is_empty() {
            return;
        }
        if let Some(obs) = self.core.obs.as_mut() {
            obs.nodes[node.idx()].delivered += delivered.len() as u64;
        }
        let mut reqs = Vec::new();
        for frame in &delivered {
            if self.tracer.is_some() && frame.kind.is_data() {
                let (src, kind) = (frame.src, frame.kind);
                self.trace(node, TraceWhat::Deliver { src, kind });
            }
            self.nets[node.idx()].on_deliver(now, frame, &mut reqs);
        }
        for req in reqs {
            self.submit(node, req);
        }
    }

    /// Hand an upper-layer request to a node's MAC.
    fn submit(&mut self, node: NodeId, req: TxRequest) {
        if let Some(obs) = self.core.obs.as_mut() {
            obs.nodes[node.idx()].submitted += 1;
        }
        if self.tracer.is_some() {
            self.trace(
                node,
                TraceWhat::Submit {
                    reliable: req.reliable,
                    bytes: req.payload.len(),
                },
            );
        }
        let mut delivered = Vec::new();
        let mut outcomes = Vec::new();
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
            net: &self.nets[node.idx()],
            delivered: &mut delivered,
            outcomes: &mut outcomes,
        };
        self.macs[node.idx()].submit(&mut ctx, req);
        debug_assert!(delivered.is_empty(), "submit cannot deliver frames");
    }

    /// Close out the attached instrumentation and assemble its report.
    /// Separate from [`Runner::collect`] so the `RunReport` never depends
    /// on whether instrumentation was attached.
    fn finish_obs(&mut self) -> Option<ObsReport> {
        let mut obs = self.core.obs.take()?;
        let now_ns = self.core.q.now().nanos();
        for n in obs.nodes.iter_mut() {
            n.close_tones(now_ns);
        }
        let snapshots = match obs.sampler.as_mut() {
            Some(sampler) => {
                // One final sample so the series always covers end of run.
                let snap = self.snapshot_at(sampler.next_boundary_ns());
                sampler.record(snap);
                std::mem::take(&mut sampler.series)
            }
            None => Vec::new(),
        };
        let mut transition_labels: Vec<&'static str> = Vec::new();
        for (i, mac) in self.macs.iter().enumerate() {
            if let Some((labels, matrix)) = mac.transitions() {
                if transition_labels.is_empty() {
                    transition_labels = labels.to_vec();
                }
                obs.nodes[i].transitions = matrix;
            }
        }
        let mut reg = Registry::new();
        let counter = |reg: &mut Registry, name, v| {
            let id = reg.counter(name);
            reg.add(id, v);
        };
        let gauge = |reg: &mut Registry, name, v| {
            let id = reg.gauge(name);
            reg.set(id, v);
        };
        counter(&mut reg, "engine.events_popped", self.core.q.total_popped());
        counter(&mut reg, "engine.events_pushed", self.core.q.total_pushed());
        gauge(
            &mut reg,
            "queue.depth_high_water",
            self.core.q.depth_high_water() as u64,
        );
        gauge(&mut reg, "queue.capacity", self.core.q.capacity() as u64);
        let phy = self.core.channel.obs_stats();
        counter(&mut reg, "phy.pool_hits", phy.pool_hits);
        counter(&mut reg, "phy.pool_misses", phy.pool_misses);
        if let Some(grid) = phy.grid {
            counter(&mut reg, "grid.refreshes", grid.refreshes);
            counter(&mut reg, "grid.rebuckets", grid.rebuckets);
        }
        counter(&mut reg, "fault.frames_corrupted", phy.faults_injected);
        counter(
            &mut reg,
            "fault.crashes",
            self.faults.as_ref().map_or(0, |f| f.crashes),
        );
        counter(
            &mut reg,
            "fault.jam_bursts",
            self.faults.as_ref().map_or(0, |f| f.jam_bursts),
        );
        Some(ObsReport {
            registry: reg,
            kernel: obs.kernel,
            timer_labels: &TIMER_LABELS,
            transition_labels,
            nodes: obs.nodes,
            snapshots,
        })
    }

    /// Strip the finished replication down to the state the report is
    /// computed from. The harvest is partition-friendly: every field is
    /// either per-node (merged by taking each node from its owner group),
    /// a commutative sum, or a maximum — which is what lets the sharded
    /// engine's merged report reproduce the oracle's bit-for-bit.
    pub(crate) fn harvest(self) -> Harvest {
        Harvest {
            frames: self.core.channel.frame_tallies(),
            faults_injected: self.core.channel.faults_injected(),
            events: self.retired.0 + self.core.q.total_popped(),
            now: self.final_clock(),
            packets_sent: self.cfg.packets - self.packets_left,
            crashes: self.faults.as_ref().map_or(0, |f| f.crashes),
            jam_bursts: self.faults.as_ref().map_or(0, |f| f.jam_bursts),
            nets: self.nets,
            counters: self.core.counters,
        }
    }

    /// The clock at the end of the run, as the per-slot backoff engine
    /// leaves it: the time of its last dispatched event. Lazy backoff
    /// elides slot events and leaves stale wake-ups of its own, so its
    /// queue clock is rebuilt instead from the last other dispatch and
    /// every MAC's per-slot backoff horizon. The per-slot run checks the
    /// rebuild against its real clock in debug builds.
    fn final_clock(&self) -> SimTime {
        let end = self.cfg.end_time();
        let at_end = EventKey {
            time: end,
            anchor: SimTime::MAX,
            tie: u64::MAX,
        };
        let rebuilt = self.macs.iter().enumerate().fold(
            self.last_plain.max(self.replaced_horizon),
            |h, (i, mac)| {
                let stop = if self.core.down[i] {
                    self.crash_keys[i]
                } else {
                    at_end
                };
                h.max(mac.backoff_horizon(stop, end))
            },
        );
        if !self.cfg.mac.per_slot_backoff {
            return rebuilt;
        }
        let clock = self.retired.1.max(self.core.q.now());
        debug_assert_eq!(rebuilt, clock, "per-slot clock rebuild drifted");
        clock
    }

    fn collect(self, seed: u64) -> RunReport {
        let cfg = self.cfg.clone();
        let protocol = self.protocol;
        let harvest = self.harvest();
        collect_report(&cfg, protocol, seed, &harvest)
    }
}

/// The order-independent residue of a finished replication: everything
/// [`collect_report`] needs, in a shape the sharded engine can merge from
/// per-group runs (per-node vectors indexed by global node id, plus
/// summable channel/fault tallies).
pub(crate) struct Harvest {
    pub(crate) nets: Vec<NetLayer>,
    pub(crate) counters: Vec<MacCounters>,
    pub(crate) frames: FrameTallies,
    pub(crate) faults_injected: u64,
    pub(crate) events: u64,
    pub(crate) now: SimTime,
    pub(crate) packets_sent: u64,
    pub(crate) crashes: u64,
    pub(crate) jam_bursts: u64,
}

/// Assemble a [`RunReport`] from a harvest. Factored out of the runner so
/// the oracle and the sharded engine compute their reports through the
/// same arithmetic, in the same global node order (float accumulation
/// order is part of bit-identity).
pub(crate) fn collect_report(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    h: &Harvest,
) -> RunReport {
    {
        let now = h.now;
        let n = cfg.nodes;
        let packets_sent = h.packets_sent;

        let mut receptions = 0;
        let mut delays: Vec<f64> = Vec::new();
        for (i, net) in h.nets.iter().enumerate() {
            if i != 0 {
                receptions += net.stats().received;
            }
            delays.extend(&net.stats().delays_s);
        }

        let nonleaf: Vec<usize> = (0..n)
            .filter(|&i| h.counters[i].reliable_accepted > 0)
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let drop_ratios: Vec<f64> = nonleaf
            .iter()
            .map(|&i| h.counters[i].drop_ratio())
            .collect();
        let retx_ratios: Vec<f64> = nonleaf
            .iter()
            .map(|&i| h.counters[i].retx_ratio())
            .collect();
        // R_txoh is reported as a ratio of sums over the non-leaf nodes
        // rather than a mean of per-node ratios: in a dynamic tree a node
        // that forwarded only one or two packets (a transient parent) has
        // a tiny denominator and a huge ratio, and a handful of such
        // outliers dominate the mean. The paper's stable GloMoSim trees do
        // not produce them; the ratio of sums recovers the same "typical
        // overhead per unit of data air time" the paper plots.
        let (txoh_num, txoh_den) = nonleaf.iter().fold((0u64, 0u64), |(n, d), &i| {
            let c = &h.counters[i];
            (
                n + (c.ctrl_airtime + c.abt_check_time).nanos(),
                d + c.reliable_data_airtime.nanos(),
            )
        });
        let txoh_pooled = if txoh_den == 0 {
            0.0
        } else {
            txoh_num as f64 / txoh_den as f64
        };
        let abort_ratios: Vec<f64> = nonleaf
            .iter()
            .map(|&i| h.counters[i].abort_ratio())
            .collect();

        let mut mrts_lengths: Vec<f64> = Vec::new();
        for c in &h.counters {
            mrts_lengths.extend(c.mrts_lengths.iter().map(|&l| l as f64));
        }

        // Tree statistics at end of run (§4.1.1's Fig. 6 numbers).
        let hops: Vec<f64> = h
            .nets
            .iter()
            .enumerate()
            .filter(|(i, net)| *i != 0 && net.bless().hops() != u32::MAX)
            .map(|(_, net)| net.bless().hops() as f64)
            .collect();
        let children: Vec<f64> = h
            .nets
            .iter()
            .map(|net| net.children(now).len() as f64)
            .filter(|&c| c > 0.0)
            .collect();
        let frames = h.frames;

        RunReport {
            protocol: protocol.label().to_string(),
            scenario: cfg.name.clone(),
            rate_pps: cfg.rate_pps,
            seed,
            packets_sent,
            expected_receptions: packets_sent * (n as u64 - 1),
            receptions,
            nonleaf_nodes: nonleaf.len() as u64,
            drop_ratio_avg: mean(&drop_ratios),
            retx_ratio_avg: mean(&retx_ratios),
            txoh_ratio_avg: txoh_pooled,
            abort_avg: mean(&abort_ratios),
            abort_p99: percentile(&abort_ratios, 99.0),
            abort_max: abort_ratios.iter().fold(0.0f64, |a, &b| a.max(b)),
            mrts_len_avg: mean(&mrts_lengths),
            mrts_len_p99: percentile(&mrts_lengths, 99.0),
            mrts_len_max: mrts_lengths.iter().fold(0.0f64, |a, &b| a.max(b)),
            e2e_delay_avg_s: mean(&delays),
            delay_samples: delays.len() as u64,
            hops_avg: mean(&hops),
            hops_p99: percentile(&hops, 99.0),
            children_avg: mean(&children),
            children_p99: percentile(&children, 99.0),
            events: h.events,
            tx_frames: frames.tx_frames,
            tx_aborted: frames.tx_aborted,
            rx_frames_ok: frames.rx_ok,
            rx_frames_corrupt: frames.rx_corrupt,
            sim_secs: now.as_secs_f64(),
            faults_injected: h.faults_injected,
            fault_crashes: h.crashes,
            fault_jam_bursts: h.jam_bursts,
        }
    }
}

/// Run one replication and return its report. `cfg.queue` picks the event
/// queue; either kind yields the identical report.
pub fn run_replication(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> RunReport {
    run_replication_with_faults(cfg, protocol, seed, &FaultPlan::none())
}

/// Run one replication under a fault plan and return its report.
///
/// With `FaultPlan::none()` this is bit-identical to [`run_replication`]
/// (enforced by `tests/faults_determinism.rs`).
pub fn run_replication_with_faults(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> RunReport {
    match cfg.queue {
        QueueKind::Calendar => Runner::with_faults(cfg, protocol, seed, plan).run(seed),
        QueueKind::Heap => Runner::with_faults_heap(cfg, protocol, seed, plan).run(seed),
    }
}

/// Run one replication with the conformance checker attached (regardless
/// of `cfg.check`) and return the conformance report alongside the run's,
/// without panicking on violations. The fuzzer's entry point.
pub fn run_replication_checked(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> (RunReport, CheckReport) {
    fn go<Q: SimQueue<Ev>>(mut runner: Runner<Q>, seed: u64) -> (RunReport, CheckReport) {
        runner.ensure_check();
        runner.run_checked(seed)
    }
    match cfg.queue {
        QueueKind::Calendar => go(Runner::with_faults(cfg, protocol, seed, plan), seed),
        QueueKind::Heap => go(Runner::with_faults_heap(cfg, protocol, seed, plan), seed),
    }
}

/// One fully instrumented replication: checker always attached, the obs
/// layer attached when `obs` is `Some`. Returns the run report, the
/// observability report (if requested), and the conformance verdict —
/// without panicking on violations.
pub fn run_replication_instrumented(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
    obs: Option<crate::ObsConfig>,
) -> (RunReport, Option<ObsReport>, CheckReport) {
    fn go<Q: SimQueue<Ev>>(
        mut runner: Runner<Q>,
        seed: u64,
        obs: Option<crate::ObsConfig>,
    ) -> (RunReport, Option<ObsReport>, CheckReport) {
        runner.ensure_check();
        if let Some(o) = obs {
            runner.set_obs(o);
        }
        runner.run_instrumented(seed)
    }
    match cfg.queue {
        QueueKind::Calendar => go(Runner::with_faults(cfg, protocol, seed, plan), seed, obs),
        QueueKind::Heap => go(
            Runner::with_faults_heap(cfg, protocol, seed, plan),
            seed,
            obs,
        ),
    }
}

#[cfg(test)]
mod tests;
