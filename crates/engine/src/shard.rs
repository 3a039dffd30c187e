//! The sharded conservative-sync engine (DESIGN.md §10).
//!
//! A replication whose radio graph falls apart into several connected
//! components runs as one or more *shard groups* on parallel threads:
//!
//! * **Groups are radio components.** Every event the engine generates
//!   targets either its emitting slot or a receiver within radio range,
//!   so a connected component of the in-range graph over the channel
//!   slots (protocol nodes and jammers) is *causally closed*: no event
//!   raised inside it can reach a slot outside. `radio_components`
//!   finds the components with a union-find over an x-sweep of the
//!   initial positions.
//! * **Components are packed into at most `cfg.shards` bins** by
//!   longest-processing-time first (`pack_bins`), weighed by a
//!   deterministic cost estimate computed from the scenario alone
//!   (`component_costs`). The estimate only places work; results never
//!   depend on it, so it draws from no RNG stream.
//! * **Each bin is one group**: one full-width [`Runner`] world (global
//!   node indexing, RNG stream derivation and the spatial grid untouched)
//!   on its own thread. The group runs its components back to back, each
//!   restricted to its own slots on a fresh flat queue
//!   (`Runner::begin_part`), so only one component's node state is hot
//!   in cache at a time. The serial oracle's execution restricted to a
//!   causally closed subset *is* that subset's own execution, because
//!   FIFO `(time, seq)` tie-breaks are preserved on subsequences.
//! * The one shared RNG stream crossing groups — the beacon scheduler —
//!   is closed under the beacon subsystem, so its draws are pre-played
//!   into a `BeaconTimetable` that every group reads instead of a live
//!   stream.
//!
//! **One bin means the flat runner**, with no scope or timetable: a
//! single component, `shards = 1`, or a scenario where causal closure
//! cannot be proven cheaply — mobility (nodes roam the whole plane) or a
//! positive BER (the channel-noise draws are globally sequenced). An
//! attached tracer is *not* a fallback: each traced component buffers its
//! emissions with a per-dispatch log, and `merge_traces` interleaves
//! the buffers back into the oracle's global `(time, seq)` order before
//! the user's tracer sees them (byte-identical JSONL, pinned by
//! `tests/golden_traces.rs`).
//!
//! Per-group results merge back losslessly: per-node state is taken from
//! each node's owner group in global node order (float accumulation order
//! is part of bit-identity), channel/fault tallies are sums, and the final
//! clock is the max. `tests/shard_equivalence.rs` holds the whole stack to
//! `RunReport` bit-identity against [`run_replication`] at 1/2/4/8 shards.
//!
//! [`run_replication`]: crate::run_replication

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use rmac_check::CheckReport;
use rmac_faults::FaultPlan;
use rmac_metrics::RunReport;
use rmac_mobility::{MobilityKind, Pos};
use rmac_phy::FrameTallies;
use rmac_sim::{CalendarQueue, EventQueue, SimQueue, SimRng, SimTime};

use crate::config::{Protocol, QueueKind, ScenarioConfig};
use crate::trace::{TraceEvent, Tracer};
use crate::world::{
    build_motions, collect_report, seed_slots, BeaconPlan, DispatchRec, Ev, Harvest, Runner,
    BEACON_JITTER_NS,
};

/// Guard margin on the radio range when testing whether two slots are
/// linked. Linking strictly more than the channel does is always safe (it
/// only costs parallelism); this absorbs any floating-point slack in the
/// channel's own `dist ≤ range` comparison.
const RANGE_EPS: f64 = 1e-6;

/// The radio components of the channel slots at their initial positions.
pub(crate) struct Components {
    /// Per channel slot (protocol nodes, then jammers): its component,
    /// numbered in order of each component's smallest slot.
    pub(crate) of_slot: Vec<usize>,
    /// Per channel slot: in-range partner slots.
    pub(crate) degree: Vec<u32>,
    /// Number of components.
    pub(crate) count: usize,
}

/// Union every slot pair within radio range and return the connected
/// components. A plane sweep along x bounds the pair checks: only slots
/// with `|dx| ≤ range` can link, so a sliding window keeps the scan
/// near-linear for spread-out layouts.
pub(crate) fn radio_components(positions: &[Pos], range_m: f64) -> Components {
    fn find(uf: &mut [usize], mut i: usize) -> usize {
        while uf[i] != i {
            uf[i] = uf[uf[i]];
            i = uf[i];
        }
        i
    }
    let n = positions.len();
    let mut uf: Vec<usize> = (0..n).collect();
    let mut degree = vec![0u32; n];
    let reach = range_m + RANGE_EPS;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        positions[a]
            .x
            .partial_cmp(&positions[b].x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut lo = 0usize;
    for k in 0..n {
        let i = order[k];
        while positions[order[lo]].x < positions[i].x - reach {
            lo += 1;
        }
        for &j in &order[lo..k] {
            let dx = positions[i].x - positions[j].x;
            let dy = positions[i].y - positions[j].y;
            if dx * dx + dy * dy <= reach * reach {
                degree[i] += 1;
                degree[j] += 1;
                let (ri, rj) = (find(&mut uf, i), find(&mut uf, j));
                uf[ri] = rj;
            }
        }
    }
    let mut id_of_root = vec![usize::MAX; n];
    let mut count = 0;
    let of_slot = (0..n)
        .map(|i| {
            let r = find(&mut uf, i);
            if id_of_root[r] == usize::MAX {
                id_of_root[r] = count;
                count += 1;
            }
            id_of_root[r]
        })
        .collect();
    Components {
        of_slot,
        degree,
        count,
    }
}

/// Estimated dispatch cost of each component, from the scenario alone:
/// `Σ (degree + 1) × (beacons per node + [source component] × packets ×
/// frames per packet)` over its protocol nodes. Every transmission costs
/// its sender plus one reception per in-range partner; every node beacons
/// `end_time / beacon_period` times, and every node in the source's
/// component forwards (or receives) each packet. Jammer slots carry no
/// protocol traffic and weigh nothing.
pub(crate) fn component_costs(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    comps: &Components,
) -> Vec<u64> {
    let beacons = cfg.end_time().nanos() / cfg.beacon_period.nanos().max(1);
    let data = cfg.packets * protocol.frames_per_packet();
    let source = comps.of_slot[0];
    let mut cost = vec![0u64; comps.count];
    for i in 0..cfg.nodes {
        let c = comps.of_slot[i];
        let per_tx = beacons + if c == source { data } else { 0 };
        cost[c] += (u64::from(comps.degree[i]) + 1) * per_tx;
    }
    cost
}

/// Longest-processing-time-first packing: components in descending cost
/// order (ties by component id) each go to the bin with the least load so
/// far (ties to the bin holding fewer components, then the lowest index,
/// so no bin stays empty). Returns the component ids of each of the
/// `min(bins, components)` bins; bin 0 receives the heaviest component.
pub(crate) fn pack_bins(costs: &[u64], bins: usize) -> Vec<Vec<usize>> {
    let nbins = bins.min(costs.len()).max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(costs[c]), c));
    let mut packed: Vec<Vec<usize>> = vec![Vec::new(); nbins];
    let mut load = vec![0u64; nbins];
    for c in order {
        let b = (0..nbins)
            .min_by_key(|&b| (load[b], packed[b].len(), b))
            .expect("at least one bin");
        packed[b].push(c);
        load[b] += costs[c];
    }
    packed
}

/// The beacon schedule, pre-played from the scheduler RNG stream.
///
/// The oracle's `sched_rng` (the master's `split(3)`) is consumed *only*
/// by the beacon subsystem: one initial-stagger draw per node in node
/// order, then one jitter draw per beacon dispatch, in global dispatch
/// order — crashed nodes keep ticking (and drawing), so the sequence never
/// depends on any other subsystem. That closure means the whole schedule
/// can be computed up front by replaying just the beacon events through a
/// miniature queue; each shard group then reads its nodes' fire times from
/// the shared table, consuming exactly "its" draws without a live shared
/// stream.
pub(crate) struct BeaconTimetable;

impl BeaconTimetable {
    /// Per node: absolute beacon fire times, covering every dispatch at or
    /// before `end` plus one successor each (so [`BeaconPlan`] can always
    /// read the next fire).
    pub(crate) fn build(
        nodes: usize,
        period: SimTime,
        end: SimTime,
        sched: &mut SimRng,
    ) -> Vec<Vec<SimTime>> {
        let mut times: Vec<Vec<SimTime>> = vec![Vec::new(); nodes];
        let mut q: EventQueue<u16> = EventQueue::with_capacity(nodes.max(16));
        // Initial staggers: drawn in node order, exactly as the oracle's
        // seeding loop does.
        for (i, t) in times.iter_mut().enumerate() {
            let at = SimTime::from_nanos(sched.below(period.nanos().max(1)));
            t.push(at);
            q.push(at, i as u16);
        }
        // Replay dispatches. Beacon events pop here in the same relative
        // order as in the full queue: pushes happen at the dispatch of the
        // predecessor beacon (same order by induction) and simultaneous
        // beacons tie-break FIFO in both queues. Interleaved non-beacon
        // events neither draw from the stream nor reorder beacons.
        while let Some((t, node)) = q.pop() {
            if t > end {
                // Time-ordered pops: everything remaining is also past the
                // end of the run and never dispatches.
                break;
            }
            let jitter = SimTime::from_nanos(sched.below(BEACON_JITTER_NS));
            let next = t + period + jitter;
            times[node as usize].push(next);
            q.push(next, node);
        }
        times
    }
}

/// Scheduling statistics of one sharded replication.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Configured cap on concurrent groups (`cfg.shards`).
    pub shards: usize,
    /// Shard groups the run executed (1 when it routed to the flat
    /// runner).
    pub groups: usize,
    /// Events pushed across groups. Always 0: groups are causally closed
    /// bins of radio components, so no event ever leaves its group. Kept
    /// as a field because benchmark rows report it.
    pub cross_pushes: u64,
    /// Per-group scheduling breakdown, in group order (group 0 holds the
    /// heaviest component). The shard-balance raw material for
    /// `obs_report` ([`rmac_obs::render_shard_balance`]).
    pub group_stats: Vec<GroupStats>,
}

impl ShardStats {
    /// The per-group breakdown as [`rmac_obs`] shard-balance rows.
    pub fn balance_rows(&self) -> Vec<rmac_obs::ShardGroupRow> {
        self.group_stats
            .iter()
            .map(|g| rmac_obs::ShardGroupRow {
                nodes: g.nodes,
                components: g.components,
                est_share: g.est_share,
                events: g.events,
                wall_ns: g.wall_ns,
            })
            .collect()
    }
}

/// One shard group's scheduling statistics.
#[derive(Clone, Debug)]
pub struct GroupStats {
    /// Protocol nodes the group owns.
    pub nodes: usize,
    /// Radio components packed into the group (1 when the run routed to
    /// the flat runner: one component, mobility, BER > 0 or
    /// `shards = 1`).
    pub components: usize,
    /// The group's share of the estimated cost of the whole run
    /// (`component_costs`), for comparison with its actual event share.
    pub est_share: f64,
    /// Events the group dispatched.
    pub events: u64,
    /// Wall-clock time the group's worker spent on it (assembly + run).
    /// Wall readings live outside the determinism domain: they feed the
    /// balance table only, never a `RunReport` or the campaign store.
    pub wall_ns: u64,
}

/// One part's buffered trace: every event the part emitted (in its own
/// dispatch order) plus the per-dispatch log that lets the merge
/// interleave buffers back into the oracle's global order.
struct TraceCapture {
    events: Vec<TraceEvent>,
    log: Vec<DispatchRec>,
}

/// One bin of the packing: the components a group runs and its share of
/// the estimated cost.
struct Bin {
    /// Per component in the bin: its slot mask (owned channel slots).
    parts: Vec<Vec<bool>>,
    /// Per channel slot: owned by any of the bin's components?
    owned: Vec<bool>,
    nodes: usize,
    est_share: f64,
}

/// Result of one shard group's run.
struct GroupRun {
    harvest: Harvest,
    /// Per part, in run order: its conformance report when collected.
    checks: Vec<CheckReport>,
    wall_ns: u64,
    /// Per part, in run order: its buffered trace when captured.
    traces: Vec<TraceCapture>,
}

/// A replication driven by the sharded engine. Construction mirrors
/// [`Runner`]; `cfg.shards` caps the number of concurrent groups.
pub struct ShardedRunner {
    cfg: ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: FaultPlan,
    tracer: Option<Tracer>,
}

impl ShardedRunner {
    /// Build a sharded replication from a scenario, protocol and seed.
    /// Only copies the scenario: the component analysis runs with the
    /// replication.
    pub fn new(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> ShardedRunner {
        ShardedRunner::with_faults(cfg, protocol, seed, &FaultPlan::none())
    }

    /// Build a sharded replication with a fault plan attached.
    pub fn with_faults(
        cfg: &ScenarioConfig,
        protocol: Protocol,
        seed: u64,
        plan: &FaultPlan,
    ) -> ShardedRunner {
        ShardedRunner {
            cfg: cfg.clone(),
            protocol,
            seed,
            plan: plan.clone(),
            tracer: None,
        }
    }

    /// Attach a trace observer. Tracing does not restrict the group
    /// decomposition: a multi-group run buffers each group's emissions and
    /// interleaves the buffers back into the oracle's global order before
    /// the observer sees them, so the golden traces replay byte-stable at
    /// any shard count (`tests/golden_traces.rs`).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Run to completion and produce the replication's report (panicking
    /// on conformance violations when `cfg.check` is set, like
    /// [`Runner::run`]).
    pub fn run(self) -> RunReport {
        self.run_with_stats().0
    }

    /// Run to completion, also returning the scheduling statistics.
    pub fn run_with_stats(self) -> (RunReport, ShardStats) {
        let (report, _, stats) = self.execute(false);
        (report, stats)
    }

    /// Run with the conformance checker attached (regardless of
    /// `cfg.check`) and return the merged per-group conformance report
    /// instead of panicking — the fuzzer's sharded entry point. Violations
    /// are listed component by component (event order within each).
    pub fn run_checked(self) -> (RunReport, CheckReport) {
        let (report, check, _) = self.execute(true);
        (report, check.expect("checked run lost its report"))
    }

    /// Dispatch on `cfg.queue`: every component runs on a flat queue of
    /// the configured kind, with bit-identical results either way.
    fn execute(self, collect_check: bool) -> (RunReport, Option<CheckReport>, ShardStats) {
        match self.cfg.queue {
            QueueKind::Calendar => self.execute_with::<CalendarQueue<Ev>>(collect_check),
            QueueKind::Heap => self.execute_with::<EventQueue<Ev>>(collect_check),
        }
    }

    /// Pack the scenario's radio components into at most `cfg.shards`
    /// bins. Empty when the scenario must run flat: `shards = 1`, mobility
    /// (nodes roam across components) or a positive BER (the shared
    /// channel-noise stream sequences every reception).
    fn bins(&self) -> Vec<Bin> {
        let shards = self.cfg.shards.max(1);
        let frozen =
            matches!(self.cfg.mobility, MobilityKind::Stationary) && self.cfg.ber_per_bit == 0.0;
        if shards == 1 || !frozen {
            return Vec::new();
        }
        let master = SimRng::new(self.seed);
        let positions: Vec<Pos> = build_motions(&self.cfg, &self.plan, &master)
            .iter_mut()
            .map(|m| m.position_at(SimTime::ZERO))
            .collect();
        let comps = radio_components(&positions, self.cfg.range_m);
        let costs = component_costs(&self.cfg, self.protocol, &comps);
        let total: u64 = costs.iter().sum();
        let packed = pack_bins(&costs, shards);
        let nbins = packed.len();
        packed
            .into_iter()
            .map(|members| {
                let parts: Vec<Vec<bool>> = members
                    .iter()
                    .map(|&c| comps.of_slot.iter().map(|&k| k == c).collect())
                    .collect();
                let owned: Vec<bool> = (0..comps.of_slot.len())
                    .map(|i| parts.iter().any(|p| p[i]))
                    .collect();
                let cost: u64 = members.iter().map(|&c| costs[c]).sum();
                Bin {
                    nodes: owned[..self.cfg.nodes].iter().filter(|&&o| o).count(),
                    parts,
                    owned,
                    est_share: if total == 0 {
                        1.0 / nbins as f64
                    } else {
                        cost as f64 / total as f64
                    },
                }
            })
            .collect()
    }

    fn execute_with<Q: SimQueue<Ev>>(
        mut self,
        collect_check: bool,
    ) -> (RunReport, Option<CheckReport>, ShardStats) {
        let shards = self.cfg.shards.max(1);
        let bins = self.bins();
        let cfg = &self.cfg;
        let plan = &self.plan;
        let protocol = self.protocol;
        let seed = self.seed;
        let mut tracer = self.tracer.take();

        if bins.len() <= 1 {
            // One bin: the flat runner, streaming straight into the
            // user's tracer.
            let started = std::time::Instant::now();
            let mut runner: Runner<Q> = Runner::assemble(cfg, protocol, seed, plan, None);
            if let Some(t) = tracer {
                runner.set_tracer(t);
            }
            if collect_check {
                runner.ensure_check();
            }
            runner.run_loop();
            let check = if collect_check {
                runner.finish_check()
            } else {
                runner.assert_check_clean();
                None
            };
            let harvest = runner.harvest();
            let stats = ShardStats {
                shards,
                groups: 1,
                cross_pushes: 0,
                group_stats: vec![GroupStats {
                    nodes: cfg.nodes,
                    components: 1,
                    est_share: 1.0,
                    events: harvest.events,
                    wall_ns: started.elapsed().as_nanos() as u64,
                }],
            };
            let check = collect_check.then(|| merge_checks(check.into_iter().collect()));
            return (collect_report(cfg, protocol, seed, &harvest), check, stats);
        }

        // Groups read the pre-played beacon schedule instead of a live
        // scheduler stream.
        let times = Arc::new(BeaconTimetable::build(
            cfg.nodes,
            cfg.beacon_period,
            cfg.end_time(),
            &mut SimRng::new(seed).split(3),
        ));
        let capture = tracer.is_some();
        // One world per group; its components run back to back, each on a
        // fresh queue, so only one component's node state is hot at a
        // time. Traced parts buffer their emissions and log each dispatch
        // so the merge below can restore the oracle's global order.
        let run_group = |bin: &Bin| -> GroupRun {
            let started = std::time::Instant::now();
            let mut runner: Runner<Q> = Runner::assemble(
                cfg,
                protocol,
                seed,
                plan,
                Some(BeaconPlan::new(Arc::clone(&times))),
            );
            let buf: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
            if capture {
                let sink = Arc::clone(&buf);
                runner.set_tracer(Box::new(move |e| {
                    sink.lock().expect("trace buffer poisoned").push(e.clone())
                }));
            }
            let mut checks = Vec::new();
            let mut traces = Vec::new();
            for owned in &bin.parts {
                runner.begin_part(owned.clone());
                if collect_check || cfg.check {
                    runner.ensure_check();
                }
                if capture {
                    let log = runner.run_loop_logged(&buf);
                    let events = std::mem::take(&mut *buf.lock().expect("trace buffer poisoned"));
                    traces.push(TraceCapture { events, log });
                } else {
                    runner.run_loop();
                }
                if collect_check {
                    checks.extend(runner.finish_check());
                } else {
                    runner.assert_check_clean();
                }
            }
            GroupRun {
                harvest: runner.harvest(),
                checks,
                wall_ns: started.elapsed().as_nanos() as u64,
                traces,
            }
        };

        // One worker per available core, capped by the group count.
        // Oversubscribing cores would only interleave the groups and
        // thrash their working sets against each other. Workers pull bins
        // in order, so the heaviest (bin 0) starts first.
        let workers = thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(bins.len());
        let mut results: Vec<GroupRun> = if workers <= 1 {
            bins.iter().map(run_group).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<GroupRun>>> =
                bins.iter().map(|_| Mutex::new(None)).collect();
            thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| loop {
                            let gi = next.fetch_add(1, Ordering::Relaxed);
                            let Some(b) = bins.get(gi) else { break };
                            let run = run_group(b);
                            *slots[gi].lock().expect("slot poisoned") = Some(run);
                        })
                    })
                    .collect();
                for h in handles {
                    // A group panic (e.g. a conformance breach under
                    // `cfg.check`) surfaces with its own message.
                    if let Err(payload) = h.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
            slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("slot poisoned")
                        .expect("worker pool left a group unrun")
                })
                .collect()
        };

        let stats = ShardStats {
            shards,
            groups: bins.len(),
            cross_pushes: 0,
            group_stats: results
                .iter()
                .zip(&bins)
                .map(|(r, b)| GroupStats {
                    nodes: b.nodes,
                    components: b.parts.len(),
                    est_share: b.est_share,
                    events: r.harvest.events,
                    wall_ns: r.wall_ns,
                })
                .collect(),
        };
        if let Some(tracer) = tracer.as_mut() {
            let parts: Vec<&[bool]> = bins
                .iter()
                .flat_map(|b| b.parts.iter().map(Vec::as_slice))
                .collect();
            let captures: Vec<TraceCapture> = results
                .iter_mut()
                .flat_map(|r| std::mem::take(&mut r.traces))
                .collect();
            merge_traces(tracer, &parts, cfg, plan, captures);
        }
        let mut results = results.into_iter();
        let first = results.next().expect("at least one shard group");
        let mut merged = first.harvest;
        let mut checks = first.checks;
        for (r, bin) in results.zip(&bins[1..]) {
            let h = r.harvest;
            // Per-node state comes from each node's owner group; the merge
            // walks global node order so downstream float accumulation in
            // `collect_report` sums in the oracle's order.
            for (i, (net, ctr)) in h.nets.into_iter().zip(h.counters).enumerate() {
                if bin.owned[i] {
                    merged.nets[i] = net;
                    merged.counters[i] = ctr;
                }
            }
            add_tallies(&mut merged.frames, &h.frames);
            merged.faults_injected += h.faults_injected;
            merged.events += h.events;
            merged.now = merged.now.max(h.now);
            merged.packets_sent += h.packets_sent;
            merged.crashes += h.crashes;
            merged.jam_bursts += h.jam_bursts;
            checks.extend(r.checks);
        }
        let report = collect_report(cfg, protocol, seed, &merged);
        let check = collect_check.then(|| merge_checks(checks));
        (report, check, stats)
    }
}

/// Interleave per-part trace buffers (one per component run) back into
/// the oracle's global emission order and replay them through the user's
/// tracer.
///
/// The oracle dispatches events in global `(time, seq)` order, where `seq`
/// is the push counter at push time; each part dispatched its own slice
/// of that order, tagging every dispatch with the *part-local* push seq
/// of the popped event ([`DispatchRec`]). The reconstruction recovers each
/// local seq's global rank by replaying the push arithmetic:
///
/// 1. Seed pushes: the oracle seeds in one fixed enumeration
///    ([`seed_slots`]) and a part seeds exactly its owned slots in the
///    same relative order, so a part's k-th seed push has the global rank
///    of the k-th owned slot in the enumeration.
/// 2. Dispatch pushes: within one dispatch the part performs the same
///    pushes as the oracle (causal closure keeps every push in-part), so
///    walking dispatches in global order and handing out consecutive
///    global ranks to each dispatch's pushes reproduces the oracle's
///    assignment exactly.
///
/// The walk itself is the standard k-way merge: repeatedly take the part
/// whose next dispatch record has the smallest `(time, global rank)` key.
/// A popped event's rank is always already assigned when its record
/// reaches the head — its push belongs to an earlier record of the same
/// part (or to the seeds), and records within a part are consumed in
/// order.
fn merge_traces(
    tracer: &mut Tracer,
    parts: &[&[bool]],
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    captures: Vec<TraceCapture>,
) {
    // Per part: local seq -> global rank, seeded from the enumeration.
    let seeds = seed_slots(cfg, plan);
    let mut rank_of: Vec<Vec<u64>> = vec![Vec::new(); parts.len()];
    for (rank, &slot) in seeds.iter().enumerate() {
        let pi = parts
            .iter()
            .position(|p| p[slot])
            .expect("parts partition every slot");
        rank_of[pi].push(rank as u64);
    }
    let mut next_rank = seeds.len() as u64;
    let mut cursor = vec![0usize; parts.len()]; // next dispatch record
    let mut emitted = vec![0usize; parts.len()]; // next buffered trace event
    loop {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (pi, cap) in captures.iter().enumerate() {
            if let Some(rec) = cap.log.get(cursor[pi]) {
                let rank = rank_of[pi][rec.seq as usize];
                if best.is_none_or(|(bt, br, _)| (rec.t, rank) < (bt, br)) {
                    best = Some((rec.t, rank, pi));
                }
            }
        }
        let Some((_, _, pi)) = best else { break };
        let rec = captures[pi].log[cursor[pi]];
        cursor[pi] += 1;
        for _ in 0..rec.pushes {
            rank_of[pi].push(next_rank);
            next_rank += 1;
        }
        for ev in &captures[pi].events[emitted[pi]..emitted[pi] + rec.traces as usize] {
            tracer(ev);
        }
        emitted[pi] += rec.traces as usize;
    }
}

fn add_tallies(into: &mut FrameTallies, from: &FrameTallies) {
    for (a, b) in into.tx_frames.iter_mut().zip(from.tx_frames) {
        *a += b;
    }
    into.tx_aborted += from.tx_aborted;
    for (a, b) in into.rx_ok.iter_mut().zip(from.rx_ok) {
        *a += b;
    }
    for (a, b) in into.rx_corrupt.iter_mut().zip(from.rx_corrupt) {
        *a += b;
    }
}

/// Concatenate per-group conformance reports: violations in group order,
/// gate counters summed, truncation sticky.
fn merge_checks(reports: Vec<CheckReport>) -> CheckReport {
    let mut reports = reports.into_iter();
    let mut out = reports.next().unwrap_or(CheckReport {
        violations: Vec::new(),
        tx_checked: 0,
        rx_ok_checked: 0,
        tone_emissions: 0,
        transition_nodes: 0,
        truncated: false,
    });
    for r in reports {
        out.violations.extend(r.violations);
        out.tx_checked += r.tx_checked;
        out.rx_ok_checked += r.rx_ok_checked;
        out.tone_emissions += r.tone_emissions;
        out.transition_nodes += r.transition_nodes;
        out.truncated |= r.truncated;
    }
    out
}

/// Run one replication under the sharded engine and return its report
/// (bit-identical to [`run_replication`] for any `cfg.shards`).
///
/// [`run_replication`]: crate::run_replication
pub fn run_replication_sharded(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> RunReport {
    ShardedRunner::new(cfg, protocol, seed).run()
}

/// Run one sharded replication under a fault plan.
pub fn run_replication_sharded_with_faults(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> RunReport {
    ShardedRunner::with_faults(cfg, protocol, seed, plan).run()
}

/// Run one sharded replication with the conformance checker attached on
/// every shard group, returning the merged report without panicking on
/// violations. The fuzzer's sharded entry point.
pub fn run_replication_sharded_checked(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> (RunReport, CheckReport) {
    ShardedRunner::with_faults(cfg, protocol, seed, plan).run_checked()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_replication;

    #[test]
    fn isolated_clusters_form_separate_components() {
        // Two clusters 380 m apart with a 75 m radio.
        let pos = [
            Pos::new(50.0, 50.0),
            Pos::new(60.0, 50.0),
            Pos::new(440.0, 50.0),
            Pos::new(450.0, 50.0),
        ];
        let comps = radio_components(&pos, 75.0);
        assert_eq!(comps.count, 2);
        assert_eq!(comps.of_slot, vec![0, 0, 1, 1]);
        assert_eq!(comps.degree, vec![1, 1, 1, 1]);
    }

    #[test]
    fn linking_is_transitive() {
        // A chain: 0–1 and 1–2 in range, 0 and 2 far apart, 3 alone.
        let pos = [
            Pos::new(0.0, 0.0),
            Pos::new(70.0, 0.0),
            Pos::new(140.0, 0.0),
            Pos::new(400.0, 0.0),
        ];
        let comps = radio_components(&pos, 75.0);
        assert_eq!(comps.of_slot, vec![0, 0, 0, 1]);
        assert_eq!(comps.degree, vec![1, 2, 1, 0]);
    }

    #[test]
    fn lpt_balances_and_never_leaves_a_bin_empty() {
        // Heaviest first: 7 alone, then 3+2+1+1 fill the other bin.
        assert_eq!(
            pack_bins(&[1, 7, 3, 2, 1], 2),
            vec![vec![1], vec![2, 3, 0, 4]]
        );
        // All-zero costs still spread over every bin.
        assert_eq!(pack_bins(&[0, 0, 0], 2), vec![vec![0, 2], vec![1]]);
        // Fewer components than bins: one bin per component.
        assert_eq!(pack_bins(&[5, 9], 8), vec![vec![1], vec![0]]);
    }

    #[test]
    fn source_component_carries_the_data_cost() {
        let cfg = ScenarioConfig::paper_stationary(20.0)
            .with_nodes(4)
            .with_packets(150);
        let comps = Components {
            of_slot: vec![0, 0, 1, 1],
            degree: vec![1, 1, 1, 1],
            count: 2,
        };
        let costs = component_costs(&cfg, Protocol::Rmac, &comps);
        let beacons = cfg.end_time().nanos() / cfg.beacon_period.nanos();
        assert_eq!(costs[1], 2 * 2 * beacons);
        assert_eq!(costs[0], 2 * 2 * (beacons + 150 * 2));
    }

    #[test]
    fn timetable_is_monotonic_and_covers_the_run() {
        let period = SimTime::from_millis(500);
        let end = SimTime::from_secs(10);
        let mut sched = SimRng::new(42).split(3);
        let times = BeaconTimetable::build(8, period, end, &mut sched);
        assert_eq!(times.len(), 8);
        for per_node in &times {
            // Initial stagger inside one period, then strictly increasing
            // steps of period..period+jitter.
            assert!(per_node[0] < period);
            for w in per_node.windows(2) {
                let step = w[1] - w[0];
                assert!(step >= period);
                assert!(step < period + SimTime::from_nanos(BEACON_JITTER_NS));
            }
            // The table runs past the end of the run (last entry is the
            // never-dispatched successor).
            assert!(*per_node.last().unwrap() > end);
        }
    }

    #[test]
    fn sharded_report_matches_oracle_on_a_small_scenario() {
        // The full equivalence matrix lives in tests/shard_equivalence.rs;
        // this is the in-crate smoke for the plumbing.
        let cfg = ScenarioConfig::paper_stationary(5.0)
            .with_nodes(20)
            .with_packets(10);
        let oracle = run_replication(&cfg, Protocol::Rmac, 7);
        for shards in [1usize, 2, 4] {
            let cfg = cfg.clone().with_shards(shards);
            let (report, stats) = ShardedRunner::new(&cfg, Protocol::Rmac, 7).run_with_stats();
            assert_eq!(report, oracle, "shards={shards}");
            assert_eq!(stats.shards, shards);
            assert!(stats.groups >= 1 && stats.groups <= shards);
            assert_eq!(stats.cross_pushes, 0);
        }
    }
}
