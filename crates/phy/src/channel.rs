//! The shared wireless channel.

use std::sync::Arc;

use rmac_mobility::{Motion, Pos};
use rmac_sim::{SimQueue, SimRng, SimTime};
use rmac_wire::consts::SPEED_OF_LIGHT;
use rmac_wire::{Frame, NodeId};

use crate::event::{Indication, PhyEvent};
use crate::grid::{GridStats, IndexMode, SpatialGrid};
use crate::slab::IdSlab;
use crate::tone::{ActiveWatch, Tone, ToneLog};

/// Identifier of one transmission on the data channel.
pub type TxId = u64;

/// A fault plane consulted at the frame-corruption decision point.
///
/// The hook is asked about every frame end that the channel's own model
/// (collisions, capture, mobility, BER) has decided is healthy; returning
/// `true` corrupts the frame anyway. Implementations live outside this
/// crate (see `rmac-faults`) so the channel stays fault-agnostic, and they
/// must draw any randomness from their *own* generator: the channel's RNG
/// is never passed in, which is what keeps a run with an inert hook
/// bit-identical to a run with no hook at all.
pub trait FaultHook: Send {
    /// Should this otherwise-healthy frame from `src` to `rx` be corrupted?
    fn corrupt_rx(&mut self, now: SimTime, src: NodeId, rx: NodeId, frame: &Frame) -> bool;

    /// How many frames this hook has corrupted so far.
    fn injected(&self) -> u64;
}

/// Static channel parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Radio range in meters (unit-disk model). The paper uses 75 m.
    pub range_m: f64,
    /// Independent bit-error probability applied to each received frame
    /// (`0.0` disables the error model).
    pub ber_per_bit: f64,
    /// Capture threshold (linear SIR): an overlapped frame still decodes
    /// if its received power exceeds `capture_threshold` × the strongest
    /// concurrent interference sum. GloMoSim's SNR-bounded radio behaves
    /// this way; 10 (= 10 dB) is the conventional value. Set to
    /// `f64::INFINITY` for the pure "any overlap kills both" model.
    pub capture_threshold: f64,
    /// Path-loss exponent used for received powers (two-ray ground ≈ 4).
    pub path_loss_exp: f64,
    /// How range queries are answered. The default grid index is
    /// bit-identical to [`IndexMode::BruteForce`] (the grid only filters
    /// candidates; exact positions decide membership) but queries the few
    /// cells around the transmitter instead of every node.
    pub index: IndexMode,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            range_m: 75.0,
            ber_per_bit: 0.0,
            capture_threshold: 10.0,
            path_loss_exp: 4.0,
            index: IndexMode::grid(),
        }
    }
}

/// One in-flight transmission.
struct TxRecord {
    src: NodeId,
    /// Shared so the per-receiver `FrameRx` fan-out is a refcount bump,
    /// not a deep clone of the frame and its receiver-list `Vec`s.
    frame: Arc<Frame>,
    /// Current transmission end (truncated by aborts).
    end: SimTime,
    aborted: bool,
    /// Whether `TxComplete` has been delivered to the transmitter.
    done: bool,
    /// `(receiver, propagation delay, received power)` triples, fixed at
    /// transmission start.
    receivers: Vec<(NodeId, SimTime, f64)>,
    /// Receivers whose frame-end has not yet been processed.
    pending_ends: usize,
}

/// One busy-tone emission.
struct ToneEmission {
    receivers: Vec<(NodeId, SimTime)>,
    stopped: bool,
    /// Scheduled edges (on + off) not yet processed.
    pending: usize,
}

/// A signal currently arriving at a node.
#[derive(Clone, Copy)]
struct Arriving {
    tx: TxId,
    /// Received power (distance^-α at arrival start, distances clamped to
    /// ≥ 1 m).
    power: f64,
    /// The strongest concurrent interference sum experienced so far.
    max_interference: f64,
    /// Unconditionally corrupted (half-duplex conflict, abort, …),
    /// regardless of capture.
    forced_bad: bool,
}

/// Per-node transceiver state.
struct NodeRadio {
    transmitting: Option<TxId>,
    arriving: Vec<Arriving>,
    tone_count: [u32; 2],
    emitting: [Option<u64>; 2],
    watch: [Option<ActiveWatch>; 2],
}

impl NodeRadio {
    fn new() -> Self {
        NodeRadio {
            transmitting: None,
            arriving: Vec::new(),
            tone_count: [0, 0],
            emitting: [None, None],
            watch: [None, None],
        }
    }
}

/// The wireless medium: data channel plus the RBT and ABT tone channels.
///
/// See the [crate docs](crate) for the event-driven protocol between the
/// channel and the embedding simulation loop.
pub struct Channel {
    cfg: ChannelConfig,
    motions: Vec<Motion>,
    radios: Vec<NodeRadio>,
    txs: IdSlab<TxRecord>,
    tones: IdSlab<ToneEmission>,
    next_tx: TxId,
    next_emit: u64,
    fault_hook: Option<Box<dyn FaultHook>>,
    /// Spatial index over node positions (`None` ⇒ brute-force scans).
    grid: Option<SpatialGrid>,
    /// Per-source receiver triples, cached forever once computed — only
    /// populated when *every* node is fixed, where receiver sets are
    /// time-invariant and the cache is exact.
    static_rx: Vec<Option<Vec<(NodeId, SimTime, f64)>>>,
    /// Recycled receiver-triple buffers (the allocation diet: transmission
    /// records hand their receiver lists back here instead of freeing).
    rx_pool: Vec<Vec<(NodeId, SimTime, f64)>>,
    /// Recycled tone receiver buffers.
    tone_pool: Vec<Vec<(NodeId, SimTime)>>,
    /// Scratch for grid candidate indices.
    cand_scratch: Vec<u16>,
    /// Buffer requests served from a pool (observability).
    pool_hits: u64,
    /// Buffer requests that had to allocate (observability).
    pool_misses: u64,
    /// Always-on per-frame-kind frame tallies (see [`FrameTallies`]).
    frames: FrameTallies,
}

/// Number of [`rmac_wire::FrameKind`] variants; one tally slot per kind,
/// indexed by `kind as usize - 1`. Must agree with the copies in
/// `rmac-metrics` and `rmac-obs` (the engine unit-tests the agreement).
pub const FRAME_KINDS: usize = 9;

/// Cumulative per-frame-kind tallies, counted where the channel creates
/// the corresponding indications — the frame kind is statically known
/// there, so the always-on counting costs straight-line increments on
/// branches the PHY already takes. "As seen at the PHY": receptions at
/// crashed nodes count here even though their MACs never see the frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameTallies {
    /// Completed transmissions by kind (aborted ones included).
    pub tx_frames: [u64; FRAME_KINDS],
    /// How many of those transmissions were aborted mid-air.
    pub tx_aborted: u64,
    /// Receptions delivered clean, by kind.
    pub rx_ok: [u64; FRAME_KINDS],
    /// Receptions delivered corrupted, by kind.
    pub rx_corrupt: [u64; FRAME_KINDS],
}

/// Cumulative channel-internal counters for the observability layer:
/// allocation-diet effectiveness and spatial-index maintenance. Reading
/// them never affects simulation results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhyObs {
    /// Receiver-buffer requests served by recycling a pooled buffer.
    pub pool_hits: u64,
    /// Receiver-buffer requests that allocated a fresh buffer.
    pub pool_misses: u64,
    /// Spatial-grid maintenance counters (`None` in brute-force mode).
    pub grid: Option<GridStats>,
    /// Frames corrupted by the attached fault hook.
    pub faults_injected: u64,
}

impl Channel {
    /// Build a channel over the given per-node trajectories.
    pub fn new(cfg: ChannelConfig, motions: Vec<Motion>) -> Channel {
        let n = motions.len();
        let grid = match cfg.index {
            IndexMode::BruteForce => None,
            IndexMode::Grid { quantum } => Some(SpatialGrid::new(cfg.range_m, quantum)),
        };
        Channel {
            cfg,
            motions,
            radios: (0..n).map(|_| NodeRadio::new()).collect(),
            txs: IdSlab::new(),
            tones: IdSlab::new(),
            next_tx: 0,
            next_emit: 0,
            fault_hook: None,
            grid,
            static_rx: vec![None; n],
            rx_pool: Vec::new(),
            tone_pool: Vec::new(),
            cand_scratch: Vec::new(),
            pool_hits: 0,
            pool_misses: 0,
            frames: FrameTallies::default(),
        }
    }

    /// Forget every in-flight transmission and tone record. For embedders
    /// that run causally closed node sets back to back on one channel:
    /// once a set's run is over its leftover records are never read again,
    /// and keeping them would pin the id slabs to the oldest leftover.
    pub fn retire_in_flight(&mut self) {
        self.txs.clear();
        self.tones.clear();
    }

    /// The always-on per-frame-kind tallies.
    pub fn frame_tallies(&self) -> FrameTallies {
        self.frames
    }

    /// Cumulative channel-internal observability counters.
    pub fn obs_stats(&self) -> PhyObs {
        PhyObs {
            pool_hits: self.pool_hits,
            pool_misses: self.pool_misses,
            grid: self.grid.as_ref().map(|g| g.stats()),
            faults_injected: self.faults_injected(),
        }
    }

    /// Pop a recycled receiver-triple buffer, counting hit or miss.
    fn pooled_rx_buf(&mut self) -> Vec<(NodeId, SimTime, f64)> {
        match self.rx_pool.pop() {
            Some(buf) => {
                self.pool_hits += 1;
                buf
            }
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Pop a recycled tone receiver buffer, counting hit or miss.
    fn pooled_tone_buf(&mut self) -> Vec<(NodeId, SimTime)> {
        match self.tone_pool.pop() {
            Some(buf) => {
                self.pool_hits += 1;
                buf
            }
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Attach a fault plane; see [`FaultHook`].
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Frames corrupted by the attached fault hook so far (0 without one).
    pub fn faults_injected(&self) -> u64 {
        self.fault_hook.as_ref().map_or(0, |h| h.injected())
    }

    /// Number of nodes sharing the channel.
    pub fn node_count(&self) -> usize {
        self.radios.len()
    }

    /// The configured radio range (m).
    pub fn range_m(&self) -> f64 {
        self.cfg.range_m
    }

    /// Position of `node` at time `t`.
    pub fn position(&mut self, node: NodeId, t: SimTime) -> Pos {
        self.motions[node.idx()].position_at(t)
    }

    /// All nodes within radio range of `node` at time `t` (excluding
    /// `node` itself), in ascending id order.
    pub fn neighbors_at(&mut self, node: NodeId, t: SimTime) -> Vec<NodeId> {
        let mut buf = self.pooled_rx_buf();
        self.fill_receivers(node, t, &mut buf);
        let out = buf.iter().map(|&(rx, _, _)| rx).collect();
        buf.clear();
        self.rx_pool.push(buf);
        out
    }

    fn prop_delay(dist_m: f64) -> SimTime {
        SimTime::from_secs_f64(dist_m / SPEED_OF_LIGHT)
    }

    /// Fill `out` with the `(receiver, propagation delay, received power)`
    /// triples of every node in range of `src` at `t`, ascending by id.
    ///
    /// Both index modes produce bit-identical triples: the grid only
    /// pre-filters candidates (by bucketed position, widened by the
    /// worst-case mover drift); membership and link quantities are always
    /// computed from exact trajectory positions at `t`.
    fn fill_receivers(&mut self, src: NodeId, t: SimTime, out: &mut Vec<(NodeId, SimTime, f64)>) {
        out.clear();
        let range_sq = self.cfg.range_m * self.cfg.range_m;
        let alpha = self.cfg.path_loss_exp;
        if let Some(grid) = self.grid.as_mut() {
            grid.ensure(t, &mut self.motions);
            let all_fixed = grid.all_fixed();
            if all_fixed {
                if let Some(cached) = &self.static_rx[src.idx()] {
                    out.extend_from_slice(cached);
                    return;
                }
            }
            let p = self.motions[src.idx()].position_at(t);
            self.cand_scratch.clear();
            grid.candidates(p, self.cfg.range_m, &mut self.cand_scratch);
            for &i in &self.cand_scratch {
                if i as usize == src.idx() {
                    continue;
                }
                let d2 = self.motions[i as usize].position_at(t).dist_sq(p);
                if d2 <= range_sq {
                    let d = d2.sqrt();
                    // Distances are clamped to 1 m so powers stay finite.
                    let power = d.max(1.0).powf(-alpha);
                    out.push((NodeId(i), Self::prop_delay(d), power));
                }
            }
            out.sort_unstable_by_key(|&(rx, _, _)| rx);
            if all_fixed {
                self.static_rx[src.idx()] = Some(out.clone());
            }
        } else {
            let p = self.motions[src.idx()].position_at(t);
            for i in 0..self.radios.len() {
                if i == src.idx() {
                    continue;
                }
                let d2 = self.motions[i].position_at(t).dist_sq(p);
                if d2 <= range_sq {
                    let d = d2.sqrt();
                    // Distances are clamped to 1 m so powers stay finite.
                    let power = d.max(1.0).powf(-alpha);
                    out.push((NodeId(i as u16), Self::prop_delay(d), power));
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // MAC-facing actions
    // -----------------------------------------------------------------

    /// Begin transmitting `frame` from `src`. The transmission occupies the
    /// antenna for `frame.airtime()`; every node in range at the start
    /// instant will experience the signal. Returns the transmission id.
    ///
    /// Panics if `src` is already transmitting (a MAC state-machine bug).
    pub fn start_tx<E: From<PhyEvent>>(
        &mut self,
        q: &mut impl SimQueue<E>,
        src: NodeId,
        frame: Frame,
    ) -> TxId {
        let now = q.now();
        assert!(
            self.radios[src.idx()].transmitting.is_none(),
            "{src:?} started a transmission while already transmitting"
        );
        let id = self.next_tx;
        self.next_tx += 1;
        let mut receivers = self.pooled_rx_buf();
        self.fill_receivers(src, now, &mut receivers);
        let end = now + frame.airtime();
        for &(rx, prop, power) in &receivers {
            q.push(
                now + prop,
                E::from(PhyEvent::FrameArriveStart { rx, tx: id, power }),
            );
            q.push(
                end + prop,
                E::from(PhyEvent::FrameArriveEnd { rx, tx: id, prop }),
            );
        }
        q.push(end, E::from(PhyEvent::TxComplete { node: src, tx: id }));
        // Half duplex: anything arriving at the transmitter is lost.
        for a in &mut self.radios[src.idx()].arriving {
            a.forced_bad = true;
        }
        let pending_ends = receivers.len();
        self.txs.insert(
            id,
            TxRecord {
                src,
                frame: Arc::new(frame),
                end,
                aborted: false,
                done: false,
                receivers,
                pending_ends,
            },
        );
        self.radios[src.idx()].transmitting = Some(id);
        id
    }

    /// Abort `src`'s in-flight transmission right now (RMAC step 3 of
    /// §3.3.2: a node transmitting an MRTS that senses an RBT must abort).
    /// Receivers experience the truncated signal as a corrupted frame.
    pub fn abort_tx<E: From<PhyEvent>>(&mut self, q: &mut impl SimQueue<E>, src: NodeId) {
        let now = q.now();
        let id = self.radios[src.idx()]
            .transmitting
            .expect("abort_tx with no transmission in flight");
        let rec = self.txs.get_mut(id).expect("live tx without record");
        debug_assert!(!rec.done);
        if rec.aborted {
            return;
        }
        rec.aborted = true;
        rec.end = now;
        q.push(now, E::from(PhyEvent::TxComplete { node: src, tx: id }));
        for &(rx, prop, _) in &rec.receivers {
            q.push(
                now + prop,
                E::from(PhyEvent::FrameArriveEnd { rx, tx: id, prop }),
            );
        }
    }

    /// Raise busy tone `tone` at `src`. In-range nodes sense it after the
    /// propagation delay. No-op if the tone is already raised.
    pub fn start_tone<E: From<PhyEvent>>(
        &mut self,
        q: &mut impl SimQueue<E>,
        src: NodeId,
        tone: Tone,
    ) {
        if self.radios[src.idx()].emitting[tone.idx()].is_some() {
            return;
        }
        let now = q.now();
        let id = self.next_emit;
        self.next_emit += 1;
        let mut triples = self.pooled_rx_buf();
        self.fill_receivers(src, now, &mut triples);
        let mut receivers = self.pooled_tone_buf();
        receivers.extend(triples.iter().map(|&(rx, prop, _)| (rx, prop)));
        triples.clear();
        self.rx_pool.push(triples);
        for &(rx, prop) in &receivers {
            q.push(
                now + prop,
                E::from(PhyEvent::ToneEdge {
                    rx,
                    tone,
                    on: true,
                    emit: id,
                }),
            );
        }
        let pending = receivers.len();
        self.tones.insert(
            id,
            ToneEmission {
                receivers,
                stopped: false,
                pending,
            },
        );
        self.radios[src.idx()].emitting[tone.idx()] = Some(id);
    }

    /// Lower busy tone `tone` at `src`. The same nodes that sensed the
    /// rising edge sense the falling edge (the audibility set is fixed at
    /// tone onset — tones are short relative to node motion). No-op if the
    /// tone is not raised.
    pub fn stop_tone<E: From<PhyEvent>>(
        &mut self,
        q: &mut impl SimQueue<E>,
        src: NodeId,
        tone: Tone,
    ) {
        let Some(id) = self.radios[src.idx()].emitting[tone.idx()].take() else {
            return;
        };
        let now = q.now();
        let rec = self
            .tones
            .get_mut(id)
            .expect("emitting tone without record");
        rec.stopped = true;
        rec.pending += rec.receivers.len();
        // The falling edges are pushed straight from the record's receiver
        // list — `q` is a caller-owned queue, so no clone of the list is
        // needed to satisfy the borrow checker.
        for &(rx, prop) in &rec.receivers {
            q.push(
                now + prop,
                E::from(PhyEvent::ToneEdge {
                    rx,
                    tone,
                    on: false,
                    emit: id,
                }),
            );
        }
        if self.tones.get(id).is_some_and(|r| r.pending == 0) {
            if let Some(rec) = self.tones.remove(id) {
                self.recycle_tone(rec);
            }
        }
    }

    /// Whether `src` currently emits `tone`.
    pub fn is_emitting(&self, src: NodeId, tone: Tone) -> bool {
        self.radios[src.idx()].emitting[tone.idx()].is_some()
    }

    /// Whether `node` is currently transmitting on the data channel.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.radios[node.idx()].transmitting.is_some()
    }

    /// Instantaneous carrier sense: is the data channel busy at `node`
    /// (signal energy arriving, or the node itself transmitting)?
    pub fn data_busy(&self, node: NodeId) -> bool {
        let r = &self.radios[node.idx()];
        r.transmitting.is_some() || !r.arriving.is_empty()
    }

    /// Instantaneous tone sense: is `tone` present at `node`? A node does
    /// not sense its own emission.
    pub fn tone_present(&self, node: NodeId, tone: Tone) -> bool {
        self.radios[node.idx()].tone_count[tone.idx()] > 0
    }

    /// Start recording `tone` activity at `node` (for λ-window detection).
    /// Replaces any previous watch on the same tone.
    pub fn open_watch(&mut self, node: NodeId, tone: Tone, now: SimTime) {
        let initial_on = self.tone_present(node, tone);
        self.radios[node.idx()].watch[tone.idx()] = Some(ActiveWatch {
            start: now,
            initial_on,
            edges: Vec::new(),
        });
    }

    /// Close the watch on `tone` at `node`, returning the recorded log.
    ///
    /// Panics if no watch is open (a MAC state-machine bug).
    pub fn close_watch(&mut self, node: NodeId, tone: Tone, now: SimTime) -> ToneLog {
        self.radios[node.idx()].watch[tone.idx()]
            .take()
            .expect("close_watch without an open watch")
            .close(now)
    }

    // -----------------------------------------------------------------
    // Event processing
    // -----------------------------------------------------------------

    /// Process one previously scheduled [`PhyEvent`] at time `now`,
    /// appending the resulting [`Indication`]s to `out`.
    pub fn handle(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        ev: &PhyEvent,
        out: &mut Vec<Indication>,
    ) {
        match *ev {
            PhyEvent::FrameArriveStart { rx, tx, power } => self.frame_start(rx, tx, power, out),
            PhyEvent::FrameArriveEnd { rx, tx, prop } => {
                self.frame_end(now, rng, rx, tx, prop, out)
            }
            PhyEvent::TxComplete { node, tx } => self.tx_complete(now, node, tx, out),
            PhyEvent::ToneEdge { rx, tone, on, emit } => {
                self.tone_edge(now, rx, tone, on, emit, out)
            }
        }
    }

    /// Return a retired transmission record's receiver buffer to the pool.
    fn recycle_tx(&mut self, rec: TxRecord) {
        let mut buf = rec.receivers;
        buf.clear();
        self.rx_pool.push(buf);
    }

    /// Return a retired tone emission's receiver buffer to the pool.
    fn recycle_tone(&mut self, rec: ToneEmission) {
        let mut buf = rec.receivers;
        buf.clear();
        self.tone_pool.push(buf);
    }

    fn frame_start(&mut self, rx: NodeId, tx: TxId, power: f64, out: &mut Vec<Indication>) {
        if !self.txs.contains(tx) {
            // The transmission was aborted at its very start instant and
            // fully cleaned up; nothing arrives.
            return;
        }
        let r = &mut self.radios[rx.idx()];
        let was_idle = r.arriving.is_empty();
        // Half duplex: a node cannot decode while transmitting.
        let forced_bad = r.transmitting.is_some();
        // Capture bookkeeping: every live signal records the strongest
        // concurrent interference sum it has experienced; whether that
        // corrupts it is decided at frame end against the capture
        // threshold.
        let others_sum: f64 = r.arriving.iter().map(|a| a.power).sum();
        let total = others_sum + power;
        for a in &mut r.arriving {
            let intf = total - a.power;
            if intf > a.max_interference {
                a.max_interference = intf;
            }
        }
        r.arriving.push(Arriving {
            tx,
            power,
            max_interference: others_sum,
            forced_bad,
        });
        if was_idle && r.transmitting.is_none() {
            out.push(Indication::CarrierOn { node: rx });
        }
    }

    fn frame_end(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        rx: NodeId,
        tx: TxId,
        prop: SimTime,
        out: &mut Vec<Indication>,
    ) {
        let Some(rec) = self.txs.get(tx) else {
            return; // stale
        };
        if rec.end + prop != now {
            return; // stale end event from before an abort truncated the tx
        }
        let src = rec.src;
        let aborted = rec.aborted;
        let frame = Arc::clone(&rec.frame);

        let r = &mut self.radios[rx.idx()];
        let Some(pos) = r.arriving.iter().position(|a| a.tx == tx) else {
            return; // already delivered (abort racing the original end)
        };
        let sig = r.arriving.swap_remove(pos);
        let still_tx = r.transmitting.is_some();
        let now_idle = r.arriving.is_empty();

        // Capture: the frame survives overlap iff its power beat the
        // strongest concurrent interference by the capture threshold.
        let captured_through = sig.max_interference == 0.0
            || sig.power >= self.cfg.capture_threshold * sig.max_interference;
        let mut corrupted = sig.forced_bad || !captured_through || aborted || still_tx;
        if !corrupted {
            // Mobility: the receiver (or transmitter) may have drifted out
            // of range during the frame; check the geometry at frame end.
            let range_sq = self.cfg.range_m * self.cfg.range_m;
            let ps = self.motions[src.idx()].position_at(now);
            let pr = self.motions[rx.idx()].position_at(now);
            if ps.dist_sq(pr) > range_sq {
                corrupted = true;
            }
        }
        if !corrupted && self.cfg.ber_per_bit > 0.0 {
            let bits = (frame.length_bytes() * 8) as f64;
            let p_ok = (1.0 - self.cfg.ber_per_bit).powf(bits);
            if !rng.chance(p_ok) {
                corrupted = true;
            }
        }
        if !corrupted {
            if let Some(hook) = self.fault_hook.as_mut() {
                if hook.corrupt_rx(now, src, rx, &frame) {
                    corrupted = true;
                }
            }
        }

        let kind_slot = frame.kind as usize - 1;
        if corrupted {
            self.frames.rx_corrupt[kind_slot] += 1;
        } else {
            self.frames.rx_ok[kind_slot] += 1;
        }
        out.push(Indication::FrameRx {
            node: rx,
            frame,
            ok: !corrupted,
        });
        if now_idle && !still_tx {
            out.push(Indication::CarrierOff { node: rx });
        }

        let rec = self.txs.get_mut(tx).expect("record vanished mid-event");
        rec.pending_ends -= 1;
        if rec.done && rec.pending_ends == 0 {
            if let Some(rec) = self.txs.remove(tx) {
                self.recycle_tx(rec);
            }
        }
    }

    fn tx_complete(&mut self, now: SimTime, node: NodeId, tx: TxId, out: &mut Vec<Indication>) {
        let Some(rec) = self.txs.get_mut(tx) else {
            return;
        };
        if rec.done || rec.end != now {
            return; // stale completion from before an abort
        }
        rec.done = true;
        let frame = Arc::clone(&rec.frame);
        let aborted = rec.aborted;
        if rec.pending_ends == 0 {
            if let Some(rec) = self.txs.remove(tx) {
                self.recycle_tx(rec);
            }
        }
        debug_assert_eq!(self.radios[node.idx()].transmitting, Some(tx));
        self.radios[node.idx()].transmitting = None;
        self.frames.tx_frames[frame.kind as usize - 1] += 1;
        if aborted {
            self.frames.tx_aborted += 1;
        }
        out.push(Indication::TxDone {
            node,
            frame,
            aborted,
        });
        // If signals kept arriving while we transmitted, the carrier is
        // still busy; otherwise the channel at this node is now clear. No
        // CarrierOff is emitted for the end of one's own transmission —
        // TxDone already marks that instant.
    }

    fn tone_edge(
        &mut self,
        now: SimTime,
        rx: NodeId,
        tone: Tone,
        on: bool,
        emit: u64,
        out: &mut Vec<Indication>,
    ) {
        let r = &mut self.radios[rx.idx()];
        let count = &mut r.tone_count[tone.idx()];
        let was_present = *count > 0;
        if on {
            *count += 1;
        } else {
            debug_assert!(*count > 0, "tone count underflow at {rx:?}");
            *count -= 1;
        }
        let present = *count > 0;
        if present != was_present {
            if let Some(w) = &mut r.watch[tone.idx()] {
                w.edges.push((now, present));
            }
            out.push(Indication::ToneChanged {
                node: rx,
                tone,
                present,
            });
        }
        if let Some(rec) = self.tones.get_mut(emit) {
            rec.pending -= 1;
            if rec.stopped && rec.pending == 0 {
                if let Some(rec) = self.tones.remove(emit) {
                    self.recycle_tone(rec);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rmac_wire::{Dest, FrameKind};

    type Q = rmac_sim::EventQueue<PhyEvent>;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn still(x: f64, y: f64) -> Motion {
        Motion::stationary(Pos::new(x, y))
    }

    fn data_frame(src: u16, len: usize) -> Frame {
        Frame::data_unreliable(n(src), Dest::Broadcast, Bytes::from(vec![0u8; len]), 1)
    }

    /// Drive the channel until the queue drains, collecting indications.
    fn drain(ch: &mut Channel, q: &mut Q) -> Vec<(SimTime, Indication)> {
        let mut rng = SimRng::new(0);
        let mut all = Vec::new();
        let mut scratch = Vec::new();
        while let Some((t, ev)) = q.pop() {
            scratch.clear();
            ch.handle(t, &mut rng, &ev, &mut scratch);
            all.extend(scratch.drain(..).map(|i| (t, i)));
        }
        all
    }

    fn rx_events(inds: &[(SimTime, Indication)], node: NodeId) -> Vec<&(SimTime, Indication)> {
        inds.iter().filter(|(_, i)| i.node() == node).collect()
    }

    #[test]
    fn clean_reception_with_propagation_delay() {
        // B sits 60 m from A: prop ≈ 200 ns.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(60.0, 0.0)],
        );
        let mut q = Q::new();
        let f = data_frame(0, 100);
        let airtime = f.airtime();
        ch.start_tx(&mut q, n(0), f);
        let inds = drain(&mut ch, &mut q);

        // B: CarrierOn at prop, FrameRx(ok) + CarrierOff at airtime + prop.
        let b = rx_events(&inds, n(1));
        assert_eq!(b.len(), 3, "{b:?}");
        let prop = SimTime::from_nanos(200);
        assert!(matches!(b[0], (t, Indication::CarrierOn { .. }) if *t == prop));
        match b[1] {
            (t, Indication::FrameRx { ok, frame, .. }) => {
                assert!(*ok);
                assert_eq!(frame.kind, FrameKind::DataUnreliable);
                assert_eq!(*t, airtime + prop);
            }
            other => panic!("expected FrameRx, got {other:?}"),
        }
        assert!(matches!(b[2], (_, Indication::CarrierOff { .. })));

        // A: TxDone at airtime, not aborted.
        let a = rx_events(&inds, n(0));
        assert_eq!(a.len(), 1);
        assert!(matches!(a[0], (t, Indication::TxDone { aborted: false, .. }) if *t == airtime));
    }

    #[test]
    fn out_of_range_node_hears_nothing() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(80.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 50));
        let inds = drain(&mut ch, &mut q);
        assert!(rx_events(&inds, n(1)).is_empty());
    }

    #[test]
    fn overlapping_transmissions_collide() {
        // A and C both within range of B; A and C out of range of each
        // other (hidden terminals). Both transmit: B gets two corrupted
        // frames.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(70.0, 0.0), still(140.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        // C starts 50 µs later, well inside A's frame.
        q.push(
            SimTime::from_micros(50),
            PhyEvent::TxComplete {
                node: n(2),
                tx: 999_999,
            },
        );
        // Drain manually so we can interleave the second start.
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut started_c = false;
        let mut rx_at_b = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let PhyEvent::TxComplete { tx: 999_999, .. } = ev {
                ch.start_tx(&mut q, n(2), data_frame(2, 100));
                started_c = true;
                continue;
            }
            out.clear();
            ch.handle(t, &mut rng, &ev, &mut out);
            for i in &out {
                if let Indication::FrameRx { node, ok, frame } = i {
                    if *node == n(1) {
                        rx_at_b.push((frame.src, *ok));
                    }
                }
            }
        }
        assert!(started_c);
        assert_eq!(rx_at_b.len(), 2);
        assert!(rx_at_b.iter().all(|&(_, ok)| !ok), "{rx_at_b:?}");
    }

    #[test]
    fn sequential_transmissions_do_not_collide() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(70.0, 0.0), still(140.0, 0.0)],
        );
        let mut q = Q::new();
        let f = data_frame(0, 100);
        let first_end = f.airtime() + SimTime::MICRO;
        ch.start_tx(&mut q, n(0), f);
        // C transmits strictly after A's signal has fully passed B.
        q.push(
            first_end,
            PhyEvent::TxComplete {
                node: n(2),
                tx: 999_999,
            },
        );
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut oks = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let PhyEvent::TxComplete { tx: 999_999, .. } = ev {
                ch.start_tx(&mut q, n(2), data_frame(2, 100));
                continue;
            }
            out.clear();
            ch.handle(t, &mut rng, &ev, &mut out);
            for i in &out {
                if let Indication::FrameRx { node, ok, .. } = i {
                    if *node == n(1) {
                        oks.push(*ok);
                    }
                }
            }
        }
        assert_eq!(oks, vec![true, true]);
    }

    #[test]
    fn half_duplex_transmitter_loses_incoming() {
        // B starts transmitting; while B transmits, A's frame arrives at B.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(70.0, 0.0)],
        );
        let mut q = Q::new();
        // B transmits a long frame.
        ch.start_tx(&mut q, n(1), data_frame(1, 400));
        // A transmits a short frame immediately after (overlapping).
        ch.start_tx(&mut q, n(0), data_frame(0, 50));
        let inds = drain(&mut ch, &mut q);
        let bad_rx_at_b: Vec<_> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, .. } if *node == n(1) => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(bad_rx_at_b, vec![false]);
        // A is also mid-frame of B's transmission → corrupted at A too.
        let rx_at_a: Vec<_> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, .. } if *node == n(0) => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(rx_at_a, vec![false]);
    }

    #[test]
    fn abort_truncates_frame_for_everyone() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(30.0, 0.0)],
        );
        let mut q = Q::new();
        let f = data_frame(0, 400);
        let full = f.airtime();
        ch.start_tx(&mut q, n(0), f);
        // Schedule a sentinel to abort at 100 µs (long before `full`).
        q.push(
            SimTime::from_micros(100),
            PhyEvent::TxComplete {
                node: n(0),
                tx: 999_999,
            },
        );
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut got = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let PhyEvent::TxComplete { tx: 999_999, .. } = ev {
                ch.abort_tx(&mut q, n(0));
                continue;
            }
            out.clear();
            ch.handle(t, &mut rng, &ev, &mut out);
            for i in out.drain(..) {
                got.push((t, i));
            }
        }
        // Transmitter sees TxDone(aborted) at 100 µs, far before `full`.
        let tx_done: Vec<_> = got
            .iter()
            .filter(|(_, i)| matches!(i, Indication::TxDone { .. }))
            .collect();
        assert_eq!(tx_done.len(), 1);
        assert!(matches!(
            tx_done[0],
            (t, Indication::TxDone { aborted: true, .. }) if *t == SimTime::from_micros(100)
        ));
        assert!(SimTime::from_micros(100) < full);
        // Receiver sees exactly one FrameRx, corrupted, shortly after 100 µs.
        let rxs: Vec<_> = got
            .iter()
            .filter(|(_, i)| matches!(i, Indication::FrameRx { .. }))
            .collect();
        assert_eq!(rxs.len(), 1);
        match rxs[0] {
            (t, Indication::FrameRx { ok, .. }) => {
                assert!(!*ok);
                assert!(*t < SimTime::from_micros(101));
            }
            _ => unreachable!(),
        }
        assert!(!ch.is_transmitting(n(0)));
        assert!(ch.txs.is_empty(), "records leaked");
    }

    #[test]
    fn capture_lets_the_much_stronger_frame_survive() {
        // B at 10 m from A but 74 m from C: A's power is (74/10)^4 ≈ 3000×
        // C's, far above the 10× capture threshold — A's frame survives,
        // C's dies.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(10.0, 0.0), still(84.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        ch.start_tx(&mut q, n(2), data_frame(2, 100));
        let inds = drain(&mut ch, &mut q);
        let rx_at_b: Vec<(NodeId, bool)> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, frame } if *node == n(1) => Some((frame.src, *ok)),
                _ => None,
            })
            .collect();
        assert_eq!(rx_at_b.len(), 2);
        for (src, ok) in rx_at_b {
            assert_eq!(ok, src == n(0), "src {src:?}");
        }
    }

    #[test]
    fn comparable_powers_still_collide() {
        // Equidistant interferers: neither reaches 10× the other.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(35.0, 0.0), still(70.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        ch.start_tx(&mut q, n(2), data_frame(2, 100));
        let inds = drain(&mut ch, &mut q);
        let oks: Vec<bool> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, .. } if *node == n(1) => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![false, false]);
    }

    #[test]
    fn infinite_threshold_disables_capture() {
        let mut ch = Channel::new(
            ChannelConfig {
                capture_threshold: f64::INFINITY,
                ..ChannelConfig::default()
            },
            vec![still(0.0, 0.0), still(10.0, 0.0), still(84.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        ch.start_tx(&mut q, n(2), data_frame(2, 100));
        let inds = drain(&mut ch, &mut q);
        let oks: Vec<bool> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, .. } if *node == n(1) => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![false, false]);
    }

    #[test]
    fn tones_propagate_and_merge() {
        // Two emitters raise the RBT at B; B sees one rising edge and one
        // falling edge (presence is a count, not per-emitter).
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(50.0, 0.0), still(100.0, 0.0)],
        );
        let mut q = Q::new();
        ch.open_watch(n(1), Tone::Rbt, SimTime::ZERO);
        ch.start_tone(&mut q, n(0), Tone::Rbt);
        ch.start_tone(&mut q, n(2), Tone::Rbt);
        // Stop them at different times via sentinels.
        q.push(
            SimTime::from_micros(100),
            PhyEvent::TxComplete {
                node: n(0),
                tx: 111_111,
            },
        );
        q.push(
            SimTime::from_micros(200),
            PhyEvent::TxComplete {
                node: n(2),
                tx: 222_222,
            },
        );
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut edges_at_b = Vec::new();
        while let Some((t, ev)) = q.pop() {
            match ev {
                PhyEvent::TxComplete { tx: 111_111, .. } => {
                    ch.stop_tone(&mut q, n(0), Tone::Rbt);
                    continue;
                }
                PhyEvent::TxComplete { tx: 222_222, .. } => {
                    ch.stop_tone(&mut q, n(2), Tone::Rbt);
                    continue;
                }
                _ => {}
            }
            out.clear();
            ch.handle(t, &mut rng, &ev, &mut out);
            for i in out.drain(..) {
                if let Indication::ToneChanged { node, present, .. } = i {
                    if node == n(1) {
                        edges_at_b.push((t, present));
                    }
                }
            }
        }
        assert_eq!(edges_at_b.len(), 2, "{edges_at_b:?}");
        assert!(edges_at_b[0].1);
        assert!(!edges_at_b[1].1);
        // The falling edge comes from the *second* emitter stopping.
        assert!(edges_at_b[1].0 >= SimTime::from_micros(200));
        // Watch log agrees: tone present ~[0+, 200+prop] → max_on ≈ 200 µs.
        let log = ch.close_watch(n(1), Tone::Rbt, SimTime::from_micros(300));
        let max_on = log.max_on();
        assert!(
            max_on >= SimTime::from_micros(199) && max_on <= SimTime::from_micros(201),
            "{max_on}"
        );
        assert!(ch.tones.is_empty(), "tone records leaked");
    }

    #[test]
    fn tone_sensing_excludes_self_and_respects_range() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(50.0, 0.0), still(200.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tone(&mut q, n(0), Tone::Abt);
        drain(&mut ch, &mut q);
        assert!(!ch.tone_present(n(0), Tone::Abt), "self-sensing");
        assert!(ch.tone_present(n(1), Tone::Abt));
        assert!(!ch.tone_present(n(2), Tone::Abt), "out of range");
        assert!(ch.is_emitting(n(0), Tone::Abt));
        ch.stop_tone(&mut q, n(0), Tone::Abt);
        drain(&mut ch, &mut q);
        assert!(!ch.tone_present(n(1), Tone::Abt));
        assert!(!ch.is_emitting(n(0), Tone::Abt));
    }

    #[test]
    fn ber_one_corrupts_everything() {
        let mut ch = Channel::new(
            ChannelConfig {
                ber_per_bit: 0.5,
                ..ChannelConfig::default()
            },
            vec![still(0.0, 0.0), still(10.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        let inds = drain(&mut ch, &mut q);
        let oks: Vec<_> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { ok, .. } => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![false]);
    }

    #[test]
    fn receiver_moving_out_of_range_loses_frame() {
        // B starts at 74 m and rushes away at (unphysical but convenient)
        // 10 km/s; by the end of a 2.2 ms frame it is ~96 m away → lost.
        let motions = vec![
            still(0.0, 0.0),
            Motion::linear(
                Pos::new(74.0, 0.0),
                Pos::new(474.0, 0.0),
                SimTime::ZERO,
                10_000.0,
            ),
        ];
        let mut ch = Channel::new(ChannelConfig::default(), motions);
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 500));
        let inds = drain(&mut ch, &mut q);
        let oks: Vec<_> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { ok, .. } => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![false]);
    }

    #[test]
    fn neighbors_at_reflects_positions() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![
                still(0.0, 0.0),
                still(50.0, 0.0),
                still(100.0, 0.0),
                still(76.0, 0.0),
            ],
        );
        let nb = ch.neighbors_at(n(0), SimTime::ZERO);
        assert_eq!(nb, vec![n(1)]);
        let nb2 = ch.neighbors_at(n(1), SimTime::ZERO);
        assert_eq!(nb2, vec![n(0), n(2), n(3)]);
    }

    #[test]
    fn carrier_sense_tracks_arrivals() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(10.0, 0.0)],
        );
        let mut q = Q::new();
        assert!(!ch.data_busy(n(1)));
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        assert!(ch.data_busy(n(0)), "transmitter senses own tx");
        // Process only the arrival-start at B.
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let (t, ev) = q.pop().unwrap();
        ch.handle(t, &mut rng, &ev, &mut out);
        assert!(ch.data_busy(n(1)));
        drain(&mut ch, &mut q);
        assert!(!ch.data_busy(n(1)));
        assert!(!ch.data_busy(n(0)));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use bytes::Bytes;
    use rmac_wire::Dest;

    type Q = rmac_sim::EventQueue<PhyEvent>;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn still(x: f64, y: f64) -> Motion {
        Motion::stationary(Pos::new(x, y))
    }

    fn data_frame(src: u16, len: usize) -> Frame {
        Frame::data_unreliable(n(src), Dest::Broadcast, Bytes::from(vec![0u8; len]), 1)
    }

    /// Drive the channel until the queue drains, collecting indications.
    fn drain(ch: &mut Channel, q: &mut Q) -> Vec<(SimTime, Indication)> {
        let mut rng = SimRng::new(0);
        let mut all = Vec::new();
        let mut scratch = Vec::new();
        while let Some((t, ev)) = q.pop() {
            scratch.clear();
            ch.handle(t, &mut rng, &ev, &mut scratch);
            all.extend(scratch.drain(..).map(|i| (t, i)));
        }
        all
    }

    #[test]
    fn colocated_nodes_communicate() {
        // Zero distance: power is clamped, prop delay is zero, events at
        // identical timestamps keep FIFO order.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(10.0, 10.0), still(10.0, 10.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 50));
        let inds = drain(&mut ch, &mut q);
        let ok = inds
            .iter()
            .any(|(_, i)| matches!(i, Indication::FrameRx { node, ok: true, .. } if *node == n(1)));
        assert!(ok, "{inds:?}");
    }

    #[test]
    fn reopening_a_watch_replaces_it() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(10.0, 0.0)],
        );
        let mut q = Q::new();
        ch.open_watch(n(1), Tone::Rbt, SimTime::ZERO);
        ch.start_tone(&mut q, n(0), Tone::Rbt);
        drain(&mut ch, &mut q);
        // Re-open while the tone is on: the new watch starts "already on".
        // (Times must be consistent with the queue clock.)
        let reopen_at = q.now();
        ch.open_watch(n(1), Tone::Rbt, reopen_at);
        // Hold the tone for 40 µs of virtual time before stopping it.
        q.push(
            reopen_at + SimTime::from_micros(40),
            PhyEvent::TxComplete {
                node: n(0),
                tx: 424_242,
            },
        );
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if matches!(ev, PhyEvent::TxComplete { tx: 424_242, .. }) {
                ch.stop_tone(&mut q, n(0), Tone::Rbt);
                continue;
            }
            out.clear();
            ch.handle(t, &mut rng, &ev, &mut out);
        }
        let log = ch.close_watch(n(1), Tone::Rbt, q.now() + SimTime::from_micros(10));
        assert!(log.initial_on);
        assert!(
            log.max_on() >= SimTime::from_micros(40),
            "tone was held ≥ 40 µs into the new watch: {}",
            log.max_on()
        );
    }

    #[test]
    fn back_to_back_transmissions_from_one_node() {
        // A node transmits, completes, and immediately transmits again:
        // both frames arrive cleanly at the receiver.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(30.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 60));
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut oks = 0;
        let mut started_second = false;
        while let Some((t, ev)) = q.pop() {
            out.clear();
            ch.handle(t, &mut rng, &ev, &mut out);
            for i in &out {
                match i {
                    Indication::TxDone { .. } if !started_second => {
                        started_second = true;
                        ch.start_tx(&mut q, n(0), data_frame(0, 60));
                    }
                    Indication::FrameRx { node, ok: true, .. } if *node == n(1) => {
                        oks += 1;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(oks, 2);
    }

    #[test]
    fn abort_immediately_after_start() {
        // Abort in the same instant the transmission begins: everything
        // must still clean up without panicking or leaking records.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(30.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 400));
        ch.abort_tx(&mut q, n(0));
        let inds = drain(&mut ch, &mut q);
        assert!(inds
            .iter()
            .any(|(_, i)| matches!(i, Indication::TxDone { aborted: true, .. })));
        assert!(!ch.is_transmitting(n(0)));
        assert!(!ch.data_busy(n(1)));
    }

    #[test]
    fn dense_network_stress_no_leaks() {
        // 50 nodes in mutual range; half transmit simultaneously. The
        // channel must drain completely with no stuck carrier or records.
        let motions: Vec<Motion> = (0..50)
            .map(|i| still((i % 10) as f64 * 5.0, (i / 10) as f64 * 5.0))
            .collect();
        let mut ch = Channel::new(ChannelConfig::default(), motions);
        let mut q = Q::new();
        for i in 0..25u16 {
            ch.start_tx(&mut q, n(i), data_frame(i, 100));
        }
        let _ = drain(&mut ch, &mut q);
        for i in 0..50u16 {
            assert!(!ch.data_busy(n(i)), "stuck carrier at node {i}");
            assert!(!ch.is_transmitting(n(i)));
        }
        assert!(ch.txs.is_empty(), "transmission records leaked");
    }

    #[test]
    fn tones_unaffected_by_data_collisions() {
        // Tones are on their own channels: a data-channel pileup never
        // perturbs tone presence.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(20.0, 0.0), still(40.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tone(&mut q, n(0), Tone::Rbt);
        ch.start_tx(&mut q, n(1), data_frame(1, 200));
        ch.start_tx(&mut q, n(2), data_frame(2, 200));
        drain(&mut ch, &mut q);
        assert!(ch.tone_present(n(1), Tone::Rbt));
        assert!(ch.tone_present(n(2), Tone::Rbt));
    }
}
