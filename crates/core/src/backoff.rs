//! The backoff entity (§3.3.1).
//!
//! Each node maintains a Backoff Interval (BI) — the remaining deferral in
//! 20 µs slots — and a Contention Window (CW), which grows exponentially on
//! failed transmissions and seeds BI. BI counts down one slot per idle slot
//! boundary and the countdown suspends, BI retained, at the first boundary
//! that finds the channel busy. What "busy" means is the protocol's: it
//! passes the verdict to [`Backoff::on_timer`]. The entity is shared by
//! RMAC and the baselines' DCF.
//!
//! # Lazy countdown
//!
//! A countdown is a lattice of boundaries `t0 + k·d` (`d` the slot on the
//! node's clock). Only two kinds of boundary can change the outcome: the
//! one where BI reaches zero, and the first one after a busy edge (the
//! caller reports edges through [`Backoff::busy_edge`]). Every other
//! boundary finds the channel idle and only ticks. So a countdown arms the
//! final boundary when it starts, a check at the first boundary after each
//! busy edge, and charges the boundaries it skipped to BI arithmetically.
//! Each wake-up is an anchored push ([`MacContext::schedule_anchored`])
//! keyed where the per-slot event for that boundary would have sorted, so
//! every same-instant order is the per-slot one (DESIGN.md §12).
//!
//! With [`MacConfig::per_slot_backoff`](crate::MacConfig) the same code
//! arms every boundary with a plain push instead, one slot ahead: the
//! per-slot oracle.

use rmac_sim::{EventKey, SimTime, Tie};
use rmac_wire::consts::SLOT;

use crate::api::{MacContext, TimerKind};

/// What a backoff wake-up did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// Not a live wake-up (superseded, or the countdown ended).
    Stale,
    /// The channel was idle; the countdown goes on.
    Counting,
    /// The channel was busy: the countdown stopped, BI retained.
    Suspended,
    /// BI reached zero: the node may transmit.
    Expired,
}

/// One running countdown.
#[derive(Clone, Copy, Debug)]
struct Countdown {
    /// Boundary 0: the instant the countdown started.
    t0: SimTime,
    /// The slot on the node's clock.
    d: SimTime,
    /// Boundaries `1..=k` are already charged to BI.
    k: u64,
    /// The lattice's tie-break, set by its first anchored push (lazy only).
    tie: Option<Tie>,
    /// The armed wake-up `(boundary, generation)`: the final boundary
    /// (lazy) or the next one (per slot).
    wake: (u64, u64),
    /// A pending busy-edge check `(boundary, generation)` (lazy only).
    check: Option<(u64, u64)>,
}

impl Countdown {
    fn at(&self, k: u64) -> SimTime {
        self.t0 + self.d.mul(k)
    }

    /// Boundaries the per-slot countdown has dispatched before the
    /// dispatch keyed `now`.
    fn dispatched(&self, per_slot: bool, now: EventKey) -> u64 {
        if per_slot {
            self.k
        } else {
            self.passed(now)
        }
    }

    /// Boundaries whose event sorts before the dispatch keyed `now`.
    fn passed(&self, now: EventKey) -> u64 {
        let Some(since) = now.time.checked_sub(self.t0) else {
            return 0;
        };
        let k = since.nanos() / self.d.nanos();
        let tie = self.tie.expect("lazy countdown without a tie");
        if k > 0 && self.at(k) == now.time && EventKey::on_lattice(now.time, self.d, tie) > now {
            k - 1
        } else {
            k
        }
    }
}

/// BI/CW bookkeeping and the slot countdown for one node.
#[derive(Clone, Debug)]
pub struct Backoff {
    bi: u64,
    cw: u64,
    cw_min: u64,
    cw_max: u64,
    per_slot: bool,
    /// Generation of the last armed wake-up.
    gen: u64,
    run: Option<Countdown>,
    /// The latest boundary the per-slot countdown has dispatched (see
    /// [`Backoff::per_slot_horizon`]).
    popped: SimTime,
    /// Boundaries stopped per-slot countdowns left armed past their stop:
    /// they pop, stale, if the run lasts that long.
    pending: Vec<SimTime>,
}

impl Backoff {
    /// A fresh entity with BI = 0 and CW = `cw_min`, counting down lazily.
    pub fn new(cw_min: u64, cw_max: u64) -> Backoff {
        debug_assert!(cw_min > 0 && cw_min <= cw_max);
        Backoff {
            bi: 0,
            cw: cw_min,
            cw_min,
            cw_max,
            per_slot: false,
            gen: 0,
            run: None,
            popped: SimTime::ZERO,
            pending: Vec::new(),
        }
    }

    /// Arm every slot boundary (the per-slot oracle) instead of only the
    /// boundaries that can change the outcome.
    pub fn with_per_slot(mut self, per_slot: bool) -> Backoff {
        self.per_slot = per_slot;
        self
    }

    /// Remaining deferral, in slots, as of the last boundary charged. While
    /// a lazy countdown runs, [`Backoff::settle`] charges the boundaries
    /// that have passed since.
    pub fn bi(&self) -> u64 {
        self.bi
    }

    /// Current contention window, in slots.
    pub fn cw(&self) -> u64 {
        self.cw
    }

    /// Whether a countdown is running.
    pub fn is_counting(&self) -> bool {
        self.run.is_some()
    }

    /// Enter the backoff procedure: draw BI uniformly from `[0, CW]`
    /// (§3.3.1: "a random number between 0 and the current CW"). A running
    /// countdown keeps its lattice and counts the new BI down from the
    /// next boundary.
    pub fn draw(&mut self, ctx: &mut dyn MacContext) {
        self.settle(ctx);
        self.bi = ctx.rng().range_inclusive(0, self.cw);
        self.rearm(ctx);
    }

    /// Add extra deferral slots on top of the current BI (used by the
    /// 802.11-family baselines to approximate the DIFS wait).
    pub fn add_slots(&mut self, ctx: &mut dyn MacContext, k: u64) {
        self.settle(ctx);
        self.bi += k;
        self.rearm(ctx);
    }

    /// A transmission failed: CW doubles (802.11 style: CW ← 2·CW + 1,
    /// capped at `cw_max`).
    pub fn fail(&mut self) {
        self.cw = (self.cw * 2 + 1).min(self.cw_max);
    }

    /// A transmission succeeded (or the frame was dropped): CW resets.
    pub fn reset_cw(&mut self) {
        self.cw = self.cw_min;
    }

    /// Start a countdown at the current instant on an idle channel,
    /// replacing any running one (after charging its passed boundaries).
    pub fn start(&mut self, ctx: &mut dyn MacContext) {
        self.stop(ctx);
        self.run = Some(Countdown {
            t0: ctx.now(),
            d: ctx.local_delay(SLOT),
            k: 0,
            tie: None,
            wake: (0, 0),
            check: None,
        });
        self.arm(ctx);
    }

    /// Stop the countdown (the node leaves contention). BI is retained.
    pub fn stop(&mut self, ctx: &dyn MacContext) {
        self.settle(ctx);
        let Some(run) = self.run.take() else {
            return;
        };
        // The per-slot countdown dispatched the boundaries so far and
        // leaves the next one armed; it pops stale.
        let now = ctx.dispatch_key();
        let m = run.dispatched(self.per_slot, now);
        if m > 0 {
            self.popped = self.popped.max(run.at(m));
        }
        let popped = &mut self.popped;
        self.pending.retain(|&p| {
            if p <= now.time {
                *popped = (*popped).max(p);
            }
            p > now.time
        });
        self.pending.push(run.at(m + 1));
    }

    /// The time of the latest boundary event the per-slot countdown would
    /// have dispatched in a run ending at `end`, this countdown frozen at
    /// the dispatch keyed `stop` (a crash, or the end of the run). The
    /// lazy engine's final clock is rebuilt from it (elided and stale
    /// wake-ups must not move it); `ZERO` if there is none.
    pub fn per_slot_horizon(&self, stop: EventKey, end: SimTime) -> SimTime {
        let mut h = self.popped;
        for &p in &self.pending {
            if p <= end {
                h = h.max(p);
            }
        }
        if let Some(run) = &self.run {
            let m = run.dispatched(self.per_slot, stop);
            if m > 0 {
                h = h.max(run.at(m));
            }
            if run.at(m + 1) <= end {
                h = h.max(run.at(m + 1));
            }
        }
        h
    }

    /// Charge the boundaries a lazy countdown has passed to BI.
    pub fn settle(&mut self, ctx: &dyn MacContext) {
        if self.per_slot {
            return;
        }
        if let Some(run) = self.run.as_mut() {
            let passed = run.passed(ctx.dispatch_key());
            debug_assert!(passed < run.wake.0, "settled past the final boundary");
            self.bi -= passed - run.k;
            run.k = passed;
        }
    }

    /// The channel just went busy (carrier on, RBT on, or a NAV set).
    /// Arms a check at the first boundary whose per-slot event would have
    /// been dispatched after this one, unless one is pending or the final
    /// boundary comes first.
    pub fn busy_edge(&mut self, ctx: &mut dyn MacContext) {
        if self.per_slot {
            return;
        }
        let Some(run) = self.run.as_mut() else {
            return;
        };
        if run.check.is_some() {
            return;
        }
        let j = run.passed(ctx.dispatch_key()) + 1;
        if j >= run.wake.0 {
            return;
        }
        self.gen += 1;
        let tie =
            ctx.schedule_anchored(run.at(j), run.d, run.tie, TimerKind::BackoffSlot, self.gen);
        run.check = Some((j, self.gen));
        debug_assert_eq!(Some(tie), run.tie);
    }

    /// A backoff wake-up fired. `idle` is the protocol's channel verdict at
    /// this boundary.
    pub fn on_timer(&mut self, ctx: &mut dyn MacContext, gen: u64, idle: bool) -> Wake {
        let Some(run) = self.run.as_mut() else {
            return Wake::Stale;
        };
        let j = if run.wake.1 == gen {
            run.wake.0
        } else if let Some((j, _)) = run.check.filter(|&(_, g)| g == gen) {
            run.check = None;
            j
        } else {
            return Wake::Stale;
        };
        self.popped = self.popped.max(run.at(j));
        // The skipped boundaries all found the channel idle: every busy
        // edge arms a check at the first boundary after it.
        self.bi -= j - 1 - run.k;
        run.k = j - 1;
        if !idle {
            self.run = None;
            return Wake::Suspended;
        }
        run.k = j;
        // BI is 0 here only if a redraw zeroed it mid-countdown (the DCF's
        // zero-BI slot): the boundary then ends the countdown untouched.
        self.bi = self.bi.saturating_sub(1);
        if self.bi == 0 {
            self.run = None;
            return Wake::Expired;
        }
        if self.per_slot {
            self.arm(ctx);
        }
        Wake::Counting
    }

    /// Arm the running countdown's wake-up: the next boundary (per slot)
    /// or the final one (lazy).
    fn arm(&mut self, ctx: &mut dyn MacContext) {
        let Some(run) = self.run.as_mut() else {
            return;
        };
        self.gen += 1;
        if self.per_slot {
            ctx.schedule(SLOT, TimerKind::BackoffSlot, self.gen);
            run.wake = (run.k + 1, self.gen);
            return;
        }
        let end = run.k + self.bi.max(1);
        run.tie = Some(ctx.schedule_anchored(
            run.at(end),
            run.d,
            run.tie,
            TimerKind::BackoffSlot,
            self.gen,
        ));
        run.wake = (end, self.gen);
        // A pending check at or past the new final boundary is moot.
        if run.check.is_some_and(|(j, _)| j >= end) {
            run.check = None;
        }
    }

    /// BI changed under a running lazy countdown: move its final wake-up.
    /// (Per slot the next boundary is already armed.)
    fn rearm(&mut self, ctx: &mut dyn MacContext) {
        if !self.per_slot && self.run.is_some() {
            self.arm(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Mock;

    const D: SimTime = SLOT;

    #[test]
    fn cw_grows_and_caps() {
        let mut b = Backoff::new(31, 1023);
        let expected = [63, 127, 255, 511, 1023, 1023, 1023];
        for &e in &expected {
            b.fail();
            assert_eq!(b.cw(), e);
        }
        b.reset_cw();
        assert_eq!(b.cw(), 31);
    }

    #[test]
    fn draw_is_within_window() {
        let mut b = Backoff::new(31, 1023);
        let mut m = Mock::new();
        for _ in 0..1000 {
            b.draw(&mut m);
            assert!(b.bi() <= 31);
        }
        b.fail();
        let mut saw_above_31 = false;
        for _ in 0..1000 {
            b.draw(&mut m);
            assert!(b.bi() <= 63);
            saw_above_31 |= b.bi() > 31;
        }
        assert!(saw_above_31, "CW growth had no effect on draws");
    }

    #[test]
    fn zero_draw_possible() {
        // BI may legitimately be drawn as 0, enabling immediate tx.
        let mut b = Backoff::new(31, 1023);
        let mut m = Mock::new();
        let mut saw_zero = false;
        for _ in 0..2000 {
            b.draw(&mut m);
            saw_zero |= b.bi() == 0;
        }
        assert!(saw_zero);
    }

    /// A backoff with BI = `bi` on a mock at `t0`.
    fn primed(per_slot: bool, bi: u64, t0: SimTime) -> (Backoff, Mock) {
        let mut b = Backoff::new(31, 1023).with_per_slot(per_slot);
        let mut m = Mock::new();
        m.now = t0;
        b.add_slots(&mut m, bi);
        (b, m)
    }

    /// Fire the earliest pending timer with the channel verdict `idle`.
    fn step(b: &mut Backoff, m: &mut Mock, idle: bool) -> (SimTime, Wake) {
        let (at, _, gen) = m.pop_earliest();
        (at, b.on_timer(m, gen, idle))
    }

    #[test]
    fn per_slot_ticks_once_per_slot() {
        let t0 = SimTime::from_micros(7);
        let (mut b, mut m) = primed(true, 4, t0);
        b.start(&mut m);
        for k in 1..=3 {
            assert_eq!(step(&mut b, &mut m, true), (t0 + D.mul(k), Wake::Counting));
            assert_eq!(b.bi(), 4 - k);
        }
        assert_eq!(step(&mut b, &mut m, true), (t0 + D.mul(4), Wake::Expired));
        assert_eq!(b.bi(), 0);
        assert!(m.timers.is_empty());
    }

    #[test]
    fn lazy_countdown_wakes_once_at_the_final_boundary() {
        let t0 = SimTime::from_micros(7);
        let (mut b, mut m) = primed(false, 9, t0);
        b.start(&mut m);
        assert_eq!(m.timers.len(), 1);
        let key = m.timers[0].3;
        assert_eq!(key.time, t0 + D.mul(9));
        assert_eq!(key.anchor, t0 + D.mul(8), "anchored one slot early");
        assert_eq!(step(&mut b, &mut m, true), (t0 + D.mul(9), Wake::Expired));
        assert_eq!(b.bi(), 0);
    }

    #[test]
    fn boundaries_follow_the_skewed_slot() {
        let t0 = SimTime::from_micros(3);
        let (mut b, mut m) = primed(false, 5, t0);
        m.skew_ppm = 150.0; // d = 20 003 ns
        b.start(&mut m);
        let d = SimTime::from_nanos(20_003);
        assert_eq!(m.timers[0].0, t0 + d.mul(5));
        // A busy edge 2.5 skewed slots in checks boundary 3.
        m.now = t0 + d.mul(2) + SimTime::from_nanos(10_000);
        b.busy_edge(&mut m);
        assert_eq!(m.timers.len(), 2);
        assert_eq!(
            step(&mut b, &mut m, false),
            (t0 + d.mul(3), Wake::Suspended)
        );
        assert_eq!(b.bi(), 3, "boundaries 1 and 2 ticked, 3 found it busy");
    }

    #[test]
    fn suspend_and_resume_charge_exactly_the_idle_boundaries() {
        let t0 = SimTime::from_micros(100);
        let (mut b, mut m) = primed(false, 10, t0);
        b.start(&mut m);
        // Busy edge between boundaries 3 and 4: checked at 4.
        m.now = t0 + D.mul(3) + SimTime::from_micros(5);
        b.busy_edge(&mut m);
        // A second edge before the check adds nothing.
        m.now += SimTime::from_micros(1);
        b.busy_edge(&mut m);
        assert_eq!(m.timers.len(), 2);
        assert_eq!(
            step(&mut b, &mut m, false),
            (t0 + D.mul(4), Wake::Suspended)
        );
        assert_eq!(b.bi(), 7);
        assert!(!b.is_counting());
        // The stale final wake-up is ignored.
        assert_eq!(step(&mut b, &mut m, true).1, Wake::Stale);
        // Resume later: a fresh lattice counts the retained 7 slots.
        m.now = SimTime::from_millis(3);
        b.start(&mut m);
        assert_eq!(step(&mut b, &mut m, true), (m.now, Wake::Expired));
        assert_eq!(m.now, SimTime::from_millis(3) + D.mul(7));
    }

    #[test]
    fn a_check_that_finds_the_channel_idle_again_keeps_counting() {
        let (mut b, mut m) = primed(false, 6, SimTime::ZERO);
        b.start(&mut m);
        m.now = SimTime::from_micros(30);
        b.busy_edge(&mut m);
        assert_eq!(step(&mut b, &mut m, true), (D.mul(2), Wake::Counting));
        assert_eq!(b.bi(), 4);
        // A later edge arms a new check.
        m.now = SimTime::from_micros(81);
        b.busy_edge(&mut m);
        assert_eq!(step(&mut b, &mut m, true), (D.mul(5), Wake::Counting));
        assert_eq!(b.bi(), 1);
        assert_eq!(step(&mut b, &mut m, true), (D.mul(6), Wake::Expired));
    }

    #[test]
    fn an_edge_at_a_boundary_instant_sorts_by_its_key() {
        let (mut b, mut m) = primed(false, 8, SimTime::ZERO);
        b.start(&mut m);
        let t = D.mul(3);
        // Pushed within the last slot (e.g. a tone edge): boundary 3's
        // event came first and ticked, so the check goes to 4.
        m.now = t;
        m.key = EventKey::plain(t, t - SimTime::from_nanos(300), 50);
        b.busy_edge(&mut m);
        assert_eq!(m.timers.back().unwrap().0, D.mul(4));
        let (mut b, mut m) = primed(false, 8, SimTime::ZERO);
        b.start(&mut m);
        // Pushed long before (e.g. a frame end): it dispatches ahead of
        // boundary 3, which is then the first boundary after the edge.
        m.now = t;
        m.key = EventKey::plain(t, SimTime::from_nanos(1), 50);
        b.busy_edge(&mut m);
        assert_eq!(m.timers.back().unwrap().0, t);
    }

    #[test]
    fn no_check_when_the_final_boundary_comes_first() {
        let (mut b, mut m) = primed(false, 3, SimTime::ZERO);
        b.start(&mut m);
        m.now = SimTime::from_micros(45);
        b.busy_edge(&mut m);
        assert_eq!(m.timers.len(), 1, "boundary 3 is the final one");
        assert_eq!(step(&mut b, &mut m, false), (D.mul(3), Wake::Suspended));
        assert_eq!(b.bi(), 1);
    }

    #[test]
    fn stop_and_settle_charge_passed_boundaries() {
        let (mut b, mut m) = primed(false, 12, SimTime::ZERO);
        b.start(&mut m);
        m.now = SimTime::from_micros(95);
        b.settle(&m);
        assert_eq!(b.bi(), 8);
        assert!(b.is_counting());
        m.now = SimTime::from_micros(130);
        b.stop(&m);
        assert_eq!(b.bi(), 6);
        assert!(!b.is_counting());
    }

    #[test]
    fn a_redraw_keeps_the_lattice() {
        let (mut b, mut m) = primed(false, 12, SimTime::ZERO);
        b.start(&mut m);
        m.now = SimTime::from_micros(50);
        b.add_slots(&mut m, 3);
        assert_eq!(b.bi(), 13, "two boundaries charged, three slots added");
        assert_eq!(step(&mut b, &mut m, true).1, Wake::Stale);
        assert_eq!(step(&mut b, &mut m, true), (D.mul(15), Wake::Expired));
    }

    /// The lazy and per-slot countdowns agree on every outcome and BI
    /// over scripted busy windows.
    #[test]
    fn lazy_matches_per_slot_over_busy_windows() {
        let busy = |t: SimTime| {
            let us = t.nanos() / 1_000;
            (135..175).contains(&us) || (300..301).contains(&us) || (425..520).contains(&us)
        };
        let edges = [135u64, 300, 425];
        let mut outcomes = Vec::new();
        for per_slot in [true, false] {
            let (mut b, mut m) = primed(per_slot, 25, SimTime::from_micros(10));
            b.start(&mut m);
            let mut log = Vec::new();
            let mut edge = edges.iter().map(|&e| SimTime::from_micros(e)).peekable();
            while let Some(at) = m.timers.iter().map(|t| t.0).min() {
                // A busy edge due before the next wake-up comes first.
                if let Some(e) = edge.next_if(|&e| e < at) {
                    m.now = e;
                    m.key = EventKey::plain(e, e, 1 << 40);
                    b.busy_edge(&mut m);
                    continue;
                }
                let (at, w) = step(&mut b, &mut m, !busy(at));
                if w == Wake::Stale {
                    continue;
                }
                if w != Wake::Counting {
                    log.push((at, w, b.bi()));
                }
                if w == Wake::Suspended {
                    // Resume when the window closes.
                    let mut t = at;
                    while busy(t) {
                        t += SimTime::MICRO;
                    }
                    m.now = t;
                    m.key = EventKey::plain(t, t, 1 << 40);
                    b.start(&mut m);
                }
            }
            outcomes.push(log);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert!(outcomes[0].len() >= 3, "{:?}", outcomes[0]);
    }
}
