//! Shared 802.11-style channel access: DIFS + slotted backoff + NAV.
//!
//! The 802.11-family baselines all contend for the medium the same way: a
//! station with a pending frame waits until the medium has been idle for a
//! DIFS, counts down a random backoff in 20 µs slots, and defers to both
//! *physical* carrier sense and the *virtual* carrier sense (NAV) set by
//! overheard RTS/CTS/RAK durations. This module packages that logic as a
//! sub-state-machine producing explicit [`DcfAction`]s, so each protocol
//! keeps its own exchange FSM thin.
//!
//! DIFS (50 µs) is approximated as three extra 20 µs backoff slots added
//! to every draw — the standard slotting approximation for a simulator with
//! a slot-quantised backoff loop.

use rmac_core::api::{MacContext, TimerKind};
use rmac_core::backoff::{Backoff, Wake};
use rmac_sim::{EventKey, SimTime, TimerSlot};

/// Slots prepended to every draw to account for the DIFS wait.
pub const DIFS_SLOTS: u64 = 3;

/// What the embedding protocol should do after a DCF step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcfAction {
    /// Nothing to do yet (deferring, or no pending frame).
    Defer,
    /// The backoff countdown is running.
    Counting,
    /// Access won — transmit immediately.
    Transmit,
}

/// DCF contention state for one node.
pub struct Dcf {
    backoff: Backoff,
    nav_until: SimTime,
    t_nav: TimerSlot,
    /// Whether the current BI draw already includes the DIFS padding.
    armed_with_difs: bool,
}

impl Dcf {
    /// New DCF entity with the given contention window bounds, counting
    /// its backoff down per slot (the oracle) or lazily.
    pub fn new(cw_min: u64, cw_max: u64, per_slot: bool) -> Dcf {
        Dcf {
            backoff: Backoff::new(cw_min, cw_max).with_per_slot(per_slot),
            nav_until: SimTime::ZERO,
            t_nav: TimerSlot::new(),
            armed_with_difs: false,
        }
    }

    /// The virtual carrier sense deadline.
    pub fn nav_until(&self) -> SimTime {
        self.nav_until
    }

    /// Remaining backoff slots, as of the last boundary charged.
    pub fn bi(&self) -> u64 {
        self.backoff.bi()
    }

    /// Current contention window.
    pub fn cw(&self) -> u64 {
        self.backoff.cw()
    }

    /// Record an overheard duration field: the medium is virtually busy
    /// until `now + dur` (a busy edge for a running countdown).
    pub fn observe_nav(&mut self, ctx: &mut dyn MacContext, dur: SimTime) {
        self.nav_until = self.nav_until.max(ctx.now() + dur);
        self.backoff.busy_edge(ctx);
    }

    /// Physical carrier sense went busy (a busy edge for a running
    /// countdown).
    pub fn carrier_on(&mut self, ctx: &mut dyn MacContext) {
        self.backoff.busy_edge(ctx);
    }

    /// Both physical and virtual carrier sense idle?
    pub fn medium_idle(&self, ctx: &dyn MacContext) -> bool {
        !ctx.data_busy() && ctx.now() >= self.nav_until
    }

    /// A transmission failed: grow CW.
    pub fn fail(&mut self) {
        self.backoff.fail();
    }

    /// A transmission succeeded or the frame was dropped: reset CW.
    pub fn reset_cw(&mut self) {
        self.backoff.reset_cw();
    }

    /// Draw a fresh BI (post-transmission pacing or retry).
    pub fn draw(&mut self, ctx: &mut dyn MacContext) {
        self.backoff.draw(ctx);
        self.armed_with_difs = false;
    }

    /// Stop the slot countdown (the node is leaving contention, e.g. to
    /// respond to an RTS). BI is retained.
    pub fn suspend(&mut self, ctx: &dyn MacContext) {
        self.backoff.stop(ctx);
    }

    /// Try to gain access for a pending frame. Call from the protocol's
    /// idle-state dispatcher.
    pub fn try_access(&mut self, ctx: &mut dyn MacContext, want_tx: bool) -> DcfAction {
        self.backoff.settle(ctx);
        if !self.medium_idle(ctx) {
            // Mirror of RMAC's condition (1): draw on first contact with a
            // busy medium so the node defers a random interval.
            if want_tx && self.backoff.bi() == 0 {
                self.backoff.draw(ctx);
                self.pad_difs(ctx);
            }
            // A NAV expiry produces no channel event; arm a wake-up so the
            // node re-enters contention when the reservation lapses.
            if want_tx && !ctx.data_busy() && ctx.now() < self.nav_until {
                let gen = self.t_nav.arm();
                let delay = (self.nav_until - ctx.now()) + SimTime::NANO;
                ctx.schedule(delay, TimerKind::Nav, gen);
            }
            return DcfAction::Defer;
        }
        if self.backoff.bi() == 0 && want_tx {
            // Even on an idle medium 802.11 waits DIFS before transmitting;
            // pad the (zero) draw and count it down.
            self.pad_difs(ctx);
        }
        if self.backoff.bi() > 0 {
            // (Re)start the countdown from this instant.
            self.backoff.start(ctx);
            return DcfAction::Counting;
        }
        if want_tx {
            DcfAction::Transmit
        } else {
            DcfAction::Defer
        }
    }

    fn pad_difs(&mut self, ctx: &mut dyn MacContext) {
        if !self.armed_with_difs {
            self.backoff.add_slots(ctx, DIFS_SLOTS);
            self.armed_with_difs = true;
        }
    }

    /// See [`Backoff::per_slot_horizon`].
    pub fn backoff_horizon(&self, stop: EventKey, end: SimTime) -> SimTime {
        self.backoff.per_slot_horizon(stop, end)
    }

    /// A NAV wake-up timer fired; returns whether it was the live one (the
    /// protocol should then re-enter `try_access`).
    pub fn on_nav_timer(&mut self, gen: u64) -> bool {
        self.t_nav.disarm_if(gen)
    }

    /// A backoff wake-up fired. Returns `Transmit` when access is won.
    pub fn on_slot(&mut self, ctx: &mut dyn MacContext, gen: u64, want_tx: bool) -> DcfAction {
        let idle = self.medium_idle(ctx);
        match self.backoff.on_timer(ctx, gen, idle) {
            Wake::Expired if want_tx => DcfAction::Transmit,
            Wake::Counting => DcfAction::Counting,
            // Suspended: BI retained. The protocol re-enters via
            // try_access when the medium clears.
            Wake::Expired | Wake::Suspended | Wake::Stale => DcfAction::Defer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_core::testkit::Mock;
    use rmac_wire::consts::SLOT;

    /// Fire backoff wake-ups in key order until the countdown resolves,
    /// returning the final action, the wake-ups fired and the clock.
    fn run_down(d: &mut Dcf, m: &mut Mock) -> (DcfAction, u64, SimTime) {
        let mut fired = 0;
        loop {
            assert!(m.has_timer(TimerKind::BackoffSlot), "countdown stalled");
            let (_, kind, gen) = m.pop_earliest();
            assert_eq!(kind, TimerKind::BackoffSlot);
            fired += 1;
            match d.on_slot(m, gen, true) {
                DcfAction::Counting => {}
                act => return (act, fired, m.now),
            }
            assert!(fired < 2000);
        }
    }

    #[test]
    fn idle_medium_with_no_frame_defers() {
        let mut m = Mock::new();
        let mut d = Dcf::new(31, 1023, false);
        assert_eq!(d.try_access(&mut m, false), DcfAction::Defer);
    }

    #[test]
    fn access_pads_difs_and_counts_down() {
        for per_slot in [true, false] {
            let mut m = Mock::new();
            let mut d = Dcf::new(31, 1023, per_slot);
            // Idle medium, pending frame, BI=0 → DIFS padding forces
            // counting.
            let act = d.try_access(&mut m, true);
            assert_eq!(act, DcfAction::Counting);
            let bi = d.bi();
            assert!(bi >= DIFS_SLOTS);
            let (act, fired, at) = run_down(&mut d, &mut m);
            assert_eq!(act, DcfAction::Transmit);
            assert_eq!(d.bi(), 0);
            assert_eq!(at, SLOT.mul(bi), "access won on the final boundary");
            // Per slot: one wake-up per slot; lazy: one in all.
            assert_eq!(fired, if per_slot { bi } else { 1 });
        }
    }

    #[test]
    fn busy_medium_draws_once_and_defers() {
        let mut m = Mock::new();
        m.data_busy = true;
        let mut d = Dcf::new(31, 1023, false);
        assert_eq!(d.try_access(&mut m, true), DcfAction::Defer);
        let bi = d.bi();
        assert!(bi >= DIFS_SLOTS, "draw includes DIFS padding");
        // A second call must not redraw.
        assert_eq!(d.try_access(&mut m, true), DcfAction::Defer);
        assert_eq!(d.bi(), bi);
        assert!(!m.has_timer(TimerKind::BackoffSlot));
    }

    #[test]
    fn nav_defers_and_arms_wakeup() {
        let mut m = Mock::new();
        let mut d = Dcf::new(31, 1023, false);
        d.observe_nav(&mut m, SimTime::from_millis(2));
        assert!(!d.medium_idle(&m));
        assert_eq!(d.try_access(&mut m, true), DcfAction::Defer);
        // The NAV wake-up must be armed so contention resumes.
        assert!(m.has_timer(TimerKind::Nav));
        let (_, _, gen, _) = *m
            .timers
            .iter()
            .find(|&&(_, k, _, _)| k == TimerKind::Nav)
            .unwrap();
        m.now = SimTime::from_millis(3);
        assert!(d.on_nav_timer(gen));
        assert!(d.medium_idle(&m));
    }

    /// A NAV set or a carrier mid-countdown suspends it at the first
    /// boundary after the edge, BI retained, in both countdown modes.
    #[test]
    fn busy_edges_mid_countdown_suspend_at_the_next_boundary() {
        for carrier in [false, true] {
            let mut outcomes = Vec::new();
            for per_slot in [true, false] {
                let mut m = Mock::new();
                let mut d = Dcf::new(31, 1023, per_slot);
                assert_eq!(d.try_access(&mut m, true), DcfAction::Counting);
                let bi = d.bi();
                // Fire the boundaries due before 2.5 slots (per slot only).
                while m.timers.iter().any(|t| t.0 < SimTime::from_micros(50)) {
                    let (_, _, gen) = m.pop_earliest();
                    assert_eq!(d.on_slot(&mut m, gen, true), DcfAction::Counting);
                }
                m.now = SimTime::from_micros(50);
                if carrier {
                    m.data_busy = true;
                    d.carrier_on(&mut m);
                } else {
                    d.observe_nav(&mut m, SimTime::from_millis(1));
                }
                let (act, _, at) = run_down(&mut d, &mut m);
                assert_eq!(act, DcfAction::Defer);
                assert_eq!(at, SLOT.mul(3));
                assert_eq!(d.bi(), bi - 2, "two idle boundaries ticked");
                outcomes.push((act, at, d.bi()));
            }
            assert_eq!(outcomes[0], outcomes[1]);
        }
    }

    #[test]
    fn stale_slot_generations_are_ignored() {
        let mut m = Mock::new();
        let mut d = Dcf::new(31, 1023, false);
        let _ = d.try_access(&mut m, true);
        let (_, _, gen, _) = *m.timers.back().unwrap();
        d.suspend(&m);
        assert_eq!(d.on_slot(&mut m, gen, true), DcfAction::Defer);
    }

    #[test]
    fn cw_grows_and_resets() {
        let mut d = Dcf::new(31, 1023, false);
        assert_eq!(d.cw(), 31);
        d.fail();
        d.fail();
        assert_eq!(d.cw(), 127);
        d.reset_cw();
        assert_eq!(d.cw(), 31);
    }

    #[test]
    fn observe_nav_keeps_the_latest_horizon() {
        let mut d = Dcf::new(31, 1023, false);
        let mut m = Mock::new();
        m.now = SimTime::from_millis(1);
        d.observe_nav(&mut m, SimTime::from_millis(5));
        d.observe_nav(&mut m, SimTime::from_millis(2));
        assert_eq!(d.nav_until(), SimTime::from_millis(6));
    }
}
