//! Event ordering keys.
//!
//! Every pending event sorts by an [`EventKey`] `(time, anchor, tie)`. A
//! plain push made at clock `now` is keyed `(at, now, seq)`, `seq` being
//! the queue's push counter. The counter grows with the push instant, so
//! ordering plain keys by `(time, anchor, seq)` is ordering them by
//! `(time, seq)` — the FIFO tie-break of simultaneous events.
//!
//! An *anchored* push names its anchor itself. A lazily armed backoff
//! wake-up at boundary `T` of a slot lattice with period `d` is keyed
//! `(T, T − d, …)`: `T − d` is the instant at which a per-slot countdown
//! would have pushed the event for `T`, so the wake-up sorts exactly where
//! that event would have, however early it was really pushed. Plain
//! events are never pushed exactly one slot ahead, so only lattice events
//! can tie on `(time, anchor)`; their [`Tie`] settles the order the
//! per-slot engine would have produced (DESIGN.md §12).

use crate::time::SimTime;

/// The total order of pending events: `(time, anchor, tie)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// When the event fires.
    pub time: SimTime,
    /// The instant the event sorts as if pushed at.
    pub anchor: SimTime,
    /// A plain push's sequence number (below `2^63`), or a lattice
    /// event's rank word ([`Tie::word`], at or above `2^63`).
    pub tie: u64,
}

/// The rank words of lattice events sort after every sequence number.
const LATTICE: u64 = 1 << 63;
/// Late countdowns sort after early ones.
const LATE: u64 = 1 << 62;
/// Bits of the within-instant ordinal.
const ORD_BITS: u32 = 20;
const ORD_MAX: u64 = (1 << ORD_BITS) - 1;
/// The age field: 42 bits of nanoseconds (over an hour; a lattice lives
/// for at most its BI of slots).
const AGE_MAX: u64 = (1 << 42) - 1;

impl EventKey {
    /// The key of a plain push at clock `now`, firing at `at`.
    #[inline]
    pub fn plain(at: SimTime, now: SimTime, seq: u64) -> EventKey {
        debug_assert!(seq < LATTICE, "sequence numbers exhausted");
        EventKey {
            time: at,
            anchor: now,
            tie: seq,
        }
    }

    /// The key of the boundary at `at` of a slot lattice with period
    /// `slot` and tie `tie`: anchored one slot before `at`.
    #[inline]
    pub fn on_lattice(at: SimTime, slot: SimTime, tie: Tie) -> EventKey {
        EventKey {
            time: at,
            anchor: at - slot,
            tie: tie.word(at),
        }
    }

    /// Whether this is a lattice event's key.
    #[inline]
    pub fn is_lattice(&self) -> bool {
        self.tie >= LATTICE
    }
}

/// The tie-break of one slot lattice against the other lattices its
/// boundaries coincide with.
///
/// Per slot, the events of aligned lattices at one boundary are pushed
/// while their predecessors one slot earlier dispatch, so their order is
/// the order of those predecessors, and so on back to each countdown's
/// start. A countdown opened by a dispatch anchored *before* the previous
/// boundary (`early`) dispatched ahead of every lattice event at its start
/// instant, so it sorts ahead of every older lattice from then on; one
/// opened by a dispatch anchored *after* it (`late`) sorts behind them.
/// Countdowns opened at one instant keep the order of their first pushes.
/// [`Tie::word`] encodes that order at a boundary `T` as one integer:
/// early countdowns youngest first (by age `T − t0`), then late countdowns
/// oldest first, each instant's opens by their first push's position in
/// the instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tie {
    /// Opened by a dispatch anchored after the previous boundary.
    pub late: bool,
    /// The instant the countdown opened.
    pub t0: SimTime,
    /// Its first push's position among the pushes of that instant.
    pub ordinal: u64,
}

impl Tie {
    /// The tie of a lattice with period `slot` opened now by the event
    /// keyed `dispatch`, whose first push takes sequence number `seq`;
    /// `instant_seq` is the sequence number the first push of the current
    /// instant took.
    ///
    /// If the opening event is itself a boundary of a lattice with the
    /// same period, the new lattice continues that one's position.
    pub fn open(dispatch: EventKey, slot: SimTime, instant_seq: u64, seq: u64) -> Tie {
        let late = match dispatch.time.checked_sub(slot) {
            Some(prev) if dispatch.anchor == prev => {
                debug_assert!(
                    dispatch.is_lattice(),
                    "a plain event was pushed exactly one slot ahead ({slot})"
                );
                return Tie::of(dispatch);
            }
            Some(prev) => dispatch.anchor > prev,
            None => true,
        };
        let ordinal = seq - instant_seq;
        debug_assert!(ordinal <= ORD_MAX, "too many pushes in one instant");
        Tie {
            late,
            t0: dispatch.time,
            ordinal: ordinal.min(ORD_MAX),
        }
    }

    /// The tie of the lattice event keyed `key`.
    pub fn of(key: EventKey) -> Tie {
        debug_assert!(key.is_lattice());
        let late = key.tie & LATE != 0;
        let field = (key.tie >> ORD_BITS) & AGE_MAX;
        let age = if late { AGE_MAX - field } else { field };
        Tie {
            late,
            t0: key.time - SimTime::from_nanos(age),
            ordinal: key.tie & ORD_MAX,
        }
    }

    /// The rank word of this lattice's boundary at `at`.
    #[inline]
    pub fn word(self, at: SimTime) -> u64 {
        let age = (at - self.t0).nanos();
        debug_assert!(age <= AGE_MAX, "lattice outlived its rank field");
        let (side, field) = if self.late {
            (LATE, AGE_MAX - age)
        } else {
            (0, age)
        };
        LATTICE | side | field << ORD_BITS | self.ordinal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: SimTime = SimTime::from_micros(20);

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn plain_keys_order_by_time_then_push() {
        let a = EventKey::plain(us(50), us(10), 3);
        let b = EventKey::plain(us(50), us(30), 4);
        let c = EventKey::plain(us(40), us(30), 5);
        assert!(c < a && a < b);
    }

    #[test]
    fn lattice_keys_sort_at_their_anchor() {
        // Pushed at 0 for boundary 100: sorts after a plain event pushed
        // at 70 and before one pushed at 90, like a push made at 80.
        let tie = Tie::open(EventKey::plain(us(0), us(0), 0), D, 0, 1);
        let lazy = EventKey::on_lattice(us(100), D, tie);
        assert_eq!(lazy.anchor, us(80));
        assert!(lazy.is_lattice());
        assert!(EventKey::plain(us(100), us(70), 9) < lazy);
        assert!(lazy < EventKey::plain(us(100), us(90), 2));
    }

    #[test]
    fn early_opens_precede_older_lattices_and_late_opens_follow() {
        // An older lattice started at 0 by a late entry.
        let old = Tie::open(EventKey::plain(us(0), us(0), 0), D, 0, 1);
        assert!(old.late);
        // At 40 (a boundary of the old lattice), one countdown opens from
        // an event anchored long before (early), one from an event
        // anchored within the last slot (late).
        let early = Tie::open(EventKey::plain(us(40), us(5), 7), D, 9, 10);
        let late = Tie::open(EventKey::plain(us(40), us(39), 8), D, 9, 11);
        let at = |t: Tie| EventKey::on_lattice(us(100), D, t);
        assert!(at(early) < at(old));
        assert!(at(old) < at(late));
        // A second early open at a later boundary goes ahead of both.
        let younger = Tie::open(EventKey::plain(us(60), us(0), 12), D, 13, 13);
        assert!(at(younger) < at(early));
        // Same instant, same side: first push first.
        let early2 = Tie::open(EventKey::plain(us(40), us(6), 9), D, 9, 14);
        assert!(at(early) < at(early2));
        // A later late open goes behind.
        let later = Tie::open(EventKey::plain(us(60), us(59), 15), D, 13, 16);
        assert!(at(late) < at(later));
    }

    #[test]
    fn ties_round_trip_through_keys() {
        for late in [false, true] {
            let t = Tie {
                late,
                t0: us(1234),
                ordinal: 77,
            };
            let k = EventKey::on_lattice(us(1234) + D.mul(9), D, t);
            assert_eq!(Tie::of(k), t);
        }
    }

    #[test]
    fn a_boundary_opening_a_countdown_continues_its_lattice() {
        let t = Tie::open(EventKey::plain(us(0), us(0), 0), D, 0, 1);
        let boundary = EventKey::on_lattice(us(60), D, t);
        assert_eq!(Tie::open(boundary, D, 40, 99), t);
    }

    /// The order lazy keys give the boundaries of aligned lattices is the
    /// order a per-slot queue dispatches them in. Random countdowns open
    /// on one 20 µs grid, each from an entry event pushed at a random
    /// instant up to three slots before it fires (early and late, several
    /// per instant); the per-slot run chains plain pushes one slot ahead,
    /// the lazy run pushes every boundary up front with `on_lattice`.
    #[test]
    fn lattice_ties_replay_the_per_slot_order() {
        use crate::queue::EventQueue;

        #[derive(Clone, Copy)]
        enum Ev {
            /// Push countdown `i`'s entry event.
            Pusher(usize),
            /// Countdown `i` opens.
            Entry(usize),
            /// Boundary `k` of countdown `i`.
            Boundary(usize, u64),
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for _trial in 0..300 {
            let count = 2 + rand(7) as usize;
            // (t0, entry push instant, boundaries)
            let lattices: Vec<(SimTime, SimTime, u64)> = (0..count)
                .map(|_| {
                    let t0 = us(100) + D.mul(rand(6));
                    let lead = loop {
                        let lead = SimTime::from_nanos(rand(3 * D.nanos()));
                        if lead != D {
                            break lead;
                        }
                    };
                    (t0, t0 - lead, 1 + rand(8))
                })
                .collect();
            let run = |per_slot: bool| -> Vec<(usize, u64)> {
                let mut q: EventQueue<Ev> = EventQueue::new();
                for (i, &(_, push_at, _)) in lattices.iter().enumerate() {
                    q.push(push_at, Ev::Pusher(i));
                }
                let mut order = Vec::new();
                while let Some((_, ev)) = q.pop() {
                    match ev {
                        Ev::Pusher(i) => q.push(lattices[i].0, Ev::Entry(i)),
                        Ev::Entry(i) if per_slot => q.push(q.now() + D, Ev::Boundary(i, 1)),
                        Ev::Entry(i) => {
                            let (t0, _, n) = lattices[i];
                            let tie = Tie::open(q.current_key(), D, q.instant_seq(), q.next_seq());
                            for k in 1..=n {
                                let at = t0 + D.mul(k);
                                q.push_keyed(EventKey::on_lattice(at, D, tie), Ev::Boundary(i, k));
                            }
                        }
                        Ev::Boundary(i, k) => {
                            order.push((i, k));
                            if per_slot && k < lattices[i].2 {
                                q.push(q.now() + D, Ev::Boundary(i, k + 1));
                            }
                        }
                    }
                }
                order
            };
            assert_eq!(run(false), run(true));
        }
    }

    #[test]
    fn starts_before_one_slot_are_late() {
        let t = Tie::open(EventKey::plain(us(3), us(0), 0), D, 0, 1);
        assert!(t.late);
    }
}
