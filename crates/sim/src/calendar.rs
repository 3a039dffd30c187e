//! The calendar queue: an O(1)-amortized event queue for the RMAC cadence.
//!
//! The binary-heap [`EventQueue`](crate::EventQueue) pays `O(log n)`
//! compare-and-swap traffic on every operation, and the rmac-obs kernel
//! histograms show those heap ops dominating the dense 200-node workload:
//! almost every event the MAC layer schedules lands within a few tone
//! windows (~15 µs) of the current clock, so the heap keeps re-sifting a
//! working set whose order is nearly sorted already. A calendar queue
//! exploits exactly that cadence:
//!
//! * Virtual time is cut into fixed windows of `2^shift` ns. The **active
//!   window** `[base, base + width)` is materialised as two structures
//!   merged at pop time by a single key compare: a `(time, seq)`-sorted
//!   **drain buffer** (events that arrived via a bucket; popping is
//!   `pop_front`) and a small **pending min-heap** (events pushed after the
//!   window went active — every propagation-delayed PHY arrival lands
//!   here). The split matters: a sorted-buffer insert would shift half the
//!   window per push, while a pure heap would pay a sift-down on every
//!   pop; the hybrid pays `O(1)` for bucket-drained pops and `O(log p)`
//!   only for the (small) pending side.
//! * The following `nbuckets - 1` windows live in a ring of **unsorted
//!   buckets**; a push there is an append. When the active window drains,
//!   the next non-empty bucket is sorted once and becomes the new drain
//!   buffer — batching each window's events with their same-window
//!   neighbours.
//! * Events beyond the ring horizon (beacon periods, source intervals)
//!   overflow into a small **far heap**, pulled back into the ring as the
//!   horizon advances. Far traffic is rare, so its `O(log n)` is harmless.
//!
//! Ordering is identical to the heap oracle by construction: every pending
//! event carries its `(time, seq)` key, keys are strictly unique, each pop
//! takes the smaller of the drain buffer's front and the pending heap's
//! top, and windows drain in ascending order — so the pop stream is the
//! unique ascending `(time, seq)` order, exactly what the oracle produces,
//! independent of either structure's internal layout. The differential harness
//! `tests/queue_equivalence.rs` holds the two implementations to identical
//! pop streams over randomized push/pop schedules, and the
//! engine holds full replications to `RunReport` bit-identity.
//!
//! The refill step runs eagerly after every pop, so "queue non-empty ⇒
//! active window non-empty (drain buffer or pending heap)" is an invariant
//! and `peek_time`/`peek_key` are plain front reads (no interior
//! mutability behind `&self`).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A pending event with its `(time, seq)` key, reverse-ordered so a
/// `BinaryHeap` max-heap surfaces the earliest key. Used for the active
/// window's pending heap, the ring buckets, and the far-overflow heap.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Default window width: 2^12 ns = 4.096 µs. Small enough that the sorted
/// active buffer holds only a handful of events (propagation delays and
/// sub-window timers), while the 15 µs tone-window cadence lands in the
/// unsorted ring with an O(1) append.
const DEFAULT_SHIFT: u32 = 12;

/// Default ring size (must be a power of two): 1024 windows ≈ 4.2 ms of
/// horizon, covering every MAC-layer timer; only beacon periods and source
/// intervals overflow into the far heap.
const DEFAULT_NBUCKETS: usize = 1024;

/// A calendar/ladder event queue, pop-order identical to
/// [`EventQueue`](crate::EventQueue).
///
/// Drop-in behind the [`SimQueue`](crate::SimQueue) trait: deterministic
/// `(time, seq)` FIFO
/// tie-breaking for simultaneous events, a monotone clock, the same
/// past-scheduling clamp/debug-panic, and the same lifetime counters
/// (`total_pushed` / `total_popped` / `depth_high_water`) feeding rmac-obs.
pub struct CalendarQueue<E> {
    /// The active window's bucket-drained events, sorted ascending by
    /// `(time, seq)` and popped from the front.
    active: VecDeque<Entry<E>>,
    /// Events pushed into the active window after it went active, as a
    /// `(time, seq)` min-heap. Merged with `active` at pop/peek time.
    pending: BinaryHeap<Entry<E>>,
    /// Ring of unsorted future windows; window at offset `d` from the
    /// active one (`1 ≤ d < nbuckets`) lives at index `(cur + d) & mask`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Ring index of the active window.
    cur: usize,
    /// `buckets.len() - 1` (ring size is a power of two).
    mask: usize,
    /// Start of the active window, ns.
    base: u64,
    /// log₂ of the window width in ns.
    shift: u32,
    /// Events currently resident in ring buckets.
    ring_len: usize,
    /// Events at or beyond the ring horizon, earliest `(time, seq)` first.
    far: BinaryHeap<Entry<E>>,
    /// Total pending events (active + ring + far).
    len: usize,
    next_seq: u64,
    now: SimTime,
    pushed: u64,
    popped: u64,
    high_water: usize,
    /// Window advances performed (diagnostic).
    rotations: u64,
    /// Events pulled back from the far heap into the ring (diagnostic).
    far_pulls: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue positioned at time zero, with the default geometry
    /// (4.096 µs windows, 1024-window ring).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_NBUCKETS)
    }

    /// An empty queue sized for roughly `cap` pending events (the same
    /// pre-sizing hook the heap oracle exposes; the ring buckets themselves
    /// grow lazily, so only the far heap and active buffer pre-allocate).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.active.reserve(cap.clamp(64, 4096));
        q.far.reserve(cap / 8);
        q
    }

    /// An empty queue with an explicit window width of `2^shift` ns and a
    /// power-of-two ring of `nbuckets` windows. Exposed for the
    /// differential tests, which deliberately shrink the geometry so
    /// schedules straddle window and horizon boundaries constantly.
    pub fn with_geometry(shift: u32, nbuckets: usize) -> Self {
        assert!(
            nbuckets.is_power_of_two() && nbuckets >= 2,
            "calendar ring size must be a power of two ≥ 2"
        );
        assert!(shift < 48, "calendar window width out of range");
        CalendarQueue {
            active: VecDeque::new(),
            pending: BinaryHeap::new(),
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            cur: 0,
            mask: nbuckets - 1,
            base: 0,
            shift,
            ring_len: 0,
            far: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            pushed: 0,
            popped: 0,
            high_water: 0,
            rotations: 0,
            far_pulls: 0,
        }
    }

    /// Window width in ns.
    #[inline]
    fn width(&self) -> u64 {
        1u64 << self.shift
    }

    /// Ring horizon in ns past `base`.
    #[inline]
    fn span(&self) -> u64 {
        (self.buckets.len() as u64) << self.shift
    }

    /// The time of the most recently popped event (the current simulation
    /// clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current clock in release
    /// builds and panics in debug builds, exactly like the heap oracle.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={now}",
            at = at,
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(at.max(self.now), seq, event);
    }

    /// Schedule `event` after a relative delay from the current clock.
    #[inline]
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        self.push(self.now + delay, event);
    }

    fn push_keyed(&mut self, at: SimTime, seq: u64, event: E) {
        self.pushed += 1;
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
        let t = at.nanos();
        // All placement arithmetic is subtraction-based so times near
        // `u64::MAX` cannot overflow a `base + span` sum.
        if t < self.base || t - self.base < self.width() {
            // Current-window event (or one earlier than the window after an
            // empty-queue fast-forward): push onto the pending heap. This
            // is the hot case — every propagation-delayed arrival lands
            // here — and a sift-up over the small pending side beats
            // shifting a sorted buffer.
            self.pending.push(Entry {
                time: at,
                seq,
                event,
            });
        } else if t - self.base < self.span() {
            let d = ((t - self.base) >> self.shift) as usize;
            self.buckets[(self.cur + d) & self.mask].push(Entry {
                time: at,
                seq,
                event,
            });
            self.ring_len += 1;
            // The push may have landed while the queue was empty (stale
            // window position): restore the eager-drain invariant.
            if self.window_empty() {
                self.refill();
            }
        } else {
            self.far.push(Entry {
                time: at,
                seq,
                event,
            });
            if self.window_empty() {
                self.refill();
            }
        }
    }

    /// Whether the active window holds no events (both halves empty).
    #[inline]
    fn window_empty(&self) -> bool {
        self.active.is_empty() && self.pending.is_empty()
    }

    /// Pop the earliest event, advancing the clock to its timestamp: the
    /// smaller `(time, seq)` key of the drain buffer's front and the
    /// pending heap's top.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_pending = match (self.active.front(), self.pending.peek()) {
            (Some(a), Some(p)) => (p.time, p.seq) < (a.time, a.seq),
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        let Entry { time: t, event, .. } = if from_pending {
            self.pending.pop().expect("peeked pending event vanished")
        } else {
            self.active
                .pop_front()
                .expect("peeked active event vanished")
        };
        debug_assert!(t >= self.now, "calendar produced time regression");
        self.now = t;
        self.popped += 1;
        self.len -= 1;
        if self.window_empty() && self.len > 0 {
            self.refill();
        }
        Some((t, event))
    }

    /// Fused `peek_time` + `pop`: pop the head only if it is due at or
    /// before `cutoff`. One head comparison decides both which half of the
    /// hybrid window wins *and* whether the event is due, so the hot loop
    /// pays a single lookup per event.
    pub fn pop_at_or_before(&mut self, cutoff: SimTime) -> Option<(SimTime, E)> {
        let from_pending = match (self.active.front(), self.pending.peek()) {
            (Some(a), Some(p)) => {
                let pending_first = (p.time, p.seq) < (a.time, a.seq);
                let head = if pending_first { p.time } else { a.time };
                if head > cutoff {
                    return None;
                }
                pending_first
            }
            (None, Some(p)) => {
                if p.time > cutoff {
                    return None;
                }
                true
            }
            (Some(a), None) => {
                if a.time > cutoff {
                    return None;
                }
                false
            }
            (None, None) => return None,
        };
        let Entry { time: t, event, .. } = if from_pending {
            self.pending.pop().expect("peeked pending event vanished")
        } else {
            self.active
                .pop_front()
                .expect("peeked active event vanished")
        };
        debug_assert!(t >= self.now, "calendar produced time regression");
        self.now = t;
        self.popped += 1;
        self.len -= 1;
        if self.window_empty() && self.len > 0 {
            self.refill();
        }
        Some((t, event))
    }

    /// Advance the window machinery until the active window is non-empty.
    /// Pre: window empty, `len > 0`.
    fn refill(&mut self) {
        debug_assert!(self.window_empty() && self.len > 0);
        loop {
            if !self.buckets[self.cur].is_empty() {
                // Sort the current window's bucket into the drain buffer,
                // recycling the buffer's old allocation into the bucket.
                let spare = Vec::from(std::mem::take(&mut self.active));
                let mut b = std::mem::replace(&mut self.buckets[self.cur], spare);
                self.ring_len -= b.len();
                b.sort_unstable_by_key(|x| (x.time, x.seq));
                self.active = VecDeque::from(b);
                return;
            }
            if self.ring_len > 0 {
                // Advance one window; far events that entered the horizon
                // land in the just-vacated farthest bucket.
                self.base += self.width();
                self.cur = (self.cur + 1) & self.mask;
                self.rotations += 1;
                self.pull_far();
            } else {
                // Everything pending lives beyond the horizon: jump the
                // window straight to the earliest far event's window.
                let t = self
                    .far
                    .peek()
                    .expect("len > 0 with empty active, ring and far")
                    .time
                    .nanos();
                debug_assert!(t >= self.base);
                self.base += ((t - self.base) >> self.shift) << self.shift;
                self.rotations += 1;
                self.pull_far();
            }
        }
    }

    /// Move far-heap events that now fall inside the ring horizon into
    /// their buckets.
    fn pull_far(&mut self) {
        while let Some(e) = self.far.peek() {
            let t = e.time.nanos();
            debug_assert!(t >= self.base, "far event behind the window");
            if t - self.base >= self.span() {
                break;
            }
            let e = self.far.pop().expect("peeked far event vanished");
            let d = ((e.time.nanos() - self.base) >> self.shift) as usize;
            self.buckets[(self.cur + d) & self.mask].push(e);
            self.ring_len += 1;
            self.far_pulls += 1;
        }
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the earliest pending event, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        let a = self.active.front().map(|e| (e.time, e.seq));
        let p = self.pending.peek().map(|e| (e.time, e.seq));
        match (a, p) {
            (Some(a), Some(p)) => Some(a.min(p)),
            (a, p) => a.or(p),
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events pushed over the queue's lifetime.
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total number of events popped over the queue's lifetime.
    #[inline]
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// The deepest the queue has ever been (pending events).
    #[inline]
    pub fn depth_high_water(&self) -> usize {
        self.high_water
    }

    /// Events the queue can hold without any part of it reallocating
    /// (active buffer + ring buckets + far heap).
    pub fn capacity(&self) -> usize {
        self.active.capacity()
            + self.pending.capacity()
            + self.far.capacity()
            + self.buckets.iter().map(|b| b.capacity()).sum::<usize>()
    }

    /// Window advances performed over the queue's lifetime (diagnostic:
    /// the epoch-rotation cost of the chosen geometry).
    #[inline]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Events pulled back from the far heap into the ring (diagnostic:
    /// overflow traffic of the chosen horizon).
    #[inline]
    pub fn far_pulls(&self) -> u64 {
        self.far_pulls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_micros(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
        q.push_after(SimTime::from_micros(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::MICRO, 1);
        q.push(SimTime::MICRO, 2);
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.depth_high_water(), 2);
    }

    #[test]
    fn far_horizon_events_come_back_in_order() {
        // A tiny geometry (8 ns windows, 4-bucket ring = 32 ns horizon)
        // forces constant far-heap overflow and window rotation.
        let mut q = CalendarQueue::with_geometry(3, 4);
        let times = [1_000_000u64, 5, 40, 33, 7, 1_000_000, 999_999, 0, 64];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().cloned().zip(0..).collect();
        sorted.sort();
        for (t, i) in sorted {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(t), i)));
        }
        assert!(q.rotations() > 0);
        assert!(q.far_pulls() > 0);
    }

    #[test]
    fn empty_queue_fast_forwards_to_sparse_events() {
        let mut q = CalendarQueue::with_geometry(3, 4);
        // Drain fully, then schedule far beyond the stale window position.
        q.push(SimTime::from_nanos(4), ());
        q.pop();
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), ())));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_never_regresses() {
        let mut q = CalendarQueue::with_geometry(6, 8);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut last = SimTime::ZERO;
        q.push(SimTime::ZERO, 0u32);
        let mut processed = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            processed += 1;
            if processed > 10_000 {
                break;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = (x % 3) as u32;
            for i in 0..n {
                let d = (x >> (8 * i)) % 50_000;
                if processed + (q.len() as u64) < 10_000 {
                    q.push_after(SimTime::from_nanos(d), i);
                }
            }
        }
    }

    #[test]
    fn capacity_hooks_presize() {
        let q: CalendarQueue<u32> = CalendarQueue::with_capacity(512);
        assert!(q.capacity() >= 64);
    }
}
