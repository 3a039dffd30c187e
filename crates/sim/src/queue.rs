//! The event queue.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! pending event. Correctness of a MAC-layer simulation additionally demands
//! *deterministic* ordering of simultaneous events — two frames scheduled to
//! end at the same nanosecond must always be processed in the same order, or
//! replications stop being reproducible. We therefore tie-break equal
//! timestamps by a monotonically increasing sequence number (FIFO insertion
//! order).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// Events popped from the queue never travel backwards in time; pushing an
/// event earlier than the last popped time is a logic error in the caller
/// and is caught by a debug assertion in [`EventQueue::pop`].
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    pushed: u64,
    popped: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            pushed: 0,
            popped: 0,
            high_water: 0,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            ..Self::new()
        }
    }

    /// Grow the queue to hold at least `additional` more events without
    /// reallocating (embedders pre-size from the scenario scale so the
    /// heap never reallocates mid-replication).
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of events the queue can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The time of the most recently popped event (the current simulation
    /// clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past (before the current clock) is clamped to the
    /// current clock in release builds and panics in debug builds — it
    /// indicates a protocol bug such as a negative timer.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={now}",
            at = at,
            now = self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
        if self.heap.len() > self.high_water {
            self.high_water = self.heap.len();
        }
    }

    /// Schedule `event` after a relative delay from the current clock.
    #[inline]
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        self.push(self.now + delay, event);
    }

    /// The `(time, seq)` key of the earliest pending event, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap produced time regression");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    /// The deepest the queue has ever been (pending events), a capacity
    /// diagnostic for the pre-sizing heuristics.
    #[inline]
    pub fn depth_high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn capacity_hooks_presize_the_heap() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        q.reserve(1000);
        assert!(q.capacity() >= 1000);
        // Reserving never disturbs queue contents.
        q.push(SimTime::MICRO, 9);
        q.reserve(2000);
        assert_eq!(q.pop(), Some((SimTime::MICRO, 9)));
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(SimTime::MICRO, 1);
        q.push(SimTime::MICRO, 2);
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_high_water(), 0);
        q.push(SimTime::MICRO, 1);
        q.push(SimTime::MICRO, 2);
        q.push(SimTime::MICRO, 3);
        q.pop();
        q.pop();
        // Draining never lowers the mark.
        assert_eq!(q.depth_high_water(), 3);
        q.push_after(SimTime::MICRO, 4);
        assert_eq!(q.depth_high_water(), 3);
    }

    #[test]
    fn interleaved_push_pop_never_regresses() {
        // A miniature fuzz: pseudo-random pushes relative to `now` must pop
        // in non-decreasing time order.
        let mut q = EventQueue::new();
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
            // push 0..3 new events at now + pseudo-random small delays
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
}
