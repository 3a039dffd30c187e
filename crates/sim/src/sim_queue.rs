//! The queue interface the engine and the PHY channel schedule through.
//!
//! Two implementations pop in the identical `(time, seq)` order: the
//! binary-heap [`EventQueue`] (the differential-testing oracle) and the
//! [`CalendarQueue`] (the engine default). Embedders generic over
//! [`SimQueue`] monomorphize to a branch-free hot loop for either.

use crate::calendar::CalendarQueue;
use crate::queue::EventQueue;
use crate::time::SimTime;

/// The queue interface the simulation engine and PHY channel schedule
/// through, implemented by the heap oracle [`EventQueue`] and the
/// [`CalendarQueue`].
pub trait SimQueue<E> {
    /// An empty queue pre-sized for roughly `cap` pending events.
    fn with_capacity(cap: usize) -> Self
    where
        Self: Sized;
    /// The current simulation clock (time of the last popped event).
    fn now(&self) -> SimTime;
    /// Schedule `event` at absolute time `at` (clamped to `now`).
    fn push(&mut self, at: SimTime, event: E);
    /// Schedule `event` after a relative delay from the current clock.
    fn push_after(&mut self, delay: SimTime, event: E) {
        self.push(self.now() + delay, event);
    }
    /// Pop the earliest event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The timestamp of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime>;
    /// The `(time, seq)` key of the earliest pending event, if any. The
    /// sharded engine's traced path logs each dispatched event's key so
    /// per-group traces can be merged back into the oracle's order.
    fn peek_key(&self) -> Option<(SimTime, u64)>;
    /// Pop the earliest event only if its timestamp is `<= cutoff`; leave
    /// the queue untouched (returning `None`) otherwise. Equivalent to a
    /// `peek_time` check followed by `pop`, but implementations can fuse
    /// the two so the hot simulation loop pays for one head lookup per
    /// event instead of two.
    fn pop_at_or_before(&mut self, cutoff: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= cutoff => self.pop(),
            _ => None,
        }
    }
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether the queue has no pending events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total events popped over the queue's lifetime.
    fn total_popped(&self) -> u64;
    /// Total events pushed over the queue's lifetime.
    fn total_pushed(&self) -> u64;
    /// Peak pending-event depth.
    fn depth_high_water(&self) -> usize;
    /// Current capacity.
    fn capacity(&self) -> usize;
}

impl<E> SimQueue<E> for EventQueue<E> {
    #[inline]
    fn with_capacity(cap: usize) -> Self {
        EventQueue::with_capacity(cap)
    }
    #[inline]
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    #[inline]
    fn push(&mut self, at: SimTime, event: E) {
        EventQueue::push(self, at, event)
    }
    #[inline]
    fn push_after(&mut self, delay: SimTime, event: E) {
        EventQueue::push_after(self, delay, event)
    }
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        EventQueue::peek_key(self)
    }
    #[inline]
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    #[inline]
    fn total_popped(&self) -> u64 {
        EventQueue::total_popped(self)
    }
    #[inline]
    fn total_pushed(&self) -> u64 {
        EventQueue::total_pushed(self)
    }
    #[inline]
    fn depth_high_water(&self) -> usize {
        EventQueue::depth_high_water(self)
    }
    #[inline]
    fn capacity(&self) -> usize {
        EventQueue::capacity(self)
    }
}

impl<E> SimQueue<E> for CalendarQueue<E> {
    #[inline]
    fn with_capacity(cap: usize) -> Self {
        CalendarQueue::with_capacity(cap)
    }
    #[inline]
    fn now(&self) -> SimTime {
        CalendarQueue::now(self)
    }
    #[inline]
    fn push(&mut self, at: SimTime, event: E) {
        CalendarQueue::push(self, at, event)
    }
    #[inline]
    fn push_after(&mut self, delay: SimTime, event: E) {
        CalendarQueue::push_after(self, delay, event)
    }
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        CalendarQueue::pop(self)
    }
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        CalendarQueue::peek_time(self)
    }
    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        CalendarQueue::peek_key(self)
    }
    #[inline]
    fn pop_at_or_before(&mut self, cutoff: SimTime) -> Option<(SimTime, E)> {
        CalendarQueue::pop_at_or_before(self, cutoff)
    }
    #[inline]
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
    #[inline]
    fn total_popped(&self) -> u64 {
        CalendarQueue::total_popped(self)
    }
    #[inline]
    fn total_pushed(&self) -> u64 {
        CalendarQueue::total_pushed(self)
    }
    #[inline]
    fn depth_high_water(&self) -> usize {
        CalendarQueue::depth_high_water(self)
    }
    #[inline]
    fn capacity(&self) -> usize {
        CalendarQueue::capacity(self)
    }
}
