//! Dense-id slab for live transmission/tone records.
//!
//! The channel hands out record ids from a monotonically increasing
//! counter, and records live only for one airtime (a few hundred µs of
//! sim time), so at any instant the live ids form a narrow window near
//! the top of the counter. [`IdSlab`] exploits that: records sit in a
//! ring indexed by `id - base`, making every lookup a bounds check plus
//! an array index instead of a hash probe. Ids are preserved verbatim,
//! so swapping this in for a hash map changes no event payload and no
//! tie-break — the pop-order/bit-identity contract is untouched.

use std::collections::VecDeque;

/// Ring-backed map from dense monotonically-increasing `u64` ids to
/// short-lived records. `insert` must be called with strictly increasing
/// ids (the caller's allocation counter guarantees this).
#[derive(Debug, Clone, Default)]
pub struct IdSlab<T> {
    /// Id of `ring[0]`.
    base: u64,
    /// Slot `i` holds the record for id `base + i`, or `None` once removed.
    ring: VecDeque<Option<T>>,
    /// Live (Some) entries, so `is_empty`/`len` stay O(1).
    live: usize,
}

impl<T> IdSlab<T> {
    pub fn new() -> Self {
        IdSlab {
            base: 0,
            ring: VecDeque::new(),
            live: 0,
        }
    }

    #[inline]
    fn slot(&self, id: u64) -> Option<usize> {
        // Ids below base were removed (and compacted away); ids at or
        // beyond base + ring.len() were never inserted.
        id.checked_sub(self.base)
            .map(|d| d as usize)
            .filter(|&d| d < self.ring.len())
    }

    /// Insert a record under `id`. Panics if `id` is not strictly greater
    /// than every previously inserted id.
    pub fn insert(&mut self, id: u64, value: T) {
        let next = self.base + self.ring.len() as u64;
        assert!(id >= next, "IdSlab ids must be strictly increasing");
        // Ids are allocated by `+= 1` counters, so the gap is 0 in
        // practice; tolerate gaps anyway (they cost one empty slot each).
        for _ in next..id {
            self.ring.push_back(None);
        }
        self.ring.push_back(Some(value));
        self.live += 1;
    }

    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slot(id).and_then(|i| self.ring[i].as_ref())
    }

    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        match self.slot(id) {
            Some(i) => self.ring[i].as_mut(),
            None => None,
        }
    }

    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.slot(id).is_some_and(|i| self.ring[i].is_some())
    }

    /// Remove and return the record under `id`, compacting the ring's
    /// dead prefix so `base` tracks the oldest live id.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.slot(id)?;
        let out = self.ring[i].take();
        if out.is_some() {
            self.live -= 1;
        }
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base += 1;
        }
        out
    }

    /// Drop every record, keeping the id position: later inserts must
    /// still use ids above every id inserted so far.
    pub fn clear(&mut self) {
        self.base += self.ring.len() as u64;
        self.ring.clear();
        self.live = 0;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = IdSlab::new();
        for id in 0..10u64 {
            s.insert(id, id * 100);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.get(3), Some(&300));
        assert_eq!(s.remove(3), Some(300));
        assert_eq!(s.get(3), None);
        assert!(!s.contains(3));
        assert!(s.contains(9));
        assert_eq!(s.remove(3), None);
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn prefix_compaction_keeps_lookups_valid() {
        let mut s = IdSlab::new();
        for id in 0..100u64 {
            s.insert(id, id);
        }
        // Remove in order: base should chase the oldest live id.
        for id in 0..50u64 {
            assert_eq!(s.remove(id), Some(id));
        }
        assert_eq!(s.base, 50);
        assert_eq!(s.get(49), None);
        assert_eq!(s.get(50), Some(&50));
        assert_eq!(s.get(99), Some(&99));
        // Out-of-order removal leaves holes that compact later.
        assert_eq!(s.remove(99), Some(99));
        assert_eq!(s.base, 50);
        for id in 50..99u64 {
            assert_eq!(s.remove(id), Some(id));
        }
        assert!(s.is_empty());
        assert_eq!(s.ring.len(), 0);
    }

    #[test]
    fn clear_drops_records_and_keeps_the_id_position() {
        let mut s = IdSlab::new();
        for id in 0..5u64 {
            s.insert(id, id);
        }
        s.remove(0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get(3), None);
        s.insert(5, 50);
        assert_eq!(s.ring.len(), 1, "no gap slots for the cleared ids");
        assert_eq!(s.get(5), Some(&50));
    }

    #[test]
    fn never_inserted_ids_miss() {
        let mut s: IdSlab<u8> = IdSlab::new();
        assert_eq!(s.get(0), None);
        s.insert(5, 1); // gap: ids 0..5 skipped
        assert_eq!(s.get(4), None);
        assert!(s.contains(5));
        assert_eq!(s.get(6), None);
    }
}
