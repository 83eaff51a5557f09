//! Per-thread lock-free ring buffers for trace events.
//!
//! Each OS thread that emits events owns one [`Ring`]: a fixed-size array
//! of 5-word slots plus a monotonically increasing head counter. Only the
//! owning thread writes; the head counter wraps over the slot array, so
//! when a ring fills the oldest events are overwritten (and counted as
//! dropped) rather than blocking or allocating.
//!
//! A thread's ring lives in the same thread-local slot as its session
//! handle (see [`crate::session`]), so entering another session drops the
//! old ring and a ring is never reused across sessions. The session
//! holds `Arc`s to every ring and snapshots them after the traced program
//! has quiesced.

use crate::event::{Event, WORDS_PER_EVENT};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of events retained per thread by default (~1.25 MiB per thread
/// at 40 bytes per slot).
pub const DEFAULT_EVENTS_PER_THREAD: usize = 1 << 15;

/// A quiesced copy of one ring's contents plus its loss accounting.
pub struct RingSnapshot {
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Slots whose kind byte failed to decode (torn wraparound read);
    /// skipped rather than panicking.
    pub corrupt: u64,
}

/// One thread's event buffer. Written by its owner thread only.
pub struct Ring {
    /// `WORDS_PER_EVENT` words per slot, `capacity * WORDS_PER_EVENT`
    /// entries.
    slots: Vec<AtomicU64>,
    capacity: usize,
    /// Total events ever pushed; slot index is `head % capacity`.
    head: AtomicU64,
    /// Tetra thread id of the first event pushed, plus one (0 = none yet).
    /// Used to attribute this ring's drops to a thread in the report.
    owner_tid: AtomicU64,
}

impl Ring {
    pub fn new(capacity: usize) -> Ring {
        assert!(capacity > 0);
        let mut slots = Vec::with_capacity(capacity * WORDS_PER_EVENT);
        for _ in 0..capacity * WORDS_PER_EVENT {
            slots.push(AtomicU64::new(0));
        }
        Ring { slots, capacity, head: AtomicU64::new(0), owner_tid: AtomicU64::new(0) }
    }

    /// Push one event. Owner thread only; wraps over the oldest slot when
    /// full.
    #[inline]
    pub fn push(&self, event: &Event) {
        let head = self.head.load(Ordering::Relaxed);
        if head == 0 {
            self.owner_tid.store(event.tid as u64 + 1, Ordering::Relaxed);
        }
        let slot = (head as usize % self.capacity) * WORDS_PER_EVENT;
        let words = event.encode();
        for (i, w) in words.iter().enumerate() {
            self.slots[slot + i].store(*w, Ordering::Relaxed);
        }
        // Release-publish the slot contents before advancing head.
        self.head.store(head + 1, Ordering::Release);
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.capacity as u64)
    }

    /// Tetra thread id of the first event this ring received, if any.
    /// For the interpreter a ring maps 1:1 to a Tetra thread; the VM
    /// scheduler funnels every VM thread through one ring, so this is the
    /// first VM thread dispatched (in practice the main thread).
    pub fn owner_tid(&self) -> Option<u32> {
        match self.owner_tid.load(Ordering::Relaxed) {
            0 => None,
            t => Some((t - 1) as u32),
        }
    }

    /// Copy out the retained events, oldest first, counting (and
    /// skipping) corrupt slots. Call after the owner thread has quiesced
    /// (e.g. post-join) for an exact snapshot.
    pub fn snapshot(&self) -> RingSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let retained = (head as usize).min(self.capacity);
        let start = head as usize - retained;
        let mut events = Vec::with_capacity(retained);
        let mut corrupt = 0u64;
        for i in start..head as usize {
            let slot = (i % self.capacity) * WORDS_PER_EVENT;
            let mut words = [0u64; WORDS_PER_EVENT];
            for (j, w) in words.iter_mut().enumerate() {
                *w = self.slots[slot + j].load(Ordering::Relaxed);
            }
            match Event::decode(words) {
                Some(e) => events.push(e),
                None => corrupt += 1,
            }
        }
        RingSnapshot { events, corrupt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(start: u64) -> Event {
        Event { kind: EventKind::Stmt, tid: 1, start_ns: start, dur_ns: 0, a: 3, b: 0, c: 0 }
    }

    #[test]
    fn snapshot_before_wrap_is_in_order() {
        let r = Ring::new(8);
        for i in 0..5 {
            r.push(&ev(i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 5);
        assert_eq!(snap.events.iter().map(|e| e.start_ns).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(snap.corrupt, 0);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.owner_tid(), Some(1));
    }

    #[test]
    fn wraparound_keeps_newest() {
        let r = Ring::new(4);
        for i in 0..11 {
            r.push(&ev(i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events.iter().map(|e| e.start_ns).collect::<Vec<_>>(), vec![7, 8, 9, 10]);
        assert_eq!(r.pushed(), 11);
        assert_eq!(r.dropped(), 7);
    }

    #[test]
    fn exact_fill_boundary() {
        let r = Ring::new(4);
        for i in 0..4 {
            r.push(&ev(i));
        }
        assert_eq!(r.snapshot().events.len(), 4);
        assert_eq!(r.dropped(), 0);
        r.push(&ev(4));
        assert_eq!(
            r.snapshot().events.iter().map(|e| e.start_ns).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn pushed_always_equals_retained_plus_dropped() {
        // The accounting invariant the report relies on: every event ever
        // pushed is either still retained or counted as dropped, across
        // fills below, at, and far past capacity.
        for total in [0u64, 1, 3, 4, 5, 16, 61] {
            let r = Ring::new(4);
            for i in 0..total {
                r.push(&ev(i));
            }
            let retained = r.snapshot().events.len() as u64;
            assert_eq!(r.pushed(), total);
            assert_eq!(
                r.pushed(),
                retained + r.dropped(),
                "pushed != retained + dropped after {total} pushes"
            );
        }
    }

    #[test]
    fn corrupt_slot_is_skipped_and_counted() {
        let r = Ring::new(4);
        for i in 0..3 {
            r.push(&ev(i));
        }
        // Stamp an invalid kind byte into the second slot, as a torn
        // wraparound read would leave behind.
        let slot = WORDS_PER_EVENT;
        let w0 = r.slots[slot].load(Ordering::Relaxed);
        r.slots[slot].store((w0 & !0xFF) | 0xEE, Ordering::Relaxed);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.corrupt, 1);
        assert_eq!(snap.events.iter().map(|e| e.start_ns).collect::<Vec<_>>(), vec![0, 2]);
    }
}
