//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with **stable FIFO
//! tie-breaking**: events scheduled for the same instant pop in the order
//! they were pushed. Stability is what makes whole-datacenter simulations
//! bit-for-bit reproducible across runs — `BinaryHeap` alone does not
//! guarantee any order among equal keys, so every entry carries a
//! monotonically increasing sequence number, and the queue is a
//! `BinaryHeap` ordered by `(time, seq)`: O(log n) per operation,
//! allocation-light.
//!
//! Events may be cancelled lazily by token: cancellation marks the token
//! and the entry is skipped on pop, which keeps cancellation O(1) at the
//! cost of dead entries ("tombstones") in storage. When tombstones exceed
//! half the live entries the queue compacts — rebuilding storage without
//! the dead entries — so cancel-heavy workloads (the engine's
//! wake-resynchronization churn) hold bounded memory.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

/// Token returned by [`EventQueue::schedule`]; can be used to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

/// An event popped from the queue: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

#[derive(Debug)]
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
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A stable, cancellable discrete-event queue.
///
/// ```
/// use dds_sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(10), "b");
/// q.schedule(SimTime::from_secs(5), "a");
/// q.schedule(SimTime::from_secs(10), "c"); // same time as "b": FIFO
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Sequence numbers scheduled and not yet popped or cancelled.
    pending: HashSet<u64>,
    /// Cancelled sequence numbers whose entries are still in storage.
    cancelled: HashSet<u64>,
    next_seq: u64,
    last_popped: Option<SimTime>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            last_popped: None,
        }
    }

    /// Schedules `event` to fire at `time`, returning a cancellation token.
    ///
    /// Scheduling *in the past* relative to the last popped event is a
    /// simulation-logic bug; it is rejected with a panic in debug builds
    /// (in release builds the event simply fires immediately, preserving
    /// global time monotonicity from the consumer's perspective).
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        debug_assert!(
            self.last_popped.is_none_or(|lp| time >= lp),
            "scheduled event at {time:?} before current time {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.heap.push(Reverse(Entry { time, seq, event }));
        EventToken(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the token
    /// was still pending (i.e. not yet popped or cancelled).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        // `pending` is the source of truth: tokens never issued, already
        // popped, or already cancelled all report `false` — and never
        // plant a tombstone for an entry that is not in storage.
        if !self.pending.remove(&token.0) {
            return false;
        }
        self.cancelled.insert(token.0);
        self.maybe_compact();
        true
    }

    /// Pops the earliest pending event, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        loop {
            let Reverse(entry) = self.heap.pop()?;
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.pending.remove(&entry.seq);
            self.last_popped = Some(entry.time);
            return Some(ScheduledEvent {
                time: entry.time,
                event: entry.event,
            });
        }
    }

    /// Pops the earliest event only if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (time, seq) = self.heap.peek().map(|Reverse(e)| (e.time, e.seq))?;
            if self.cancelled.contains(&seq) {
                // Reclaim the tombstone on the way past.
                self.heap.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            return Some(time);
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries physically held in storage, *including* not-yet
    /// reclaimed tombstones. Diagnostics only: the compaction regression
    /// test pins that churny cancel loads keep this bounded.
    pub fn storage_len(&self) -> usize {
        self.heap.len()
    }

    /// Rebuilds storage without tombstones once they outnumber half the
    /// live entries, so cancel-heavy workloads hold bounded memory. The
    /// rebuild keeps every `(time, seq)` key, so pop order is unaffected.
    fn maybe_compact(&mut self) {
        let live = self.pending.len();
        if self.cancelled.len() <= live / 2 || self.cancelled.len() < 32 {
            return;
        }
        let cancelled = &self.cancelled;
        self.heap.retain(|Reverse(e)| !cancelled.contains(&e.seq));
        self.cancelled.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_token_is_false() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(!q.cancel(EventToken(99)));
    }

    #[test]
    fn cancel_after_pop_is_false_and_leaves_no_tombstone() {
        // Regression: cancelling an already-fired token used to plant a
        // permanent tombstone (and could underflow `len`). `pending` is
        // now the source of truth.
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
        assert_eq!(q.storage_len(), 0);
    }

    #[test]
    fn fifo_survives_cancel_reschedule_churn_at_one_instant() {
        // The engine cancels and re-schedules its "next scheduled wake"
        // event every control epoch; same-instant FIFO must hold through
        // that churn: survivors pop in (re)scheduling order, never in
        // storage-internal order.
        let mut q = EventQueue::new();
        let mut live: Vec<(u32, EventToken)> = Vec::new();
        let mut next = 0u32;
        for round in 0..10 {
            // Schedule a fresh batch at the same instant.
            for _ in 0..10 {
                live.push((next, q.schedule(t(42), next)));
                next += 1;
            }
            // Cancel every third pending event (stale wake deadlines).
            let mut i = 0;
            live.retain(|(_, tok)| {
                i += 1;
                if i % 3 == round % 3 {
                    assert!(q.cancel(*tok));
                    false
                } else {
                    true
                }
            });
        }
        let expected: Vec<u32> = live.iter().map(|(v, _)| *v).collect();
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        q.schedule(t(1), 1);
        assert_eq!(q.pop_until(t(5)).unwrap().event, 1);
        assert!(q.pop_until(t(5)).is_none());
        assert_eq!(q.pop_until(t(10)).unwrap().event, 10);
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn churny_cancellation_keeps_storage_bounded() {
        // Satellite regression: before compaction, a cancel/re-schedule
        // loop (the wake-resync pattern) accumulated one dead heap entry
        // per cancel — O(iterations) memory for O(1) live events. With
        // tombstones compacted past half the live count, storage stays
        // within a small constant factor of the live entries.
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        for i in 0..8u32 {
            tokens.push(q.schedule(t(1_000), i));
        }
        for round in 0..10_000u64 {
            // Cancel all live timers and re-schedule them (a control
            // epoch pushing every host's wake deadline out).
            for tok in tokens.drain(..) {
                assert!(q.cancel(tok));
            }
            for i in 0..8u32 {
                tokens.push(q.schedule(t(1_000 + round), i));
            }
            assert!(
                q.storage_len() <= 8 + 2 * 32,
                "{} stored entries for 8 live after round {round}",
                q.storage_len()
            );
        }
        assert_eq!(q.len(), 8);
    }

    proptest! {
        /// Popped times are non-decreasing for arbitrary schedules, and all
        /// non-cancelled events come out exactly once.
        #[test]
        fn ordering_and_conservation(
            times in proptest::collection::vec(0u64..1_000, 1..200),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut tokens = Vec::new();
            for (i, &s) in times.iter().enumerate() {
                tokens.push((i, q.schedule(t(s), i)));
            }
            let mut cancelled = std::collections::HashSet::new();
            for ((i, tok), &c) in tokens.iter().zip(cancel_mask.iter()) {
                if c && q.cancel(*tok) {
                    cancelled.insert(*i);
                }
            }
            let mut last = SimTime::EPOCH;
            let mut seen = std::collections::HashSet::new();
            while let Some(ev) = q.pop() {
                prop_assert!(ev.time >= last);
                last = ev.time;
                prop_assert!(seen.insert(ev.event));
                prop_assert!(!cancelled.contains(&ev.event));
            }
            prop_assert_eq!(seen.len() + cancelled.len(), times.len());
        }
    }
}
