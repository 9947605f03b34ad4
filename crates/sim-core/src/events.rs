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
//! Events may be cancelled lazily by token: cancellation clears the
//! token's pending bit and the entry is skipped on pop, which keeps
//! cancellation O(1) at the cost of dead entries ("tombstones") in
//! storage. When tombstones exceed half the live entries the queue
//! compacts — rebuilding storage without the dead entries — so
//! cancel-heavy workloads (the engine's wake-resynchronization churn)
//! hold bounded memory.
//!
//! Which events are pending is one bit per sequence number, not a hashed
//! set: sequence numbers are dense and issued in order, so the bits are a
//! deque of words that drops each front word once its 64 events are all
//! resolved, spanning the oldest pending event to the newest. An entry in
//! storage whose bit is clear is a tombstone, and a count of them is all
//! compaction needs.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

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
    pending: SeqBits,
    /// Cancelled entries still in storage.
    tombstones: usize,
    next_seq: u64,
    last_popped: Option<SimTime>,
}

/// A set of sequence numbers, one bit each, for numbers inserted in
/// increasing order: word `k` of `words` holds numbers
/// `64 * (first + k)` to `64 * (first + k) + 63`. A front word that is
/// empty and not the newest holds only removed numbers, so it is dropped.
#[derive(Debug, Default)]
struct SeqBits {
    words: VecDeque<u64>,
    first: u64,
    len: usize,
}

impl SeqBits {
    /// Inserts `seq`, which must exceed every number inserted so far.
    fn insert(&mut self, seq: u64) {
        let word = (seq / 64 - self.first) as usize;
        if word == self.words.len() {
            self.words.push_back(0);
        }
        self.words[word] |= 1 << (seq % 64);
        self.len += 1;
    }

    fn contains(&self, seq: u64) -> bool {
        (seq / 64)
            .checked_sub(self.first)
            .and_then(|word| self.words.get(word as usize))
            .is_some_and(|bits| bits & (1 << (seq % 64)) != 0)
    }

    /// Removes `seq`; returns whether it was present.
    fn remove(&mut self, seq: u64) -> bool {
        if !self.contains(seq) {
            return false;
        }
        self.words[(seq / 64 - self.first) as usize] &= !(1 << (seq % 64));
        self.len -= 1;
        while self.words.len() > 1 && self.words[0] == 0 {
            self.words.pop_front();
            self.first += 1;
        }
        true
    }
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
            pending: SeqBits::default(),
            tombstones: 0,
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
        if !self.pending.remove(token.0) {
            return false;
        }
        self.tombstones += 1;
        self.maybe_compact();
        true
    }

    /// Pops the earliest pending event, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        loop {
            let Reverse(entry) = self.heap.pop()?;
            if !self.pending.remove(entry.seq) {
                self.tombstones -= 1;
                continue;
            }
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
            if !self.pending.contains(seq) {
                // Reclaim the tombstone on the way past.
                self.heap.pop();
                self.tombstones -= 1;
                continue;
            }
            return Some(time);
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len
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
        if self.tombstones <= self.pending.len / 2 || self.tombstones < 32 {
            return;
        }
        let pending = &self.pending;
        self.heap.retain(|Reverse(e)| pending.contains(e.seq));
        self.tombstones = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
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
        // 80,008 events issued; the pending bits span the last few.
        assert!(
            q.pending.words.len() <= 2,
            "{} words",
            q.pending.words.len()
        );
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

        /// Random interleavings of every operation against a naive scan
        /// over `(time, seq, live)`: the same pops in the same order (FIFO
        /// among equal times), the same `cancel` answers for pending,
        /// cancelled, popped and never-issued tokens, the same `len()`, and
        /// tombstones that only a `cancel` adds, compacted past the bound.
        #[test]
        fn matches_a_naive_scan(
            ops in proptest::collection::vec((0u8..11, 0u64..1_000, 1u64..17), 1..100),
        ) {
            let mut q = EventQueue::new();
            // Entry k is the k-th schedule: (time, live); its payload and
            // sequence number are both k.
            let mut naive: Vec<(SimTime, bool)> = Vec::new();
            let mut tokens = Vec::new();
            let mut now = SimTime::EPOCH;
            let head = |naive: &[(SimTime, bool)]| {
                (0..naive.len())
                    .filter(|&k| naive[k].1)
                    .min_by_key(|&k| (naive[k].0, k))
            };
            // Each operation repeats up to 16 times, so bursts of
            // cancellations can outgrow the compaction threshold.
            let ops = ops
                .into_iter()
                .flat_map(|(kind, x, reps)| (0..reps).map(move |r| (kind, x + 97 * r)));
            for (kind, x) in ops {
                let tombstones = q.storage_len() - q.len();
                let mut cancelled = false;
                // Pops due now by the scan; checked against the queue below.
                let mut due = None;
                match kind {
                    // Schedules, often at an instant already queued.
                    0..=3 => {
                        let at = now + SimDuration::from_secs(x % 6);
                        tokens.push(q.schedule(at, naive.len()));
                        naive.push((at, true));
                    }
                    // Cancels any token issued so far.
                    4..=6 => {
                        if tokens.is_empty() {
                            continue;
                        }
                        let k = x as usize % tokens.len();
                        let pending = std::mem::replace(&mut naive[k].1, false);
                        prop_assert_eq!(q.cancel(tokens[k]), pending);
                        cancelled = pending;
                    }
                    7 => {
                        let unissued = EventToken(naive.len() as u64 + x % 4);
                        prop_assert!(!q.cancel(unissued));
                    }
                    8 => due = Some((q.pop(), None)),
                    9 => {
                        let horizon = now + SimDuration::from_secs(x % 6);
                        due = Some((q.pop_until(horizon), Some(horizon)));
                    }
                    _ => prop_assert_eq!(q.peek_time(), head(&naive).map(|k| naive[k].0)),
                }
                if let Some((popped, horizon)) = due {
                    let want = head(&naive).filter(|&k| horizon.is_none_or(|h| naive[k].0 <= h));
                    if let Some(k) = want {
                        naive[k].1 = false;
                        now = naive[k].0;
                    }
                    let popped = popped.map(|e| (e.time, e.event));
                    prop_assert_eq!(popped, want.map(|k| (naive[k].0, k)));
                }
                prop_assert_eq!(q.len(), naive.iter().filter(|e| e.1).count());
                let after = q.storage_len() - q.len();
                if cancelled {
                    prop_assert!(after <= (q.len() / 2).max(31), "{after} tombstones");
                } else {
                    prop_assert!(after <= tombstones, "{tombstones} → {after} tombstones");
                }
            }
            let rest: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            let mut want: Vec<usize> = (0..naive.len()).filter(|&k| naive[k].1).collect();
            want.sort_by_key(|&k| (naive[k].0, k));
            prop_assert_eq!(rest, want);
        }
    }
}
