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
//! Events cannot be cancelled. A consumer that must retract one keeps
//! its own record of what is live and ignores a stale event when it pops
//! (the datacenter engine does so for its scheduled wakes).

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

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

/// A stable discrete-event queue.
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
            next_seq: 0,
            last_popped: None,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling *in the past* relative to the last popped event is a
    /// simulation-logic bug; it is rejected with a panic in debug builds
    /// (in release builds the event simply fires immediately, preserving
    /// global time monotonicity from the consumer's perspective).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        debug_assert!(
            self.last_popped.is_none_or(|lp| time >= lp),
            "scheduled event at {time:?} before current time {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Reverse(entry) = self.heap.pop()?;
        self.last_popped = Some(entry.time);
        Some(ScheduledEvent {
            time: entry.time,
            event: entry.event,
        })
    }

    /// Pops the earliest event only if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// The firing time of the earliest event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        q.schedule(t(1), 1);
        assert_eq!(q.pop_until(t(5)).unwrap().event, 1);
        assert!(q.pop_until(t(5)).is_none());
        assert_eq!(q.pop_until(t(10)).unwrap().event, 10);
    }

    proptest! {
        /// Popped times are non-decreasing for arbitrary schedules, and
        /// every event comes out exactly once.
        #[test]
        fn ordering_and_conservation(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &s) in times.iter().enumerate() {
                q.schedule(t(s), i);
            }
            let mut last = SimTime::EPOCH;
            let mut seen = std::collections::HashSet::new();
            while let Some(ev) = q.pop() {
                prop_assert!(ev.time >= last);
                last = ev.time;
                prop_assert!(seen.insert(ev.event));
            }
            prop_assert_eq!(seen.len(), times.len());
        }

        /// Random interleavings of every operation against a naive scan
        /// over `(time, seq, queued)`: the same pops in the same order
        /// (FIFO among equal times), the same `peek_time` and the same
        /// `len()`.
        #[test]
        fn matches_a_naive_scan(
            ops in proptest::collection::vec((0u8..7, 0u64..1_000), 1..400),
        ) {
            let mut q = EventQueue::new();
            // Entry k is the k-th schedule: (time, queued); its payload and
            // sequence number are both k.
            let mut naive: Vec<(SimTime, bool)> = Vec::new();
            let mut now = SimTime::EPOCH;
            let head = |naive: &[(SimTime, bool)]| {
                (0..naive.len())
                    .filter(|&k| naive[k].1)
                    .min_by_key(|&k| (naive[k].0, k))
            };
            for (kind, x) in ops {
                // Pops due now by the scan; checked against the queue below.
                let mut due = None;
                match kind {
                    // Schedules, often at an instant already queued.
                    0..=3 => {
                        let at = now + SimDuration::from_secs(x % 6);
                        q.schedule(at, naive.len());
                        naive.push((at, true));
                    }
                    4 => due = Some((q.pop(), None)),
                    5 => {
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
            }
            let rest: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            let mut want: Vec<usize> = (0..naive.len()).filter(|&k| naive[k].1).collect();
            want.sort_by_key(|&k| (naive[k].0, k));
            prop_assert_eq!(rest, want);
        }
    }
}
