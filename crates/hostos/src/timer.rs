//! High-resolution timer wheel — the stand-in for the kernel hrtimer tree.
//!
//! §V-B: before suspending, the suspending module "scans the
//! high-resolution timers that are registered in the kernel. When a
//! process sleeps, it registers a timer which will wake it up when the
//! time comes. The waking date is then the earliest of these […] we obtain
//! this information via a helper kernel module we developed, that walks
//! the red-black tree structure that is used internally by the kernel to
//! store the timers."
//!
//! A `BTreeMap` keyed by `(expiry, timer-id)` gives the same ordered-tree
//! semantics as the kernel's red-black tree; the filtered walk skips
//! timers registered by blacklisted processes (the false-positive timers
//! the paper filters out).

use crate::process::{Blacklist, Pid, ProcessTable};
use dds_sim_core::SimTime;
use std::collections::BTreeMap;

/// Identifier of a registered timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// A registered high-resolution timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerEntry {
    /// The timer's identifier.
    pub id: TimerId,
    /// Expiry instant.
    pub expires: SimTime,
    /// Process that registered the timer.
    pub owner: Pid,
    /// Human-readable purpose (diagnostics: "backup-cron", "tcp-keepalive").
    pub label: String,
}

/// The ordered timer tree.
#[derive(Debug, Clone, Default)]
pub struct TimerWheel {
    tree: BTreeMap<(SimTime, TimerId), TimerEntry>,
    next_id: u64,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a timer; returns its id.
    pub fn register(&mut self, expires: SimTime, owner: Pid, label: impl Into<String>) -> TimerId {
        let id = TimerId(self.next_id);
        self.next_id += 1;
        self.tree.insert(
            (expires, id),
            TimerEntry {
                id,
                expires,
                owner,
                label: label.into(),
            },
        );
        id
    }

    /// Cancels a timer by id; O(n) scan acceptable at host scale.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let key = self.tree.iter().find(|(_, e)| e.id == id).map(|(k, _)| *k);
        match key {
            Some(k) => {
                self.tree.remove(&k);
                true
            }
            None => false,
        }
    }

    /// Number of registered timers.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no timers are registered.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The earliest timer regardless of ownership.
    pub fn earliest(&self) -> Option<&TimerEntry> {
        self.tree.values().next()
    }

    /// The earliest timer whose owner is a live, **non-blacklisted**
    /// process — the paper's filtered walk. Timers owned by blacklisted or
    /// vanished processes are skipped ("we filter the timers according to
    /// the processes that registered them"). Returns `None` when no valid
    /// timer exists: "the host can remain suspended indefinitely until the
    /// waking module wakes it up because of an external request".
    pub fn earliest_valid(
        &self,
        table: &ProcessTable,
        blacklist: &Blacklist,
    ) -> Option<&TimerEntry> {
        self.tree.values().find(|entry| {
            table
                .get(entry.owner)
                .is_some_and(|p| !blacklist.contains(&p.name))
        })
    }

    /// Iterates all timers in expiry order.
    pub fn iter(&self) -> impl Iterator<Item = &TimerEntry> {
        self.tree.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcState;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn earliest_is_min_expiry() {
        let mut w = TimerWheel::new();
        w.register(t(30), Pid(1), "late");
        w.register(t(10), Pid(1), "early");
        w.register(t(20), Pid(1), "mid");
        assert_eq!(w.earliest().unwrap().label, "early");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn filtered_walk_skips_blacklisted_and_dead_owners() {
        let mut table = ProcessTable::new();
        let wd = table.spawn("watchdog", ProcState::Sleeping { wake: None });
        let vm = table.spawn("qemu-v1", ProcState::Sleeping { wake: None });
        let ghost = Pid(99); // never spawned
        let bl = Blacklist::standard();

        let mut w = TimerWheel::new();
        w.register(t(5), wd, "watchdog-tick");
        w.register(t(8), ghost, "stale");
        w.register(t(10), vm, "vm-cron");

        let valid = w.earliest_valid(&table, &bl).unwrap();
        assert_eq!(valid.label, "vm-cron");
        assert_eq!(valid.expires, t(10));
        // Unfiltered earliest is the watchdog.
        assert_eq!(w.earliest().unwrap().label, "watchdog-tick");
    }

    #[test]
    fn no_valid_timer_means_none() {
        let mut table = ProcessTable::new();
        let wd = table.spawn("kworker", ProcState::Sleeping { wake: None });
        let bl = Blacklist::standard();
        let mut w = TimerWheel::new();
        w.register(t(5), wd, "kernel-tick");
        assert!(w.earliest_valid(&table, &bl).is_none());
        assert!(TimerWheel::new().earliest_valid(&table, &bl).is_none());
    }

    #[test]
    fn cancel_removes_timer() {
        let mut w = TimerWheel::new();
        let a = w.register(t(1), Pid(0), "a");
        let b = w.register(t(2), Pid(0), "b");
        assert!(w.cancel(a));
        assert!(!w.cancel(a));
        assert_eq!(w.earliest().unwrap().id, b);
    }

    #[test]
    fn equal_expiries_are_kept_distinct() {
        let mut w = TimerWheel::new();
        w.register(t(5), Pid(0), "x");
        w.register(t(5), Pid(1), "y");
        assert_eq!(w.len(), 2);
        let fired: Vec<_> = w.iter().collect();
        // Registration order preserved among equal expiries (id order).
        assert_eq!(fired[0].label, "x");
        assert_eq!(fired[1].label, "y");
    }

    proptest! {
        /// The wheel yields timers in nondecreasing expiry order and never
        /// loses or duplicates entries.
        #[test]
        fn ordering_and_conservation(expiries in proptest::collection::vec(0u64..10_000, 1..100)) {
            let mut w = TimerWheel::new();
            for &e in &expiries {
                w.register(t(e), Pid(0), "t");
            }
            let fired: Vec<_> = w.iter().collect();
            prop_assert_eq!(fired.len(), expiries.len());
            for pair in fired.windows(2) {
                prop_assert!(pair[0].expires <= pair[1].expires);
            }
            let mut sorted = expiries.clone();
            sorted.sort_unstable();
            for (f, &e) in fired.iter().zip(sorted.iter()) {
                prop_assert_eq!(f.expires, t(e));
            }
        }
    }
}
