//! The discrete-event simulation engine.
//!
//! [`SimEngine`] drives a simulation from the stable, heap-backed
//! [`EventQueue`]: it owns the queue plus the clock ("now") and pops
//! events in time order, handing each to a caller-supplied handler which
//! may schedule follow-up events through the engine it receives back.
//! The engine inherits the
//! queue's determinism guarantees — same-instant events fire in the order
//! they were scheduled (FIFO), and cancellation is O(1) — so a simulation
//! driven through `SimEngine` replays bit-identically from a seed.
//!
//! The handler is a plain `FnMut(&mut SimEngine<E>, SimTime, E)`; state
//! lives *outside* the engine (typically captured by the closure), which
//! keeps the engine generic and lets one model expose both a tick-style
//! and an event-style driver over the same state.
//!
//! ```
//! use dds_sim_core::{SimEngine, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut engine = SimEngine::new();
//! engine.schedule_at(SimTime::from_secs(1), Ev::Ping);
//! let mut log = Vec::new();
//! engine.run_until(SimTime::from_secs(4), &mut |eng, now, ev| {
//!     log.push((now.as_secs(), format!("{ev:?}")));
//!     if ev == Ev::Ping {
//!         eng.schedule_after(SimDuration::from_secs(2), Ev::Pong);
//!     }
//! });
//! assert_eq!(log, vec![(1, "Ping".into()), (3, "Pong".into())]);
//! assert_eq!(engine.now(), SimTime::from_secs(4));
//! ```

use crate::events::{EventQueue, EventToken};
use crate::time::{SimDuration, SimTime};

/// A deterministic discrete-event engine: an [`EventQueue`] plus a clock.
#[derive(Debug)]
pub struct SimEngine<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for SimEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> SimEngine<E> {
    /// Creates an engine starting at the simulation epoch.
    pub fn new() -> Self {
        Self::starting_at(SimTime::EPOCH)
    }

    /// Creates an engine whose clock starts at `now` (resuming a
    /// simulation mid-flight).
    pub fn starting_at(now: SimTime) -> Self {
        SimEngine {
            queue: EventQueue::new(),
            now,
        }
    }

    /// The engine's current instant: the time of the last handled event,
    /// or the horizon of the last [`run_until`](Self::run_until) call,
    /// whichever is later.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at `at`, clamped to the present (an event
    /// requested in the past fires "now" — overdue work executes at the
    /// earliest legal instant instead of rewinding the clock). Returns a
    /// token usable with [`cancel`](Self::cancel).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        self.queue.schedule(at.max(self.now), event)
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        self.queue.cancel(token)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pops and handles the single earliest event, if any. Returns `true`
    /// when an event was handled.
    pub fn step(&mut self, handler: &mut impl FnMut(&mut Self, SimTime, E)) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                self.now = ev.time;
                handler(self, ev.time, ev.event);
                true
            }
            None => false,
        }
    }

    /// Handles every event firing at or before `horizon`, in time order
    /// with FIFO tie-breaking, then advances the clock to `horizon`.
    /// Events the handler schedules inside the window are handled in the
    /// same pass. Returns the number of events handled.
    ///
    /// Events scheduled beyond `horizon` stay pending, so a simulation can
    /// be driven in slices (`run_until(t1)`, inspect, `run_until(t2)`, …).
    pub fn run_until(
        &mut self,
        horizon: SimTime,
        handler: &mut impl FnMut(&mut Self, SimTime, E),
    ) -> usize {
        let mut handled = 0;
        while let Some(ev) = self.queue.pop_until(horizon) {
            self.now = ev.time;
            handler(self, ev.time, ev.event);
            handled += 1;
        }
        self.now = self.now.max(horizon);
        handled
    }

    /// Handles events until the queue is empty. Returns the number of
    /// events handled. The handler must eventually stop scheduling
    /// follow-ups or this never returns.
    pub fn drain(&mut self, handler: &mut impl FnMut(&mut Self, SimTime, E)) -> usize {
        let mut handled = 0;
        while self.step(handler) {
            handled += 1;
        }
        handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn events_fire_in_time_order_and_clock_tracks() {
        let mut e = SimEngine::new();
        e.schedule_at(t(30), "c");
        e.schedule_at(t(10), "a");
        e.schedule_at(t(20), "b");
        let mut seen = Vec::new();
        e.drain(&mut |eng, now, ev| {
            assert_eq!(eng.now(), now);
            seen.push(ev);
        });
        assert_eq!(seen, vec!["a", "b", "c"]);
        assert_eq!(e.now(), t(30));
    }

    #[test]
    fn handler_can_schedule_followups_within_the_window() {
        let mut e = SimEngine::new();
        e.schedule_at(t(1), 0u32);
        let mut fired = Vec::new();
        e.run_until(t(5), &mut |eng, now, ev| {
            fired.push((now.as_secs(), ev));
            if ev < 10 {
                eng.schedule_after(SimDuration::from_secs(1), ev + 1);
            }
        });
        // 1,2,3,4,5 fire inside the horizon; 6 (at t=6) stays pending.
        assert_eq!(fired.len(), 5);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.now(), t(5));
    }

    #[test]
    fn run_until_advances_clock_to_horizon_even_when_idle() {
        let mut e: SimEngine<()> = SimEngine::new();
        assert_eq!(e.run_until(t(100), &mut |_, _, _| {}), 0);
        assert_eq!(e.now(), t(100));
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut e = SimEngine::starting_at(t(50));
        e.schedule_at(t(10), "overdue");
        let mut fired_at = None;
        e.drain(&mut |_, now, _| fired_at = Some(now));
        assert_eq!(fired_at, Some(t(50)));
    }

    #[test]
    fn cancel_skips_pending_event() {
        let mut e = SimEngine::new();
        let tok = e.schedule_at(t(1), "a");
        e.schedule_at(t(2), "b");
        assert!(e.cancel(tok));
        assert_eq!(e.pending(), 1);
        let mut seen = Vec::new();
        e.drain(&mut |_, _, ev| seen.push(ev));
        assert_eq!(seen, vec!["b"]);
    }

    #[test]
    fn same_instant_fifo_survives_cancel_reschedule_churn() {
        // Repeatedly cancel and re-schedule at one instant: the pop order
        // must always be the (re)scheduling order of the survivors.
        let mut e = SimEngine::new();
        let mut tokens = Vec::new();
        for i in 0..64u32 {
            tokens.push(e.schedule_at(t(7), i));
        }
        // Cancel the evens, reschedule them (same instant) after the odds.
        for (i, tok) in tokens.iter().enumerate() {
            if i % 2 == 0 {
                assert!(e.cancel(*tok));
            }
        }
        for i in (0..64u32).step_by(2) {
            e.schedule_at(t(7), i);
        }
        let mut seen = Vec::new();
        e.run_until(t(7), &mut |_, _, ev| seen.push(ev));
        let odds: Vec<u32> = (0..64).filter(|i| i % 2 == 1).collect();
        let evens: Vec<u32> = (0..64).filter(|i| i % 2 == 0).collect();
        let expected: Vec<u32> = odds.into_iter().chain(evens).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn slice_driven_runs_resume_where_they_left_off() {
        let mut e = SimEngine::new();
        for s in [1u64, 2, 3, 4] {
            e.schedule_at(t(s), s);
        }
        let mut seen = Vec::new();
        e.run_until(t(2), &mut |_, _, ev| seen.push(ev));
        assert_eq!(seen, vec![1, 2]);
        e.run_until(t(10), &mut |_, _, ev| seen.push(ev));
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }
}
