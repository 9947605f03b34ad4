//! Host power states and the legal-transition state machine.
//!
//! The paper uses ACPI terminology: S0 is the working state (we split it
//! into utilization-dependent "active" draw), S3 is suspend-to-RAM (the
//! "drowsy" state — RAM refreshed, everything else off, ≈5 W on the
//! testbed), S4/S5 are suspend-to-disk/soft-off for *empty* hosts. Both
//! suspend and resume take real time; the suspending module and the waking
//! module reason about these latencies (the waking module fires WoL
//! packets *ahead of* scheduled waking dates by the resume latency).

use dds_sim_core::{SimDuration, SimTime};
use std::fmt;

/// The power state of a host at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// S0, executing work. Power draw depends on CPU utilization.
    Active,
    /// In flight from S0 to S3: devices quiescing, RAM image prepared.
    Suspending,
    /// S3, suspend-to-RAM — the paper's *drowsy* state (~5 W).
    Suspended,
    /// In flight from S3 (or S5) back to S0, triggered by Wake-on-LAN.
    Resuming,
    /// S5 soft-off, used for hosts holding **no** VMs (classic
    /// consolidation turns empty hosts off entirely).
    Off,
}

impl PowerState {
    /// True when the host can run VM workloads right now.
    pub const fn is_operational(self) -> bool {
        matches!(self, PowerState::Active)
    }

    /// True for the low-power parked states (S3/S5), excluding transitions.
    pub const fn is_low_power(self) -> bool {
        matches!(self, PowerState::Suspended | PowerState::Off)
    }

    /// True while a timed transition is in flight.
    pub const fn is_transitioning(self) -> bool {
        matches!(self, PowerState::Suspending | PowerState::Resuming)
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerState::Active => "S0-active",
            PowerState::Suspending => "S0→S3",
            PowerState::Suspended => "S3-suspended",
            PowerState::Resuming => "S3→S0",
            PowerState::Off => "S5-off",
        };
        f.write_str(s)
    }
}

/// How fast a resume completes.
///
/// The paper measures ≈1500 ms for an unoptimized resume and ≈800 ms with
/// their quick-resume work (§VI.A.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeSpeed {
    /// Stock kernel resume path (~1.5 s on the testbed).
    Normal,
    /// Drowsy-DC's optimized resume (~0.8 s on the testbed).
    Quick,
}

/// Error returned for an illegal power-state transition request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// State the machine was in.
    pub from: PowerState,
    /// Operation that was attempted.
    pub attempted: &'static str,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot {} from state {}", self.attempted, self.from)
    }
}

impl std::error::Error for TransitionError {}

/// Per-host power state machine with timed transitions.
///
/// The machine is driven by the simulation: `begin_*` starts a transition
/// and returns its completion time; the caller schedules an event and calls
/// [`PowerStateMachine::complete_transition`] when it fires. Queries give
/// the state as of any instant within the current phase.
#[derive(Debug, Clone)]
pub struct PowerStateMachine {
    state: PowerState,
    /// When the current state/phase was entered.
    since: SimTime,
    /// Completion deadline of an in-flight transition.
    transition_done: Option<SimTime>,
}

impl PowerStateMachine {
    /// Creates a machine in `Active` at time `now`.
    pub fn new(now: SimTime) -> Self {
        PowerStateMachine {
            state: PowerState::Active,
            since: now,
            transition_done: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Instant the current state was entered.
    pub fn since(&self) -> SimTime {
        self.since
    }

    fn enter(&mut self, state: PowerState, now: SimTime, done: Option<SimTime>) {
        self.state = state;
        self.since = now;
        self.transition_done = done;
    }

    /// Starts suspend-to-RAM; returns the instant the host is fully in S3.
    pub fn begin_suspend(
        &mut self,
        now: SimTime,
        latency: SimDuration,
    ) -> Result<SimTime, TransitionError> {
        if self.state != PowerState::Active {
            return Err(TransitionError {
                from: self.state,
                attempted: "suspend",
            });
        }
        let done = now + latency;
        self.enter(PowerState::Suspending, now, Some(done));
        Ok(done)
    }

    /// Starts a resume from S3 or S5; returns the instant the host is
    /// operational again.
    pub fn begin_resume(
        &mut self,
        now: SimTime,
        latency: SimDuration,
    ) -> Result<SimTime, TransitionError> {
        if !self.state.is_low_power() {
            return Err(TransitionError {
                from: self.state,
                attempted: "resume",
            });
        }
        let done = now + latency;
        self.enter(PowerState::Resuming, now, Some(done));
        Ok(done)
    }

    /// Powers an **idle** host off (S5). Only legal from `Active`; the
    /// caller is responsible for ensuring no VMs remain. Instantaneous at
    /// this model's granularity.
    pub fn power_off(&mut self, now: SimTime) -> Result<(), TransitionError> {
        if self.state != PowerState::Active {
            return Err(TransitionError {
                from: self.state,
                attempted: "power off",
            });
        }
        self.enter(PowerState::Off, now, None);
        Ok(())
    }

    /// Completes the in-flight transition at `now` (which must be at or
    /// after the deadline returned by `begin_*`).
    pub fn complete_transition(&mut self, now: SimTime) -> Result<PowerState, TransitionError> {
        match self.state {
            PowerState::Suspending => {
                debug_assert!(self.transition_done.is_some_and(|d| now >= d));
                self.enter(PowerState::Suspended, now, None);
                Ok(PowerState::Suspended)
            }
            PowerState::Resuming => {
                debug_assert!(self.transition_done.is_some_and(|d| now >= d));
                self.enter(PowerState::Active, now, None);
                Ok(PowerState::Active)
            }
            s => Err(TransitionError {
                from: s,
                attempted: "complete transition",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn full_suspend_resume_cycle() {
        let mut m = PowerStateMachine::new(t(0));
        assert_eq!(m.state(), PowerState::Active);

        let done = m.begin_suspend(t(100), SimDuration::from_secs(3)).unwrap();
        assert_eq!(done, t(103));
        assert_eq!(m.state(), PowerState::Suspending);
        assert!(m.state().is_transitioning());

        m.complete_transition(t(103)).unwrap();
        assert_eq!(m.state(), PowerState::Suspended);
        assert!(m.state().is_low_power());
        assert_eq!(m.since(), t(103));

        let up = m
            .begin_resume(t(200), SimDuration::from_millis(800))
            .unwrap();
        assert_eq!(up, t(200) + SimDuration::from_millis(800));
        m.complete_transition(up).unwrap();
        assert_eq!(m.state(), PowerState::Active);
        assert!(m.state().is_operational());
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let mut m = PowerStateMachine::new(t(0));
        assert!(m.begin_resume(t(1), SimDuration::from_secs(1)).is_err());
        assert!(m.complete_transition(t(1)).is_err());
        m.begin_suspend(t(1), SimDuration::from_secs(1)).unwrap();
        // Double-suspend is illegal.
        assert!(m.begin_suspend(t(2), SimDuration::from_secs(1)).is_err());
        // Cannot power off mid-transition.
        assert!(m.power_off(t(2)).is_err());
    }

    #[test]
    fn power_off_only_from_active() {
        let mut m = PowerStateMachine::new(t(0));
        m.power_off(t(1)).unwrap();
        assert_eq!(m.state(), PowerState::Off);
        // From off, a resume works (WoL from S5).
        let up = m.begin_resume(t(10), SimDuration::from_secs(2)).unwrap();
        m.complete_transition(up).unwrap();
        assert_eq!(m.state(), PowerState::Active);
    }

    #[test]
    fn error_messages_are_informative() {
        let mut m = PowerStateMachine::new(t(0));
        let err = m.begin_resume(t(0), SimDuration::ZERO).unwrap_err();
        assert_eq!(err.from, PowerState::Active);
        let msg = format!("{err}");
        assert!(msg.contains("resume"), "{msg}");
        assert!(msg.contains("S0-active"), "{msg}");
    }

    #[test]
    fn state_predicates() {
        assert!(PowerState::Active.is_operational());
        assert!(!PowerState::Suspended.is_operational());
        assert!(PowerState::Suspended.is_low_power());
        assert!(PowerState::Off.is_low_power());
        assert!(PowerState::Suspending.is_transitioning());
        assert!(PowerState::Resuming.is_transitioning());
        assert!(!PowerState::Active.is_transitioning());
    }

    #[test]
    fn display_strings() {
        assert_eq!(PowerState::Suspended.to_string(), "S3-suspended");
        assert_eq!(PowerState::Suspending.to_string(), "S0→S3");
    }
}
