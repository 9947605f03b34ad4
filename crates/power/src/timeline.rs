//! Per-host power-state timelines.
//!
//! A [`PowerTimeline`] is the complete state history of one host over a
//! run: contiguous `[start, end)` intervals tagged with the
//! [`PowerState`] the host was in. The [`EnergyMeter`](crate::EnergyMeter)
//! records one (opt-in) as a by-product of its normal `advance` calls, so
//! the timeline is exactly as precise as the energy accounting — suspend
//! instants, resume windows and mid-hour wakes land at their true
//! millisecond instants.
//!
//! The per-request oracle of the streaming QoS pipeline (`dds-core`'s
//! tests) serves each request no earlier than
//! [`PowerTimeline::operational_from`] its arrival, against the timelines
//! of a fully recorded run. The pipeline itself reads no timeline: it
//! starts each request no earlier than the end of its host's latest
//! resume.

use crate::state::PowerState;
use dds_sim_core::{SimDuration, SimTime};

/// One maximal span of constant power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerInterval {
    /// Inclusive start of the span.
    pub start: SimTime,
    /// Exclusive end of the span.
    pub end: SimTime,
    /// State the host held throughout `[start, end)`.
    pub state: PowerState,
}

impl PowerInterval {
    /// Length of the span.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The power-state history of one host: contiguous, time-ordered
/// intervals with adjacent same-state spans merged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PowerTimeline {
    intervals: Vec<PowerInterval>,
}

impl PowerTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        PowerTimeline {
            intervals: Vec::new(),
        }
    }

    /// Appends the span `[from, to)` in `state`. Zero-length spans are
    /// dropped; a span continuing the previous state extends it in place
    /// (so week-long runs stay at a handful of intervals per suspend
    /// cycle). Spans must be appended in time order.
    pub fn record(&mut self, state: PowerState, from: SimTime, to: SimTime) {
        if to <= from {
            return;
        }
        if let Some(last) = self.intervals.last_mut() {
            debug_assert!(
                from >= last.end,
                "timeline spans must be appended in time order"
            );
            if last.state == state && last.end == from {
                last.end = to;
                return;
            }
        }
        self.intervals.push(PowerInterval {
            start: from,
            end: to,
            state,
        });
    }

    /// The recorded intervals, in time order.
    pub fn intervals(&self) -> &[PowerInterval] {
        &self.intervals
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// First recorded instant.
    pub fn start(&self) -> Option<SimTime> {
        self.intervals.first().map(|i| i.start)
    }

    /// End of the last recorded interval.
    pub fn end(&self) -> Option<SimTime> {
        self.intervals.last().map(|i| i.end)
    }

    /// Index of the interval containing `t`, if any.
    fn index_at(&self, t: SimTime) -> Option<usize> {
        let i = self.intervals.partition_point(|iv| iv.end <= t);
        (i < self.intervals.len() && self.intervals[i].start <= t).then_some(i)
    }

    /// The state at instant `t` (`None` outside the recorded range).
    pub fn state_at(&self, t: SimTime) -> Option<PowerState> {
        self.index_at(t).map(|i| self.intervals[i].state)
    }

    /// Earliest instant `>= t` at which the host is operational
    /// ([`PowerState::is_operational`]): `t` itself when the host is
    /// active at `t`, otherwise the start of the next active interval.
    /// `None` when the host never runs again within the timeline. A
    /// binary search finds the interval at `t`; adjacent same-state
    /// spans merge, so the next operational one lies a few steps on.
    pub fn operational_from(&self, t: SimTime) -> Option<SimTime> {
        let from = self.index_at(t)?;
        if self.intervals[from].state.is_operational() {
            return Some(t);
        }
        self.intervals[from + 1..]
            .iter()
            .find(|iv| iv.state.is_operational())
            .map(|iv| iv.start)
    }

    /// Total time spent in states satisfying `pred` (diagnostics).
    pub fn time_in(&self, pred: impl Fn(PowerState) -> bool) -> SimDuration {
        self.intervals
            .iter()
            .filter(|iv| pred(iv.state))
            .fold(SimDuration::ZERO, |acc, iv| acc + iv.duration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim_core::SimRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> PowerTimeline {
        let mut tl = PowerTimeline::new();
        tl.record(PowerState::Active, t(0), t(100));
        tl.record(PowerState::Suspending, t(100), t(103));
        tl.record(PowerState::Suspended, t(103), t(200));
        tl.record(PowerState::Resuming, t(200), t(201));
        tl.record(PowerState::Active, t(201), t(300));
        tl
    }

    /// The reference implementation: a linear scan from the first
    /// interval, no binary search.
    fn operational_from_linear(tl: &PowerTimeline, t: SimTime) -> Option<SimTime> {
        let mut rest = tl.intervals().iter().skip_while(|iv| iv.end <= t);
        let at = rest.next().filter(|iv| iv.start <= t)?;
        if at.state.is_operational() {
            return Some(t);
        }
        rest.find(|iv| iv.state.is_operational()).map(|iv| iv.start)
    }

    #[test]
    fn adjacent_same_state_spans_merge() {
        let mut tl = PowerTimeline::new();
        tl.record(PowerState::Active, t(0), t(10));
        tl.record(PowerState::Active, t(10), t(20));
        tl.record(PowerState::Active, t(20), t(20)); // zero-length: dropped
        tl.record(PowerState::Suspended, t(20), t(30));
        assert_eq!(tl.intervals().len(), 2);
        assert_eq!(tl.intervals()[0].end, t(20));
        assert_eq!(tl.intervals()[0].duration(), SimDuration::from_secs(20));
        assert_eq!(tl.end(), Some(t(30)));
        assert_eq!(tl.start(), Some(t(0)));
    }

    #[test]
    fn state_queries_hit_the_right_interval() {
        let tl = sample();
        assert_eq!(tl.state_at(t(0)), Some(PowerState::Active));
        assert_eq!(tl.state_at(t(99)), Some(PowerState::Active));
        assert_eq!(tl.state_at(t(100)), Some(PowerState::Suspending));
        assert_eq!(tl.state_at(t(150)), Some(PowerState::Suspended));
        assert_eq!(tl.state_at(t(200)), Some(PowerState::Resuming));
        assert_eq!(tl.state_at(t(299)), Some(PowerState::Active));
        assert_eq!(tl.state_at(t(300)), None, "end is exclusive");
    }

    #[test]
    fn operational_from_waits_for_the_resume() {
        let tl = sample();
        // Already active: no wait.
        assert_eq!(tl.operational_from(t(50)), Some(t(50)));
        // Parked or resuming: wait until the resume completes.
        assert_eq!(tl.operational_from(t(101)), Some(t(201)));
        assert_eq!(tl.operational_from(t(150)), Some(t(201)));
        assert_eq!(tl.operational_from(t(200)), Some(t(201)));
        // Beyond the record: unknown.
        assert_eq!(tl.operational_from(t(300)), None);
    }

    #[test]
    fn parked_host_never_waking_reports_none() {
        let mut tl = PowerTimeline::new();
        tl.record(PowerState::Active, t(0), t(10));
        tl.record(PowerState::Suspended, t(10), t(50));
        assert_eq!(tl.operational_from(t(20)), None);
        assert_eq!(tl.time_in(|s| s.is_low_power()), SimDuration::from_secs(40));
    }

    /// Generates a random (but valid: contiguous, time-ordered,
    /// adjacent-merged) timeline of `n` recording calls.
    fn random_timeline(seed: u64, n: usize) -> PowerTimeline {
        let states = [
            PowerState::Active,
            PowerState::Suspending,
            PowerState::Suspended,
            PowerState::Resuming,
            PowerState::Off,
        ];
        let mut rng = SimRng::new(seed);
        let mut tl = PowerTimeline::new();
        let mut now = 0u64;
        for _ in 0..n {
            let state = states[(rng.unit() * states.len() as f64) as usize % states.len()];
            let len = 1 + (rng.unit() * 50.0) as u64;
            tl.record(state, t(now), t(now + len));
            now += len;
        }
        tl
    }

    #[test]
    fn binary_search_matches_the_linear_scan_on_merged_timelines() {
        for seed in 0..20 {
            let tl = random_timeline(seed, 40);
            let horizon = tl.end().unwrap().as_secs() + 5;
            for s in 0..horizon {
                let q = t(s);
                assert_eq!(
                    tl.operational_from(q),
                    operational_from_linear(&tl, q),
                    "seed {seed}, t = {s}s"
                );
            }
        }
    }

    #[test]
    fn binary_search_matches_the_linear_scan_on_degenerate_timelines() {
        // Empty timeline.
        let empty = PowerTimeline::new();
        assert_eq!(empty.operational_from(t(0)), None);
        // Single operational interval; single non-operational interval;
        // aborted suspend (operational without a Resuming span); a
        // timeline that is all one merged low-power block.
        let cases: Vec<Vec<(PowerState, u64, u64)>> = vec![
            vec![(PowerState::Active, 0, 10)],
            vec![(PowerState::Suspended, 0, 10)],
            vec![
                (PowerState::Active, 0, 5),
                (PowerState::Suspending, 5, 8),
                (PowerState::Active, 8, 20), // aborted: no Resuming span
            ],
            vec![
                (PowerState::Suspended, 0, 5),
                (PowerState::Suspended, 5, 9), // merges into one block
                (PowerState::Resuming, 9, 10),
                (PowerState::Active, 10, 12),
            ],
            vec![
                (PowerState::Resuming, 0, 2), // starts mid-resume
                (PowerState::Active, 2, 4),
                (PowerState::Off, 4, 30),
            ],
        ];
        for (k, case) in cases.iter().enumerate() {
            let mut tl = PowerTimeline::new();
            for &(state, a, b) in case {
                tl.record(state, t(a), t(b));
            }
            let horizon = tl.end().unwrap().as_secs() + 3;
            for s in 0..horizon {
                let q = t(s);
                assert_eq!(
                    tl.operational_from(q),
                    operational_from_linear(&tl, q),
                    "case {k}, t = {s}s"
                );
            }
        }
    }
}
