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
//! The streaming request-level QoS pipeline (`dds-core`) serves per-VM
//! request streams against these timelines. Its two lookups are pure
//! binary searches: [`PowerTimeline::operational_from`] and
//! [`PowerTimeline::resume_window_after`] answer in O(log intervals) via
//! auxiliary sorted indices of operational and resuming intervals,
//! maintained incrementally by [`PowerTimeline::record`]. The pipeline
//! walks each hour's time-ordered arrivals with a [`TimelineCursor`] on
//! top, which amortizes consecutive lookups to O(1), and calls
//! [`PowerTimeline::trim_before`] once its window moves past recorded
//! history, keeping per-host memory constant.

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
    /// Indices (into `intervals`) of operational intervals, ascending.
    op_index: Vec<u32>,
    /// Indices of `Resuming` intervals, ascending.
    resume_index: Vec<u32>,
}

impl PowerTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        PowerTimeline {
            intervals: Vec::new(),
            op_index: Vec::new(),
            resume_index: Vec::new(),
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
        let idx = self.intervals.len() as u32;
        if state.is_operational() {
            self.op_index.push(idx);
        } else if state == PowerState::Resuming {
            self.resume_index.push(idx);
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

    /// First operational interval index at or after interval `from`
    /// (binary search over the operational index).
    fn next_operational_index(&self, from: usize) -> Option<usize> {
        let i = self.op_index.partition_point(|&op| (op as usize) < from);
        self.op_index.get(i).map(|&op| op as usize)
    }

    /// First `Resuming` interval index at or after interval `from`.
    fn next_resuming_index(&self, from: usize) -> Option<usize> {
        let i = self.resume_index.partition_point(|&r| (r as usize) < from);
        self.resume_index.get(i).map(|&r| r as usize)
    }

    /// Earliest instant `>= t` at which the host is operational
    /// ([`PowerState::is_operational`]): `t` itself when the host is
    /// active at `t`, otherwise the start of the next active interval.
    /// `None` when the host never runs again within the timeline.
    /// O(log intervals): two binary searches, no interval scan.
    pub fn operational_from(&self, t: SimTime) -> Option<SimTime> {
        let from = self.index_at(t)?;
        self.operational_from_index(from, t)
    }

    fn operational_from_index(&self, from: usize, t: SimTime) -> Option<SimTime> {
        if self.intervals[from].state.is_operational() {
            return Some(t);
        }
        self.next_operational_index(from + 1)
            .map(|op| self.intervals[op].start)
    }

    /// The resume window (`Resuming` span) that ends at the operational
    /// instant following `t`, if the host was parked or resuming at `t`:
    /// `(resume_start, operational)`. The QoS pipeline charges the
    /// wake-triggering request exactly this window — the paper's ≈1500 ms
    /// stock / ≈800 ms quick-resume latency. O(log intervals).
    pub fn resume_window_after(&self, t: SimTime) -> Option<(SimTime, SimTime)> {
        let from = self.index_at(t)?;
        self.resume_window_from_index(from)
    }

    fn resume_window_from_index(&self, from: usize) -> Option<(SimTime, SimTime)> {
        if self.intervals[from].state.is_operational() {
            return None;
        }
        let op = self.next_operational_index(from);
        match (self.next_resuming_index(from), op) {
            // A resume span comes first: the full (start, end) window.
            (Some(r), Some(o)) if r < o => {
                let iv = &self.intervals[r];
                Some((iv.start, iv.end))
            }
            (Some(r), None) => {
                let iv = &self.intervals[r];
                Some((iv.start, iv.end))
            }
            // Operational without an explicit resume span (e.g. the host
            // was suspending and the span was aborted).
            (_, Some(o)) => {
                let start = self.intervals[o].start;
                Some((start, start))
            }
            (None, None) => None,
        }
    }

    /// Drops every interval ending at or before `t` (intervals spanning
    /// `t` are kept whole). The streaming QoS pipeline calls this once
    /// its processing window has moved past recorded history, so a
    /// constant-memory run never accumulates more than a few intervals
    /// per host. Cursors over this timeline must be re-created afterwards.
    pub fn trim_before(&mut self, t: SimTime) {
        let cut = self.intervals.partition_point(|iv| iv.end <= t);
        if cut == 0 {
            return;
        }
        self.intervals.drain(..cut);
        // Rebuild the auxiliary indices over the (short) remainder.
        self.op_index.clear();
        self.resume_index.clear();
        for (i, iv) in self.intervals.iter().enumerate() {
            if iv.state.is_operational() {
                self.op_index.push(i as u32);
            } else if iv.state == PowerState::Resuming {
                self.resume_index.push(i as u32);
            }
        }
    }

    /// Total time spent in states satisfying `pred` (diagnostics).
    pub fn time_in(&self, pred: impl Fn(PowerState) -> bool) -> SimDuration {
        self.intervals
            .iter()
            .filter(|iv| pred(iv.state))
            .fold(SimDuration::ZERO, |acc, iv| acc + iv.duration())
    }
}

/// A monotone lookup cursor over one [`PowerTimeline`].
///
/// Batch consumers (the streaming QoS pipeline) query timelines with
/// non-decreasing instants; the cursor
/// remembers the last interval hit and walks forward from there, so a
/// whole request stream costs O(intervals + requests) instead of
/// O(requests · log intervals). Queries that jump backwards fall back to
/// the timeline's binary search, so the cursor is always correct — the
/// fast path is an accelerator, never a semantic change (the regression
/// tests pin cursor answers against the plain methods).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimelineCursor {
    idx: usize,
}

impl TimelineCursor {
    /// A cursor positioned at the start of the timeline.
    pub fn new() -> Self {
        TimelineCursor { idx: 0 }
    }

    /// Index of the interval containing `t`, advancing the cursor.
    fn seek(&mut self, tl: &PowerTimeline, t: SimTime) -> Option<usize> {
        let intervals = tl.intervals();
        if self.idx >= intervals.len() || t < intervals[self.idx].start {
            // Behind the cursor (or cursor off the end): binary search.
            self.idx = intervals.partition_point(|iv| iv.end <= t);
        } else {
            // Walk forward; amortized O(1) over a monotone query stream.
            while self.idx < intervals.len() && intervals[self.idx].end <= t {
                self.idx += 1;
            }
        }
        (self.idx < intervals.len() && intervals[self.idx].start <= t).then_some(self.idx)
    }

    /// [`PowerTimeline::state_at`] through the cursor.
    pub fn state_at(&mut self, tl: &PowerTimeline, t: SimTime) -> Option<PowerState> {
        self.seek(tl, t).map(|i| tl.intervals()[i].state)
    }

    /// [`PowerTimeline::operational_from`] through the cursor.
    pub fn operational_from(&mut self, tl: &PowerTimeline, t: SimTime) -> Option<SimTime> {
        let from = self.seek(tl, t)?;
        tl.operational_from_index(from, t)
    }

    /// [`PowerTimeline::resume_window_after`] through the cursor.
    pub fn resume_window_after(
        &mut self,
        tl: &PowerTimeline,
        t: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let from = self.seek(tl, t)?;
        tl.resume_window_from_index(from)
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

    /// The pre-index reference implementations: linear forward scans.
    fn operational_from_linear(tl: &PowerTimeline, t: SimTime) -> Option<SimTime> {
        let intervals = tl.intervals();
        let from = intervals.partition_point(|iv| iv.end <= t);
        if from >= intervals.len() || intervals[from].start > t {
            return None;
        }
        if intervals[from].state.is_operational() {
            return Some(t);
        }
        intervals[from + 1..]
            .iter()
            .find(|iv| iv.state.is_operational())
            .map(|iv| iv.start)
    }

    fn resume_window_linear(tl: &PowerTimeline, t: SimTime) -> Option<(SimTime, SimTime)> {
        let intervals = tl.intervals();
        let from = intervals.partition_point(|iv| iv.end <= t);
        if from >= intervals.len() || intervals[from].start > t {
            return None;
        }
        if intervals[from].state.is_operational() {
            return None;
        }
        for iv in &intervals[from..] {
            if iv.state == PowerState::Resuming {
                return Some((iv.start, iv.end));
            }
            if iv.state.is_operational() {
                return Some((iv.start, iv.start));
            }
        }
        None
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
    fn resume_window_is_exposed() {
        let tl = sample();
        assert_eq!(tl.resume_window_after(t(150)), Some((t(200), t(201))));
        assert_eq!(tl.resume_window_after(t(200)), Some((t(200), t(201))));
        assert_eq!(tl.resume_window_after(t(50)), None, "active: no window");
    }

    #[test]
    fn parked_host_never_waking_reports_none() {
        let mut tl = PowerTimeline::new();
        tl.record(PowerState::Active, t(0), t(10));
        tl.record(PowerState::Suspended, t(10), t(50));
        assert_eq!(tl.operational_from(t(20)), None);
        assert_eq!(tl.resume_window_after(t(20)), None);
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
                assert_eq!(
                    tl.resume_window_after(q),
                    resume_window_linear(&tl, q),
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
        assert_eq!(empty.resume_window_after(t(0)), None);
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
                assert_eq!(
                    tl.resume_window_after(q),
                    resume_window_linear(&tl, q),
                    "case {k}, t = {s}s"
                );
            }
        }
    }

    #[test]
    fn cursor_matches_plain_lookups_on_monotone_and_backward_streams() {
        for seed in 0..10 {
            let tl = random_timeline(seed + 100, 30);
            let horizon = tl.end().unwrap().as_secs() + 4;
            // Monotone stream (the replay's access pattern).
            let mut cur = TimelineCursor::new();
            for s in 0..horizon {
                let q = t(s);
                assert_eq!(cur.state_at(&tl, q), tl.state_at(q), "seed {seed}");
                assert_eq!(cur.operational_from(&tl, q), tl.operational_from(q));
                assert_eq!(cur.resume_window_after(&tl, q), tl.resume_window_after(q));
            }
            // Backward jumps fall back to binary search, still correct.
            let mut cur = TimelineCursor::new();
            let mut rng = SimRng::new(seed);
            for _ in 0..200 {
                let s = (rng.unit() * horizon as f64) as u64;
                let q = t(s);
                assert_eq!(cur.operational_from(&tl, q), tl.operational_from(q));
                assert_eq!(cur.resume_window_after(&tl, q), tl.resume_window_after(q));
            }
        }
    }

    #[test]
    fn trim_keeps_spanning_intervals_and_later_queries_exact() {
        let mut tl = sample();
        // Trim inside the long suspended block: the block survives whole.
        tl.trim_before(t(150));
        assert_eq!(tl.start(), Some(t(103)), "spanning interval kept");
        assert_eq!(tl.operational_from(t(150)), Some(t(201)));
        assert_eq!(tl.resume_window_after(t(150)), Some((t(200), t(201))));
        assert_eq!(tl.state_at(t(250)), Some(PowerState::Active));
        // Queries before the trim point now fall outside the record.
        assert_eq!(tl.operational_from(t(50)), None);
        // Trimming everything empties the timeline.
        tl.trim_before(t(400));
        assert!(tl.is_empty());
        // Recording continues to work after a full trim.
        tl.record(PowerState::Active, t(400), t(410));
        assert_eq!(tl.operational_from(t(405)), Some(t(405)));
        // No-op trim.
        let mut tl = sample();
        tl.trim_before(t(0));
        assert_eq!(tl.intervals().len(), 5);
    }

    #[test]
    fn trim_then_linear_equivalence_holds() {
        for seed in 0..10 {
            let mut tl = random_timeline(seed + 40, 30);
            let horizon = tl.end().unwrap().as_secs();
            tl.trim_before(t(horizon / 2));
            for s in 0..horizon + 3 {
                let q = t(s);
                assert_eq!(tl.operational_from(q), operational_from_linear(&tl, q));
                assert_eq!(tl.resume_window_after(q), resume_window_linear(&tl, q));
            }
        }
    }
}
