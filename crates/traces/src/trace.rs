//! Hourly activity traces.
//!
//! A [`VmTrace`] is a sequence of activity levels, one per hour, each in
//! `[0, 1]`. Level 0 means the VM received no (non-noise) scheduler quanta
//! during that hour; level 1 means it was runnable the entire hour.

use dds_sim_core::SimTime;
use std::fmt;

/// An hourly activity trace for one VM.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VmTrace {
    /// Human-readable label (used by the experiment reports).
    pub label: String,
    levels: Vec<f64>,
}

impl VmTrace {
    /// Builds a trace from raw hourly levels; values are clamped to [0, 1].
    pub fn new(label: impl Into<String>, levels: Vec<f64>) -> Self {
        let levels = levels.into_iter().map(|x| x.clamp(0.0, 1.0)).collect();
        VmTrace {
            label: label.into(),
            levels,
        }
    }

    /// An all-idle trace of the given length.
    pub fn idle(label: impl Into<String>, hours: usize) -> Self {
        VmTrace {
            label: label.into(),
            levels: vec![0.0; hours],
        }
    }

    /// Number of hours covered.
    pub fn hours(&self) -> usize {
        self.levels.len()
    }

    /// True when the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Activity level for the given global hour index. Indexes past the end
    /// wrap around, so a one-week trace can drive an arbitrarily long
    /// simulation (the paper extends its 7-day production traces to three
    /// years the same way).
    pub fn level_at_hour(&self, hour_index: u64) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.levels[(hour_index % self.levels.len() as u64) as usize]
    }

    /// Activity level at a simulated instant.
    pub fn level_at(&self, t: SimTime) -> f64 {
        self.level_at_hour(t.hour_index())
    }

    /// True when the VM is idle (level 0) for the given hour.
    pub fn is_idle_hour(&self, hour_index: u64) -> bool {
        self.level_at_hour(hour_index) == 0.0
    }

    /// The raw level slice.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Fraction of hours with nonzero activity (the duty cycle). LLMI VMs
    /// sit well below 0.5; LLMU VMs close to 1.
    pub fn duty_cycle(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.levels.iter().filter(|&&x| x > 0.0).count() as f64 / self.levels.len() as f64
    }

    /// Mean activity level over the whole trace.
    pub fn mean_level(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.levels.iter().sum::<f64>() / self.levels.len() as f64
    }

    /// Mean activity level over *active* hours only (the paper's ā).
    pub fn mean_active_level(&self) -> f64 {
        let active: Vec<f64> = self.levels.iter().copied().filter(|&x| x > 0.0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().sum::<f64>() / active.len() as f64
    }

    /// Appends another trace's hours to this one.
    pub fn extend_with(&mut self, other: &VmTrace) {
        self.levels.extend_from_slice(&other.levels);
    }

    /// Repeats this trace until it covers at least `hours` hours, then
    /// truncates to exactly `hours`. Returns a new trace.
    pub fn tiled_to(&self, hours: usize) -> VmTrace {
        assert!(!self.levels.is_empty(), "cannot tile an empty trace");
        let mut levels = Vec::with_capacity(hours);
        while levels.len() < hours {
            let take = (hours - levels.len()).min(self.levels.len());
            levels.extend_from_slice(&self.levels[..take]);
        }
        VmTrace {
            label: self.label.clone(),
            levels,
        }
    }

    /// Applies a floor: any level below `threshold` becomes exactly zero.
    /// This models the paper's quantum-noise filtering at the trace level.
    pub fn denoised(&self, threshold: f64) -> VmTrace {
        VmTrace {
            label: self.label.clone(),
            levels: self
                .levels
                .iter()
                .map(|&x| if x < threshold { 0.0 } else { x })
                .collect(),
        }
    }

    /// Serializes to a two-column CSV (`hour,level`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("hour,level\n");
        for (h, l) in self.levels.iter().enumerate() {
            out.push_str(&format!("{h},{l}\n"));
        }
        out
    }

    /// Parses the CSV format produced by [`VmTrace::to_csv`].
    pub fn from_csv(label: impl Into<String>, csv: &str) -> Result<VmTrace, TraceParseError> {
        let mut levels = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (lineno == 0 && line.starts_with("hour")) {
                continue;
            }
            let mut parts = line.split(',');
            let hour: usize = parts
                .next()
                .ok_or(TraceParseError { line: lineno })?
                .trim()
                .parse()
                .map_err(|_| TraceParseError { line: lineno })?;
            let level: f64 = parts
                .next()
                .ok_or(TraceParseError { line: lineno })?
                .trim()
                .parse()
                .map_err(|_| TraceParseError { line: lineno })?;
            if hour != levels.len() {
                return Err(TraceParseError { line: lineno });
            }
            levels.push(level.clamp(0.0, 1.0));
        }
        Ok(VmTrace::new(label, levels))
    }
}

/// Error parsing a trace CSV: carries the offending (zero-based) line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceParseError {
    /// Zero-based line number of the malformed row.
    pub line: usize,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace CSV at line {}", self.line)
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn levels_are_clamped() {
        let t = VmTrace::new("x", vec![-0.5, 0.5, 1.5]);
        assert_eq!(t.levels(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn wraps_past_end() {
        let t = VmTrace::new("x", vec![0.1, 0.2, 0.3]);
        assert_eq!(t.level_at_hour(0), 0.1);
        assert_eq!(t.level_at_hour(3), 0.1);
        assert_eq!(t.level_at_hour(7), 0.2);
        assert_eq!(t.level_at(SimTime::from_hours(5)), 0.3);
    }

    #[test]
    fn empty_trace_is_idle() {
        let t = VmTrace::default();
        assert_eq!(t.level_at_hour(99), 0.0);
        assert_eq!(t.duty_cycle(), 0.0);
        assert_eq!(t.mean_level(), 0.0);
        assert_eq!(t.mean_active_level(), 0.0);
    }

    #[test]
    fn duty_cycle_and_means() {
        let t = VmTrace::new("x", vec![0.0, 0.5, 0.0, 1.0]);
        assert!((t.duty_cycle() - 0.5).abs() < 1e-12);
        assert!((t.mean_level() - 0.375).abs() < 1e-12);
        assert!((t.mean_active_level() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn idle_hour_predicate() {
        let t = VmTrace::new("x", vec![0.0, 0.7]);
        assert!(t.is_idle_hour(0));
        assert!(!t.is_idle_hour(1));
        assert!(t.is_idle_hour(2), "wraps");
    }

    #[test]
    fn tiling_covers_and_truncates() {
        let t = VmTrace::new("x", vec![0.1, 0.2]);
        let tiled = t.tiled_to(5);
        assert_eq!(tiled.levels(), &[0.1, 0.2, 0.1, 0.2, 0.1]);
        let shrunk = t.tiled_to(1);
        assert_eq!(shrunk.levels(), &[0.1]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn tiling_empty_panics() {
        VmTrace::default().tiled_to(5);
    }

    #[test]
    fn denoise_floors_small_levels() {
        let t = VmTrace::new("x", vec![0.005, 0.02, 0.0]);
        let d = t.denoised(0.01);
        assert_eq!(d.levels(), &[0.0, 0.02, 0.0]);
    }

    #[test]
    fn csv_roundtrip() {
        let t = VmTrace::new("rt", vec![0.0, 0.25, 1.0]);
        let csv = t.to_csv();
        let back = VmTrace::from_csv("rt", &csv).unwrap();
        assert_eq!(back.levels(), t.levels());
    }

    #[test]
    fn csv_rejects_garbage_and_gaps() {
        assert!(VmTrace::from_csv("x", "hour,level\n0,abc\n").is_err());
        assert!(VmTrace::from_csv("x", "hour,level\n1,0.5\n").is_err());
        let err = VmTrace::from_csv("x", "hour,level\n0,0.5\nnope\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(format!("{err}").contains("line 2"));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = VmTrace::new("a", vec![0.1]);
        let b = VmTrace::new("b", vec![0.2, 0.3]);
        a.extend_with(&b);
        assert_eq!(a.levels(), &[0.1, 0.2, 0.3]);
    }

    proptest! {
        #[test]
        fn csv_roundtrip_any_levels(levels in proptest::collection::vec(0.0f64..=1.0, 0..200)) {
            let t = VmTrace::new("p", levels);
            let back = VmTrace::from_csv("p", &t.to_csv()).unwrap();
            prop_assert_eq!(back.levels().len(), t.levels().len());
            for (a, b) in back.levels().iter().zip(t.levels()) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }

        #[test]
        fn tiled_matches_wraparound(
            levels in proptest::collection::vec(0.0f64..=1.0, 1..50),
            hours in 1usize..300,
        ) {
            let t = VmTrace::new("p", levels);
            let tiled = t.tiled_to(hours);
            prop_assert_eq!(tiled.hours(), hours);
            for h in 0..hours {
                prop_assert_eq!(tiled.levels()[h], t.level_at_hour(h as u64));
            }
        }
    }
}
