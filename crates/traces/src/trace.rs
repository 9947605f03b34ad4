//! Hourly activity traces.
//!
//! A [`VmTrace`] is a sequence of activity levels, one per hour, each in
//! `[0, 1]`. Level 0 means the VM received no (non-noise) scheduler quanta
//! during that hour; level 1 means it was runnable the entire hour.

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
