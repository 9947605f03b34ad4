//! A uniform handle on every trace source the evaluation knows.
//!
//! The scenario layer composes VM populations out of two kinds of
//! generators: the parameterized [`TracePattern`]s and the five synthetic
//! Nutanix production personalities. [`VmWorkload`] wraps both behind one
//! `generate` call, so a workload group is a value that can be named in a
//! scenario file, stored in a `ClusterSpec` member list (`dds-core`) and
//! replayed deterministically from a seed.

use crate::nutanix::nutanix_trace;
use crate::patterns::TracePattern;
use crate::trace::VmTrace;
use dds_sim_core::SimRng;

/// One source of hourly VM activity: a workload pattern or a synthetic
/// production-trace personality.
#[derive(Debug, Clone, PartialEq)]
pub enum VmWorkload {
    /// A parameterized [`TracePattern`] generator.
    Pattern(TracePattern),
    /// One of the five synthetic Nutanix production personalities
    /// (1-based, matching the paper's "real trace 1..5").
    Nutanix {
        /// Personality index in `1..=5`.
        personality: usize,
    },
}

impl VmWorkload {
    /// Generates `hours` hours of activity. All randomness is drawn from
    /// `rng`, so equal `(workload, rng seed)` pairs replay bit-identically.
    pub fn generate(&self, hours: usize, rng: &mut SimRng) -> VmTrace {
        match self {
            VmWorkload::Pattern(pattern) => pattern.generate(hours, rng),
            VmWorkload::Nutanix { personality } => nutanix_trace(*personality, hours, &*rng),
        }
    }

    /// A short human-readable label ("diurnal-office", "nutanix-3", …).
    pub fn label(&self) -> String {
        match self {
            VmWorkload::Pattern(pattern) => pattern.label(),
            VmWorkload::Nutanix { personality } => format!("nutanix-{personality}"),
        }
    }
}

impl From<TracePattern> for VmWorkload {
    fn from(pattern: TracePattern) -> Self {
        VmWorkload::Pattern(pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_and_nutanix_generate_through_one_call() {
        let mut rng = SimRng::new(5);
        let t = VmWorkload::Pattern(TracePattern::paper_daily_backup()).generate(48, &mut rng);
        assert_eq!(t.hours(), 48);
        assert!(t.duty_cycle() > 0.0);
        let n = VmWorkload::Nutanix { personality: 3 }.generate(7 * 24, &mut rng);
        assert_eq!(n.hours(), 7 * 24);
        assert!(n.duty_cycle() > 0.0 && n.duty_cycle() < 0.5, "LLMI band");
    }

    #[test]
    fn labels_and_validity() {
        assert_eq!(
            VmWorkload::from(TracePattern::catalog_flash_crowd()).label(),
            "flash-crowd"
        );
        assert_eq!(VmWorkload::Nutanix { personality: 2 }.label(), "nutanix-2");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in [
            VmWorkload::Pattern(TracePattern::catalog_diurnal_office()),
            VmWorkload::Nutanix { personality: 1 },
        ] {
            let a = w.generate(500, &mut SimRng::new(9));
            let b = w.generate(500, &mut SimRng::new(9));
            assert_eq!(a.levels(), b.levels(), "{}", w.label());
        }
    }
}
