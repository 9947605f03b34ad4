//! VM workload taxonomy — the paper's §I/§III-A classification.
//!
//! "From the point of view of their activity patterns, VMs may be
//! classified in three categories: short-lived mostly-used VMs (noted
//! SLMU, e.g. MapReduce tasks), long-lived mostly-used VMs (noted LLMU,
//! e.g. popular Web services), and long-lived mostly-idle VMs (noted
//! LLMI, e.g. seasonal Web services)."
//!
//! Drowsy-DC only profits from LLMI VMs; the classifier below lets a
//! deployment estimate, from monitoring data alone, how much of its fleet
//! Drowsy-DC can work with (the sweep variable of §VI.B), and which
//! periodicity scales dominate each VM (the weight priors of the IM).

use crate::trace::VmTrace;

/// The three activity classes of the paper (plus an undetermined bucket
/// for traces too short to judge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmClass {
    /// Short-lived, mostly used: batch jobs that run hard and exit.
    Slmu,
    /// Long-lived, mostly used: always-on services.
    Llmu,
    /// Long-lived, mostly idle: Drowsy-DC's target population.
    Llmi,
    /// Not enough signal (trace shorter than the observation window).
    Undetermined,
}

/// Periodicity scales detected in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Periodicity {
    /// Autocorrelation at lag 24 h.
    pub daily: f64,
    /// Autocorrelation at lag 7 × 24 h.
    pub weekly: f64,
    /// Whether either scale shows a strong (> 0.5) period.
    pub is_periodic: bool,
}

/// Minimum observed hours before judging (3 days).
const MIN_HOURS: usize = 72;
/// Duty cycle at or above which a VM counts as "mostly used".
const MOSTLY_USED_DUTY: f64 = 0.5;
/// A VM whose activity all falls within this leading fraction of the
/// observation window, followed by silence, is short-lived.
const SHORT_LIVED_FRACTION: f64 = 0.5;

/// Classifies a trace into the paper's taxonomy.
pub fn classify(trace: &VmTrace) -> VmClass {
    let n = trace.hours();
    if n < MIN_HOURS {
        return VmClass::Undetermined;
    }
    let levels = trace.levels();
    // Last hour with any activity.
    let last_active = levels.iter().rposition(|&x| x > 0.0);
    let Some(last_active) = last_active else {
        // Never active at all: an idle long-lived VM.
        return VmClass::Llmi;
    };
    // Short-lived: all activity confined to the leading fraction of the
    // window, with a dense duty cycle inside its lifetime.
    let lifetime = last_active + 1;
    if (lifetime as f64) < n as f64 * SHORT_LIVED_FRACTION {
        let lifetime_duty =
            levels[..lifetime].iter().filter(|&&x| x > 0.0).count() as f64 / lifetime as f64;
        if lifetime_duty >= MOSTLY_USED_DUTY {
            return VmClass::Slmu;
        }
    }
    if trace.duty_cycle() >= MOSTLY_USED_DUTY {
        VmClass::Llmu
    } else {
        VmClass::Llmi
    }
}

/// Measures the dominant periodicity scales of a trace.
pub fn periodicity(trace: &VmTrace) -> Periodicity {
    let daily = autocorrelation(trace, 24);
    let weekly = autocorrelation(trace, 7 * 24);
    Periodicity {
        daily,
        weekly,
        is_periodic: daily > 0.5 || weekly > 0.5,
    }
}

/// Lag-`k` autocorrelation of the activity series (k in hours).
///
/// Strong daily workloads show a peak at k = 24, weekly ones at
/// k = 168 — the signal behind the paper's "periodic idleness at four
/// different scales" observation.
fn autocorrelation(trace: &VmTrace, lag: usize) -> f64 {
    let xs = trace.levels();
    let n = xs.len();
    if n <= lag + 1 {
        return 0.0;
    }
    let mean = trace.mean_level();
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        den += (x - mean) * (x - mean);
        if i + lag < n {
            num += (x - mean) * (xs[i + lag] - mean);
        }
    }
    if den <= 0.0 {
        0.0
    } else {
        // Length-normalized estimator: the plain biased form caps at
        // (n-lag)/n even for perfectly periodic series, which
        // penalizes long lags (weekly = 168 h) on short traces. The
        // normalization can slightly overshoot on short series, so
        // clamp into the correlation range.
        ((num / (n - lag) as f64) / (den / n as f64)).clamp(-1.0, 1.0)
    }
}

/// Fraction of a fleet's traces classified LLMI — the §VI.B sweep
/// variable, measured instead of assumed.
pub fn llmi_fraction(traces: &[VmTrace]) -> f64 {
    if traces.is_empty() {
        return 0.0;
    }
    let llmi = traces
        .iter()
        .filter(|t| classify(t) == VmClass::Llmi)
        .count();
    llmi as f64 / traces.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nutanix::nutanix_all;
    use crate::patterns::TracePattern;
    use dds_sim_core::SimRng;
    use proptest::prelude::*;

    const MONTH: usize = 30 * 24;

    fn rng() -> SimRng {
        SimRng::new(77)
    }

    #[test]
    fn llmu_is_detected() {
        let t = TracePattern::paper_llmu().generate(MONTH, &mut rng());
        assert_eq!(classify(&t), VmClass::Llmu);
    }

    #[test]
    fn llmi_patterns_are_detected() {
        for t in [
            TracePattern::paper_daily_backup().generate(MONTH, &mut rng()),
            TracePattern::paper_comic_strips().generate(MONTH, &mut rng()),
            TracePattern::BusinessHours {
                start_hour: 9,
                end_hour: 17,
                intensity: 0.5,
                jitter: 0.1,
            }
            .generate(MONTH, &mut rng()),
        ] {
            assert_eq!(classify(&t), VmClass::Llmi, "{}", t.label);
        }
    }

    #[test]
    fn slmu_is_detected() {
        let t = TracePattern::Slmu {
            lifetime_hours: 48,
            intensity: 0.9,
        }
        .generate(MONTH, &mut rng());
        assert_eq!(classify(&t), VmClass::Slmu);
    }

    #[test]
    fn sparse_short_activity_is_not_slmu() {
        // Active only during the first week but with a *thin* duty: this
        // is an LLMI VM whose busy season ended, not a batch job.
        let mut levels = vec![0.0; MONTH];
        for d in 0..7 {
            levels[d * 24 + 9] = 0.3;
        }
        let t = VmTrace::new("seasonal", levels);
        assert_eq!(classify(&t), VmClass::Llmi);
    }

    #[test]
    fn short_traces_are_undetermined() {
        let t = TracePattern::paper_llmu().generate(24, &mut rng());
        assert_eq!(classify(&t), VmClass::Undetermined);
    }

    #[test]
    fn never_active_is_llmi() {
        let t = VmTrace::idle("idle", MONTH);
        assert_eq!(classify(&t), VmClass::Llmi);
    }

    #[test]
    fn production_traces_are_llmi_and_periodic() {
        let traces = nutanix_all(MONTH * 3, &rng());
        for t in &traces {
            assert_eq!(classify(t), VmClass::Llmi, "{}", t.label);
            let p = periodicity(t);
            assert!(
                p.is_periodic,
                "{} daily {} weekly {}",
                t.label, p.daily, p.weekly
            );
        }
        assert_eq!(llmi_fraction(&traces), 1.0);
    }

    #[test]
    fn llmi_fraction_counts_mixture() {
        let mut traces = nutanix_all(MONTH, &rng());
        traces.push(TracePattern::paper_llmu().generate(MONTH, &mut rng()));
        traces.push(TracePattern::paper_llmu().generate(MONTH, &mut rng()));
        // 5 LLMI of 7 total.
        assert!((llmi_fraction(&traces) - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(llmi_fraction(&[]), 0.0);
    }

    #[test]
    fn periodicity_scales_match_pattern_structure() {
        let daily = TracePattern::paper_daily_backup().generate(MONTH * 2, &mut rng());
        let p = periodicity(&daily);
        assert!(p.daily > 0.9);
        let weekly = TracePattern::BusinessHours {
            start_hour: 8,
            end_hour: 18,
            intensity: 0.4,
            jitter: 0.0,
        }
        .generate(MONTH * 2, &mut rng());
        let p = periodicity(&weekly);
        assert!(p.weekly > 0.9);
    }

    #[test]
    fn daily_trace_has_daily_autocorrelation_peak() {
        let mut rng = SimRng::new(5);
        let t = TracePattern::paper_daily_backup().generate(24 * 60, &mut rng);
        let daily = autocorrelation(&t, 24);
        let offbeat = autocorrelation(&t, 17);
        assert!(daily > 0.9, "daily peak {daily}");
        assert!(offbeat < 0.2, "off-period {offbeat}");
    }

    #[test]
    fn weekly_trace_peaks_at_168() {
        let mut rng = SimRng::new(5);
        let t = TracePattern::BusinessHours {
            start_hour: 9,
            end_hour: 17,
            intensity: 0.5,
            jitter: 0.0,
        }
        .generate(24 * 120, &mut rng);
        assert!(autocorrelation(&t, 168) > 0.9);
        // Daily correlation exists too (weekdays) but weekly is stronger.
        assert!(autocorrelation(&t, 168) >= autocorrelation(&t, 24));
    }

    #[test]
    fn autocorrelation_degenerate_cases() {
        assert_eq!(autocorrelation(&VmTrace::new("c", vec![0.5; 10]), 2), 0.0);
        assert_eq!(autocorrelation(&VmTrace::new("s", vec![0.5]), 2), 0.0);
    }

    proptest! {
        #[test]
        fn autocorrelation_bounded(levels in proptest::collection::vec(0.0f64..=1.0, 4..120),
                                   lag in 1usize..40) {
            let t = VmTrace::new("p", levels);
            let r = autocorrelation(&t, lag);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}
