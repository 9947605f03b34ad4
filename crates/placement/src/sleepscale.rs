//! A SleepScale-inspired joint speed-scaling + sleep-state policy.
//!
//! SleepScale (Liu et al., "SleepScale: runtime joint speed scaling and
//! sleep states management for power efficient data centers", ISCA 2014)
//! observes that picking the CPU frequency and the sleep state *jointly*
//! — rather than tuning either in isolation — recovers most of the power
//! headroom while holding the QoS target. This policy transplants that
//! idea onto the Drowsy-DC substrate:
//!
//! * **Speed scaling** — for every active host hour the policy picks a
//!   discrete frequency step (a P-state) just high enough to serve the
//!   predicted utilization at the configured target load. The controller
//!   charges dynamic power scaled by `f²` (the classic `C·V²·f` model
//!   with voltage tracking frequency). Request service is not stretched
//!   by `1/f`: the QoS stream serves at the nominal clock, so
//!   downclocking shows up in energy only (DESIGN §3 item 9).
//! * **Sleep-state selection** — when the suspending module clears a host
//!   for sleep, the policy chooses between S3 (fast resume, ~5 W) and S5
//!   (slow resume, ~1 W) from the information a real runtime would have:
//!   the earliest scheduled waking date and the host's idleness
//!   probability. Long predicted idle periods go to S5; uncertain or
//!   short ones stay in the paper's drowsy S3.
//! * **Consolidation** — packing itself is delegated to the Neat
//!   substrate (SleepScale is a per-server runtime, not a placement
//!   algorithm); idleness models stay enabled so the sleep-state choice
//!   sees calibrated idle probabilities.

use crate::neat::{NeatConfig, NeatPlanner};
use crate::policy::{ControlPlan, ControlPolicy, PlanningView, SleepDepth};
use dds_sim_core::{HostId, SimDuration, SimRng, SimTime};

/// Configuration of the SleepScale-style policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SleepScaleConfig {
    /// Packing substrate configuration.
    pub neat: NeatConfig,
    /// Lowest selectable frequency step (fraction of nominal).
    pub freq_floor: f64,
    /// Granularity of the discrete frequency ladder (e.g. 0.1 → steps at
    /// 0.6, 0.7, …, 1.0).
    pub freq_step: f64,
    /// Utilization the chosen frequency aims to run the host at; the
    /// QoS guard in SleepScale. Lower targets leave more latency slack.
    pub target_utilization: f64,
    /// Minimum gap to the scheduled waking date before S5 is considered
    /// (S5 resume is slow; short naps must stay in S3).
    pub deep_sleep_min_gap: SimDuration,
    /// Minimum host idleness probability before an *unscheduled* idle
    /// host (no timer at all) is sent to S5.
    pub deep_sleep_min_ip: f64,
    /// Ablation switch: disable speed scaling (always full clock).
    pub speed_scaling: bool,
    /// Ablation switch: disable S5 selection (always S3, as Drowsy-DC).
    pub deep_sleep: bool,
}

impl SleepScaleConfig {
    /// Defaults mirroring the SleepScale evaluation shape: five P-states
    /// between 60 % and 100 % of nominal, an 80 % load target, and S5
    /// only for idle periods predicted to exceed four hours.
    pub fn paper_default() -> Self {
        SleepScaleConfig {
            neat: NeatConfig::paper_default(),
            freq_floor: 0.6,
            freq_step: 0.1,
            target_utilization: 0.8,
            deep_sleep_min_gap: SimDuration::from_hours(4),
            deep_sleep_min_ip: 0.85,
            speed_scaling: true,
            deep_sleep: true,
        }
    }
}

impl Default for SleepScaleConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The SleepScale-style control policy. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SleepScalePolicy {
    config: SleepScaleConfig,
    planner: NeatPlanner,
}

impl SleepScalePolicy {
    /// Creates the policy.
    pub fn new(config: SleepScaleConfig) -> Self {
        let planner = NeatPlanner::new(config.neat.clone());
        SleepScalePolicy { config, planner }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SleepScaleConfig {
        &self.config
    }

    /// The frequency step chosen for a host at `utilization` (fraction of
    /// capacity at nominal clock): the lowest P-state that still serves
    /// the load at the target utilization, never below the floor, never
    /// below the load itself (work must fit in the hour).
    pub fn frequency_for(&self, utilization: f64) -> f64 {
        if !self.config.speed_scaling {
            return 1.0;
        }
        let u = utilization.clamp(0.0, 1.0);
        let step = self.config.freq_step.max(1e-3);
        let wanted = (u / self.config.target_utilization.max(1e-3)).max(u);
        // Round UP to the next step of the ladder: QoS-safe quantization.
        let quantized = (wanted / step).ceil() * step;
        quantized.clamp(self.config.freq_floor, 1.0)
    }
}

impl ControlPolicy for SleepScalePolicy {
    fn label(&self) -> &'static str {
        "SleepScale"
    }

    fn uses_idleness_scores(&self) -> bool {
        // The sleep-state choice consumes calibrated idle probabilities.
        true
    }

    fn plan(&mut self, _round: usize, view: &PlanningView<'_>, _rng: &mut SimRng) -> ControlPlan {
        ControlPlan::from_consolidation(self.planner.plan(view.state))
    }

    fn idle_sleep_depth(
        &self,
        _host: HostId,
        ip_probability: f64,
        waking_date: Option<SimTime>,
        now: SimTime,
    ) -> SleepDepth {
        if !self.config.deep_sleep {
            return SleepDepth::Suspend;
        }
        match waking_date {
            // A scheduled wake: S5 only when the nap is long enough to
            // amortize the slow resume (the wake is anticipated either
            // way, so no request pays the S5 latency).
            Some(date) => {
                if date.saturating_since(now) >= self.config.deep_sleep_min_gap {
                    SleepDepth::Off
                } else {
                    SleepDepth::Suspend
                }
            }
            // No timer: the next wake is an unscheduled packet that will
            // pay the full resume latency, so demand high confidence in a
            // long idle period before deepening the sleep.
            None => {
                if ip_probability >= self.config.deep_sleep_min_ip {
                    SleepDepth::Off
                } else {
                    SleepDepth::Suspend
                }
            }
        }
    }

    fn active_frequency(&self, _host: HostId, utilization: f64) -> f64 {
        self.frequency_for(utilization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SleepScalePolicy {
        SleepScalePolicy::new(SleepScaleConfig::paper_default())
    }

    #[test]
    fn frequency_ladder_is_monotone_quantized_and_bounded() {
        let p = policy();
        let mut last = 0.0;
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            let f = p.frequency_for(u);
            assert!(f >= p.config().freq_floor && f <= 1.0, "f={f} at u={u}");
            assert!(f >= u, "work must fit: f={f} < u={u}");
            assert!(f + 1e-12 >= last, "ladder must be monotone in load");
            // On the 0.1 ladder.
            let steps = f / p.config().freq_step;
            assert!((steps - steps.round()).abs() < 1e-9, "off-ladder f={f}");
            last = f;
        }
        // Idle host: floor. Saturated host: nominal.
        assert!((p.frequency_for(0.0) - 0.6).abs() < 1e-12);
        assert!((p.frequency_for(0.95) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speed_scaling_ablation_pins_nominal_clock() {
        let mut cfg = SleepScaleConfig::paper_default();
        cfg.speed_scaling = false;
        let p = SleepScalePolicy::new(cfg);
        for u in [0.0, 0.3, 0.9] {
            assert_eq!(p.frequency_for(u), 1.0);
        }
    }

    #[test]
    fn sleep_state_selection_weighs_gap_and_confidence() {
        let p = policy();
        let now = SimTime::from_hours(10);
        // Scheduled wake far away → S5; near → S3.
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.5, Some(SimTime::from_hours(20)), now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.5, Some(SimTime::from_hours(11)), now),
            SleepDepth::Suspend
        );
        // Unscheduled: confidence gate.
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.95, None, now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.5, None, now),
            SleepDepth::Suspend
        );
    }

    #[test]
    fn deep_sleep_ablation_stays_in_s3() {
        let mut cfg = SleepScaleConfig::paper_default();
        cfg.deep_sleep = false;
        let p = SleepScalePolicy::new(cfg);
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 1.0, None, SimTime::EPOCH),
            SleepDepth::Suspend
        );
    }
}
