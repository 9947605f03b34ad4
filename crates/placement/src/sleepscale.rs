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

/// Lowest step of the frequency ladder (fraction of nominal).
pub const FREQ_FLOOR: f64 = 0.6;
/// Granularity of the frequency ladder: steps at 0.6, 0.7, …, 1.0.
pub const FREQ_STEP: f64 = 0.1;
/// Utilization the chosen frequency aims to run the host at; the QoS
/// guard in SleepScale. Lower targets leave more latency slack.
pub const TARGET_UTILIZATION: f64 = 0.8;

/// The ladder's frequency step for a host at `utilization` (fraction of
/// capacity at nominal clock): the lowest P-state that still serves the
/// load at [`TARGET_UTILIZATION`], never below [`FREQ_FLOOR`], never
/// below the load itself (work must fit in the hour).
fn ladder_frequency(utilization: f64) -> f64 {
    let u = utilization.clamp(0.0, 1.0);
    let wanted = (u / TARGET_UTILIZATION).max(u);
    // Round UP to the next step of the ladder: QoS-safe quantization.
    let quantized = (wanted / FREQ_STEP).ceil() * FREQ_STEP;
    quantized.clamp(FREQ_FLOOR, 1.0)
}

/// The S3/S5 choice for a host the suspending module cleared for sleep:
/// S5 when the scheduled waking date is at least a minimum gap away or,
/// with no timer at all, when the host's idleness probability reaches a
/// minimum. The two gates in use are its constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct S5Gate {
    /// Minimum gap to the scheduled waking date before S5 is chosen (S5
    /// resume is slow; short naps must stay in S3).
    min_gap: SimDuration,
    /// Minimum host idleness probability before an *unscheduled* idle
    /// host (no timer at all) is sent to S5.
    min_ip: f64,
}

impl S5Gate {
    /// SleepScale's gate, hedged against unknown workloads: S5 only for
    /// scheduled gaps of four hours or more, or an idleness probability
    /// of 0.85 without a timer.
    pub const HEDGED: S5Gate = S5Gate {
        min_gap: SimDuration::from_hours(4),
        min_ip: 0.85,
    };

    /// The sharper gate for a host whose residents' learned models
    /// classify it idle or daily-periodic (2 h, 0.70): the model vouches
    /// for the idle period.
    pub const CONFIDENT: S5Gate = S5Gate {
        min_gap: SimDuration::from_hours(2),
        min_ip: 0.70,
    };

    /// The sleep depth this gate picks.
    pub fn depth(
        &self,
        ip_probability: f64,
        waking_date: Option<SimTime>,
        now: SimTime,
    ) -> SleepDepth {
        let deep = match waking_date {
            // A scheduled wake is anticipated either way, so no request
            // pays the S5 latency: S5 needs only a nap long enough to
            // amortize the slow resume.
            Some(date) => date.saturating_since(now) >= self.min_gap,
            // No timer: the next wake is an unscheduled packet that will
            // pay the full resume latency, so demand high confidence in a
            // long idle period before deepening the sleep.
            None => ip_probability >= self.min_ip,
        };
        if deep {
            SleepDepth::Off
        } else {
            SleepDepth::Suspend
        }
    }
}

/// The SleepScale policy's ablation switches; the ladder and the S5 gate
/// are the module's constants.
#[derive(Debug, Clone, PartialEq)]
pub struct SleepScaleConfig {
    /// Ablation switch: disable speed scaling (always full clock).
    pub speed_scaling: bool,
    /// Ablation switch: disable S5 selection (always S3, as Drowsy-DC).
    pub deep_sleep: bool,
}

impl SleepScaleConfig {
    /// Both levers on: five P-states between 60 % and 100 % of nominal at
    /// an 80 % load target, and S5 behind the [`S5Gate::HEDGED`] gate.
    pub fn paper_default() -> Self {
        SleepScaleConfig {
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
    /// Creates the policy over paper-default Neat packing.
    pub fn new(config: SleepScaleConfig) -> Self {
        SleepScalePolicy {
            config,
            planner: NeatPlanner::new(NeatConfig::paper_default()),
        }
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
        if self.config.deep_sleep {
            S5Gate::HEDGED.depth(ip_probability, waking_date, now)
        } else {
            SleepDepth::Suspend
        }
    }

    /// The ladder's frequency step for `utilization`, or nominal clock
    /// with speed scaling off.
    fn active_frequency(&self, _host: HostId, utilization: f64) -> f64 {
        if self.config.speed_scaling {
            ladder_frequency(utilization)
        } else {
            1.0
        }
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
            let f = p.active_frequency(HostId(0), u);
            assert!((FREQ_FLOOR..=1.0).contains(&f), "f={f} at u={u}");
            assert!(f >= u, "work must fit: f={f} < u={u}");
            assert!(f + 1e-12 >= last, "ladder must be monotone in load");
            // On the 0.1 ladder.
            let steps = f / FREQ_STEP;
            assert!((steps - steps.round()).abs() < 1e-9, "off-ladder f={f}");
            last = f;
        }
        // Idle host: floor. Saturated host: nominal.
        assert!((p.active_frequency(HostId(0), 0.0) - 0.6).abs() < 1e-12);
        assert!((p.active_frequency(HostId(0), 0.95) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speed_scaling_ablation_pins_nominal_clock() {
        let mut cfg = SleepScaleConfig::paper_default();
        cfg.speed_scaling = false;
        let p = SleepScalePolicy::new(cfg);
        for u in [0.0, 0.3, 0.9] {
            assert_eq!(p.active_frequency(HostId(0), u), 1.0);
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
