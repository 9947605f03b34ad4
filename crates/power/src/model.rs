//! Host power models calibrated against the paper's testbed.
//!
//! The testbed machines are HP desktops with Intel i7-3770 CPUs. The paper
//! reports a single hard number — "the energy consumed by a host when
//! suspended is about 5 W, around 10 % of the consumption in idle S0 state"
//! — which pins idle S0 at ≈50 W. Peak draw of an i7-3770 box under full
//! load is ≈120 W. Between idle and peak we use the standard first-order
//! linear model `P(u) = P_idle + (P_peak − P_idle)·u`, which is also what
//! CloudSim-style simulators (the paper's §VI.B substrate) use by default.

use crate::state::{PowerState, WakeSpeed};
use dds_sim_core::SimDuration;

/// Latencies of the timed power transitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionTimings {
    /// Time to enter S3 once the decision is taken.
    pub suspend_latency: SimDuration,
    /// Stock resume latency (paper: ≈1500 ms perceived).
    pub resume_normal: SimDuration,
    /// Optimized quick-resume latency (paper: ≈800 ms).
    pub resume_quick: SimDuration,
}

impl TransitionTimings {
    /// Timings matching the paper's testbed measurements.
    pub fn paper_default() -> Self {
        TransitionTimings {
            suspend_latency: SimDuration::from_secs(3),
            resume_normal: SimDuration::from_millis(1500),
            resume_quick: SimDuration::from_millis(800),
        }
    }

    /// Resume latency for the given wake speed.
    pub fn resume_latency(&self, speed: WakeSpeed) -> SimDuration {
        match speed {
            WakeSpeed::Normal => self.resume_normal,
            WakeSpeed::Quick => self.resume_quick,
        }
    }
}

/// Maps `(power state, cpu utilization)` to instantaneous watts.
#[derive(Debug, Clone, PartialEq)]
pub struct HostPowerModel {
    /// Draw at S0 with zero load.
    pub idle_watts: f64,
    /// Draw at S0 with 100 % CPU utilization.
    pub peak_watts: f64,
    /// Draw in S3 (suspend-to-RAM keeps memory refreshed + NIC for WoL).
    pub suspended_watts: f64,
    /// Draw in S5 (board standby + NIC for WoL).
    pub off_watts: f64,
    /// Draw during suspend/resume transitions. Transitions exercise the
    /// full device tree, so the model charges peak power — this also makes
    /// oscillating suspend/resume *cost* energy, which is exactly the
    /// behaviour the grace-time mechanism exists to avoid.
    pub transition_watts: f64,
    /// Transition latencies.
    pub timings: TransitionTimings,
}

impl HostPowerModel {
    /// The model calibrated to the paper's testbed (i7-3770, S3 ≈ 5 W ≈
    /// 10 % of S0 idle).
    pub fn paper_default() -> Self {
        HostPowerModel {
            idle_watts: 50.0,
            peak_watts: 120.0,
            suspended_watts: 5.0,
            off_watts: 1.0,
            transition_watts: 120.0,
            timings: TransitionTimings::paper_default(),
        }
    }

    /// Instantaneous draw in watts. `utilization` is the host CPU
    /// utilization in `[0, 1]` and only matters in `Active`.
    pub fn watts(&self, state: PowerState, utilization: f64) -> f64 {
        match state {
            PowerState::Active => {
                let u = utilization.clamp(0.0, 1.0);
                self.idle_watts + (self.peak_watts - self.idle_watts) * u
            }
            PowerState::Suspending | PowerState::Resuming => self.transition_watts,
            PowerState::Suspended => self.suspended_watts,
            PowerState::Off => self.off_watts,
        }
    }

    /// Energy in joules consumed over `dt` in the given state/utilization.
    pub fn energy_joules(&self, state: PowerState, utilization: f64, dt: SimDuration) -> f64 {
        self.watts(state, utilization) * dt.as_secs_f64()
    }
}

impl Default for HostPowerModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_calibration_matches_quoted_numbers() {
        let m = HostPowerModel::paper_default();
        assert_eq!(m.watts(PowerState::Suspended, 0.0), 5.0);
        // S3 draws ≈10 % of idle S0, as the paper quotes.
        assert!((m.suspended_watts / m.idle_watts - 0.10).abs() < 1e-9);
        assert_eq!(m.watts(PowerState::Active, 0.0), 50.0);
        assert_eq!(m.watts(PowerState::Active, 1.0), 120.0);
    }

    #[test]
    fn active_power_is_linear_in_utilization() {
        let m = HostPowerModel::paper_default();
        let half = m.watts(PowerState::Active, 0.5);
        assert!((half - 85.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_clamped() {
        let m = HostPowerModel::paper_default();
        assert_eq!(m.watts(PowerState::Active, -0.5), m.idle_watts);
        assert_eq!(m.watts(PowerState::Active, 2.0), m.peak_watts);
    }

    #[test]
    fn utilization_irrelevant_outside_active() {
        let m = HostPowerModel::paper_default();
        for u in [0.0, 0.5, 1.0] {
            assert_eq!(m.watts(PowerState::Suspended, u), 5.0);
            assert_eq!(m.watts(PowerState::Off, u), 1.0);
            assert_eq!(m.watts(PowerState::Suspending, u), 120.0);
        }
    }

    #[test]
    fn energy_integrates_watts_over_time() {
        let m = HostPowerModel::paper_default();
        // 50 W for one hour = 180 kJ.
        let j = m.energy_joules(PowerState::Active, 0.0, SimDuration::from_hours(1));
        assert!((j - 180_000.0).abs() < 1e-6);
        // Suspended for a day: 5 W * 86400 s = 432 kJ (0.12 kWh).
        let j = m.energy_joules(PowerState::Suspended, 0.0, SimDuration::from_days(1));
        assert!((j - 432_000.0).abs() < 1e-6);
    }

    #[test]
    fn wake_speed_selects_latency() {
        let t = TransitionTimings::paper_default();
        assert_eq!(
            t.resume_latency(WakeSpeed::Quick),
            SimDuration::from_millis(800)
        );
        assert_eq!(
            t.resume_latency(WakeSpeed::Normal),
            SimDuration::from_millis(1500)
        );
    }

    proptest! {
        #[test]
        fn active_power_monotone_in_utilization(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
            let m = HostPowerModel::paper_default();
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(
                m.watts(PowerState::Active, lo) <= m.watts(PowerState::Active, hi)
            );
        }

        #[test]
        fn suspended_always_cheaper_than_any_active(u in 0.0f64..1.0) {
            let m = HostPowerModel::paper_default();
            prop_assert!(
                m.watts(PowerState::Suspended, 0.0) < m.watts(PowerState::Active, u)
            );
        }

        #[test]
        fn energy_nonnegative_and_additive(
            u in 0.0f64..1.0,
            a in 0u64..100_000,
            b in 0u64..100_000,
        ) {
            let m = HostPowerModel::paper_default();
            let s = PowerState::Active;
            let ja = m.energy_joules(s, u, SimDuration::from_millis(a));
            let jb = m.energy_joules(s, u, SimDuration::from_millis(b));
            let jab = m.energy_joules(s, u, SimDuration::from_millis(a + b));
            prop_assert!(ja >= 0.0 && jb >= 0.0);
            prop_assert!((ja + jb - jab).abs() < 1e-6);
        }
    }
}
