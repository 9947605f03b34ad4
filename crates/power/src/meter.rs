//! Energy integration and per-state residency accounting.
//!
//! [`EnergyMeter`] is attached to each simulated host. The simulation calls
//! [`EnergyMeter::advance`] whenever the host's `(state, utilization)`
//! changes (or at control-period boundaries); the meter integrates joules
//! and accumulates residency per power state. Table I of the paper is the
//! suspended-state residency fraction; §VI.A.3's kWh totals are the joule
//! integral.

use crate::model::HostPowerModel;
use crate::state::PowerState;
use crate::timeline::PowerTimeline;
use dds_sim_core::{SimDuration, SimTime};

/// Joules per kilowatt-hour.
pub const JOULES_PER_KWH: f64 = 3.6e6;

/// Per-host energy meter.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: HostPowerModel,
    last_update: SimTime,
    joules: f64,
    /// Residency per state, indexed by discriminant order of
    /// [`PowerState`]: Active, Suspending, Suspended, Resuming, Off.
    residency: [SimDuration; 5],
    suspend_cycles: u64,
    /// Opt-in state history (see [`EnergyMeter::enable_timeline`]); `None`
    /// keeps `advance` allocation-free for the energy-only experiments.
    timeline: Option<PowerTimeline>,
}

fn state_slot(state: PowerState) -> usize {
    match state {
        PowerState::Active => 0,
        PowerState::Suspending => 1,
        PowerState::Suspended => 2,
        PowerState::Resuming => 3,
        PowerState::Off => 4,
    }
}

impl EnergyMeter {
    /// Creates a meter starting at `start` with the given power model.
    pub fn new(model: HostPowerModel, start: SimTime) -> Self {
        EnergyMeter {
            model,
            last_update: start,
            joules: 0.0,
            residency: [SimDuration::ZERO; 5],
            suspend_cycles: 0,
            timeline: None,
        }
    }

    /// Starts recording a [`PowerTimeline`] alongside the energy
    /// integration: every `advance` appends its `(state, interval)` span.
    /// Enable before the first `advance` so the history is complete.
    pub fn enable_timeline(&mut self) {
        if self.timeline.is_none() {
            self.timeline = Some(PowerTimeline::new());
        }
    }

    /// The recorded state history (`None` unless
    /// [`EnergyMeter::enable_timeline`] was called).
    pub fn timeline(&self) -> Option<&PowerTimeline> {
        self.timeline.as_ref()
    }

    /// Takes the recorded state history out of the meter (outcome
    /// assembly), leaving timeline recording disabled.
    pub fn take_timeline(&mut self) -> Option<PowerTimeline> {
        self.timeline.take()
    }

    /// The power model in use.
    pub fn model(&self) -> &HostPowerModel {
        &self.model
    }

    /// Integrates the interval `[last_update, now)` spent in `state` at
    /// `utilization`, then moves the cursor to `now`. Calls with
    /// `now <= last_update` are no-ops (idempotent at boundaries).
    pub fn advance(&mut self, now: SimTime, state: PowerState, utilization: f64) {
        let Some(dt) = now.checked_since(self.last_update) else {
            return;
        };
        if dt.is_zero() {
            return;
        }
        self.joules += self.model.energy_joules(state, utilization, dt);
        self.residency[state_slot(state)] += dt;
        if let Some(tl) = &mut self.timeline {
            tl.record(state, self.last_update, now);
        }
        self.last_update = now;
    }

    /// Records that one suspend cycle completed (used by the oscillation
    /// analysis of the suspending module, Fig. 3).
    pub fn record_suspend_cycle(&mut self) {
        self.suspend_cycles += 1;
    }

    /// Number of completed suspend cycles.
    pub fn suspend_cycles(&self) -> u64 {
        self.suspend_cycles
    }

    /// Total energy consumed so far, in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total energy consumed so far, in kWh.
    pub fn kwh(&self) -> f64 {
        self.joules / JOULES_PER_KWH
    }

    /// Time spent in the given state.
    pub fn residency(&self, state: PowerState) -> SimDuration {
        self.residency[state_slot(state)]
    }

    /// Total metered time.
    pub fn total_time(&self) -> SimDuration {
        self.residency
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }

    /// Fraction of metered time spent suspended (S3). This is the Table I
    /// statistic.
    pub fn suspended_fraction(&self) -> f64 {
        let total = self.total_time();
        if total.is_zero() {
            return 0.0;
        }
        self.residency(PowerState::Suspended).as_secs_f64() / total.as_secs_f64()
    }

    /// Fraction of metered time in any low-power state (S3 + S5).
    pub fn low_power_fraction(&self) -> f64 {
        let total = self.total_time();
        if total.is_zero() {
            return 0.0;
        }
        (self.residency(PowerState::Suspended) + self.residency(PowerState::Off)).as_secs_f64()
            / total.as_secs_f64()
    }

    /// The meter's current time cursor.
    pub fn cursor(&self) -> SimTime {
        self.last_update
    }
}

/// Datacenter-level energy aggregation over a set of host meters.
#[derive(Debug, Clone, Default)]
pub struct DcEnergyAccount {
    joules: f64,
    suspended: SimDuration,
    total: SimDuration,
    hosts: usize,
}

impl DcEnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one host meter into the account. Low-power residency counts
    /// S3 and S5 alike (policies doing sleep-state selection may park
    /// hosts in either; the paper's four only ever reach S3).
    pub fn add_host(&mut self, meter: &EnergyMeter) {
        self.joules += meter.joules();
        self.suspended += meter.residency(PowerState::Suspended) + meter.residency(PowerState::Off);
        self.total += meter.total_time();
        self.hosts += 1;
    }

    /// Number of hosts aggregated.
    pub fn host_count(&self) -> usize {
        self.hosts
    }

    /// Total energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total energy in kWh — the unit the paper reports (18 kWh vs 40 kWh).
    pub fn kwh(&self) -> f64 {
        self.joules / JOULES_PER_KWH
    }

    /// Global suspended-time fraction across all hosts ("Global" column of
    /// Table I).
    pub fn global_suspended_fraction(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.suspended.as_secs_f64() / self.total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn integrates_constant_state() {
        let mut m = EnergyMeter::new(HostPowerModel::paper_default(), t(0));
        m.advance(t(3600), PowerState::Active, 0.0);
        // 50 W * 1 h = 50 Wh.
        assert!((m.kwh() - 0.050).abs() < 1e-9);
        assert_eq!(m.residency(PowerState::Active), SimDuration::from_hours(1));
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut m = EnergyMeter::new(HostPowerModel::paper_default(), t(0));
        m.advance(t(100), PowerState::Active, 0.5);
        let j = m.joules();
        m.advance(t(100), PowerState::Active, 0.5);
        m.advance(t(50), PowerState::Active, 0.5); // stale call ignored
        assert_eq!(m.joules(), j);
    }

    #[test]
    fn residency_fractions() {
        let mut m = EnergyMeter::new(HostPowerModel::paper_default(), t(0));
        m.advance(t(25), PowerState::Active, 1.0);
        m.advance(t(100), PowerState::Suspended, 0.0);
        assert!((m.suspended_fraction() - 0.75).abs() < 1e-12);
        assert!((m.low_power_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(m.total_time(), SimDuration::from_secs(100));
    }

    #[test]
    fn suspended_saves_energy_vs_idle() {
        let model = HostPowerModel::paper_default();
        let mut idle = EnergyMeter::new(model.clone(), t(0));
        let mut drowsy = EnergyMeter::new(model, t(0));
        idle.advance(t(86_400), PowerState::Active, 0.0);
        drowsy.advance(t(86_400), PowerState::Suspended, 0.0);
        assert!(drowsy.joules() < idle.joules() * 0.11);
    }

    #[test]
    fn empty_meter_fractions_are_zero() {
        let m = EnergyMeter::new(HostPowerModel::paper_default(), t(0));
        assert_eq!(m.suspended_fraction(), 0.0);
        assert_eq!(m.kwh(), 0.0);
    }

    #[test]
    fn suspend_cycle_counter() {
        let mut m = EnergyMeter::new(HostPowerModel::paper_default(), t(0));
        assert_eq!(m.suspend_cycles(), 0);
        m.record_suspend_cycle();
        m.record_suspend_cycle();
        assert_eq!(m.suspend_cycles(), 2);
    }

    #[test]
    fn timeline_recording_mirrors_the_metered_spans() {
        let mut m = EnergyMeter::new(HostPowerModel::paper_default(), t(0));
        assert!(m.timeline().is_none(), "recording is opt-in");
        m.enable_timeline();
        m.enable_timeline(); // idempotent: does not reset the history
        m.advance(t(10), PowerState::Active, 0.5);
        m.advance(t(20), PowerState::Active, 0.9); // same state: merges
        m.advance(t(23), PowerState::Suspending, 0.0);
        m.advance(t(100), PowerState::Suspended, 0.0);
        let tl = m.timeline().expect("enabled");
        assert_eq!(tl.intervals().len(), 3);
        assert_eq!(tl.end(), Some(t(100)));
        assert_eq!(tl.state_at(t(50)), Some(PowerState::Suspended));
        // Residency and timeline agree on every state's total time.
        for s in [
            PowerState::Active,
            PowerState::Suspending,
            PowerState::Suspended,
        ] {
            assert_eq!(tl.time_in(|x| x == s), m.residency(s), "{s}");
        }
        let taken = m.take_timeline().expect("taken once");
        assert_eq!(taken.intervals().len(), 3);
        assert!(m.take_timeline().is_none());
    }

    #[test]
    fn dc_account_aggregates_hosts() {
        let model = HostPowerModel::paper_default();
        let mut a = EnergyMeter::new(model.clone(), t(0));
        let mut b = EnergyMeter::new(model, t(0));
        a.advance(t(100), PowerState::Active, 0.0);
        b.advance(t(100), PowerState::Suspended, 0.0);
        let mut acct = DcEnergyAccount::new();
        acct.add_host(&a);
        acct.add_host(&b);
        assert_eq!(acct.host_count(), 2);
        assert!((acct.global_suspended_fraction() - 0.5).abs() < 1e-12);
        assert!((acct.joules() - (50.0 * 100.0 + 5.0 * 100.0)).abs() < 1e-6);
    }

    proptest! {
        /// Total residency always equals metered wall time regardless of
        /// the state sequence, and joules are non-negative.
        #[test]
        fn residency_partitions_time(
            steps in proptest::collection::vec((0u8..5, 1u64..10_000, 0.0f64..1.0), 1..50)
        ) {
            let mut m = EnergyMeter::new(HostPowerModel::paper_default(), t(0));
            let mut now = 0u64;
            for (s, dt, u) in steps {
                now += dt;
                let state = match s {
                    0 => PowerState::Active,
                    1 => PowerState::Suspending,
                    2 => PowerState::Suspended,
                    3 => PowerState::Resuming,
                    _ => PowerState::Off,
                };
                m.advance(t(now), state, u);
            }
            prop_assert_eq!(m.total_time(), SimDuration::from_secs(now));
            prop_assert!(m.joules() >= 0.0);
            let f = m.suspended_fraction();
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }
}
