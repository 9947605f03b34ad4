//! Trace classification from a VM's *learned* idleness model.
//!
//! The tournament's adaptive meta-policy needs to know, per VM, what
//! kind of behaviour the online idleness priors have observed so far —
//! without access to the raw trace (a real controller only has the
//! model the paper's §III machinery keeps per VM). This module reads
//! that state back out:
//! duty cycle from the activity counters, daily periodicity from the
//! hour-of-day SI table.
//!
//! The taxonomy deliberately mirrors the behaviours the scenario
//! catalog stresses (and the winners the tournament ranks per family):
//!
//! | class           | signature                                   |
//! |-----------------|---------------------------------------------|
//! | `Undetermined`  | too few observed hours to say               |
//! | `Idle`          | essentially never active                    |
//! | `Steady`        | active most hours (LLMU-like ballast)       |
//! | `DailyPeriodic` | consistent active *and* idle hour-of-day blocks |
//! | `Bursty`        | intermittent activity with no daily anchor  |
//!
//! Thresholds are scaled by σ × observed days, because SI slots move by
//! at most ~σ per daily update (eqs. 3–5): what counts as a "strong"
//! hour-of-day signal grows with how long the model has watched.

use crate::model::IdlenessModel;

/// Behaviour class read from an [`IdlenessModel`]'s learned state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ImClass {
    /// Not enough observed hours to classify.
    Undetermined,
    /// Essentially never active (always-idle control VMs).
    Idle,
    /// Active most hours — LLMU-like steady load.
    Steady,
    /// Consistent daily rhythm: reliably-active hours *and* a reliably
    /// idle block (office diurnality, business hours, nightly batch).
    DailyPeriodic,
    /// Intermittent activity with no daily anchor (flash crowds,
    /// random bursts).
    Bursty,
}

impl ImClass {
    /// Stable kebab-case key (artifact columns, leaderboard tables).
    pub fn key(self) -> &'static str {
        match self {
            ImClass::Undetermined => "undetermined",
            ImClass::Idle => "idle",
            ImClass::Steady => "steady",
            ImClass::DailyPeriodic => "daily-periodic",
            ImClass::Bursty => "bursty",
        }
    }

    /// All classes, in discriminant order (iteration in tests/tables).
    pub const ALL: [ImClass; 5] = [
        ImClass::Undetermined,
        ImClass::Idle,
        ImClass::Steady,
        ImClass::DailyPeriodic,
        ImClass::Bursty,
    ];
}

/// Minimum observed hours before a model stops being `Undetermined`
/// (1.5 days: every hour-of-day slot has been visited at least once).
pub const MIN_OBSERVED_HOURS: u64 = 36;

/// Duty cycle at or below which a VM is `Idle`.
pub const IDLE_DUTY: f64 = 0.05;

/// Duty cycle at or above which a VM is `Steady`.
pub const STEADY_DUTY: f64 = 0.6;

/// Fraction of the per-day SI step (σ) an hour-of-day slot must have
/// accumulated *per observed day* to count as a strong signal.
const STRONG_SLOT_PER_DAY: f64 = 0.2;

/// Strong reliably-active hours required for `DailyPeriodic`.
const MIN_ACTIVE_HOURS: usize = 2;

/// Strong reliably-idle hours required for `DailyPeriodic` (a real
/// overnight/weekend block, not noise).
const MIN_IDLE_HOURS: usize = 6;

impl IdlenessModel {
    /// Fraction of observed hours that were active.
    pub fn duty_cycle(&self) -> f64 {
        if self.observed_hours == 0 {
            return 0.0;
        }
        self.active_hours as f64 / self.observed_hours as f64
    }

    /// Classifies the VM's behaviour from the model's learned state
    /// alone (no raw trace needed — see the [module docs](self)).
    pub fn classify(&self) -> ImClass {
        if self.observed_hours < MIN_OBSERVED_HOURS {
            return ImClass::Undetermined;
        }
        let duty = self.duty_cycle();
        if duty <= IDLE_DUTY {
            return ImClass::Idle;
        }
        if duty >= STEADY_DUTY {
            return ImClass::Steady;
        }
        // Daily periodicity: the hour-of-day table separates into a
        // reliably-active block (negative SI) and a reliably-idle block
        // (positive SI). One σ is the most a slot can move per daily
        // update, so the "strong" threshold scales with observed days.
        let days = (self.observed_hours as f64 / 24.0).max(1.0);
        let strong = STRONG_SLOT_PER_DAY * self.config.sigma * days;
        let active_hours = self.si_day.iter().filter(|&&v| v <= -strong).count();
        let idle_hours = self.si_day.iter().filter(|&&v| v >= strong).count();
        if active_hours >= MIN_ACTIVE_HOURS && idle_hours >= MIN_IDLE_HOURS {
            ImClass::DailyPeriodic
        } else {
            ImClass::Bursty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim_core::time::CalendarStamp;
    use dds_sim_core::SimRng;

    fn stamp(h: u64) -> CalendarStamp {
        CalendarStamp::from_hour_index(h)
    }

    /// Trains a model on `days` days of `level_of(hour_of_day, day)`.
    fn trained(days: u64, level_of: impl Fn(u64, u64) -> f64) -> IdlenessModel {
        let mut m = IdlenessModel::with_defaults();
        for day in 0..days {
            for h in 0..24u64 {
                m.observe_hour(stamp(day * 24 + h), level_of(h, day));
            }
        }
        m
    }

    #[test]
    fn fresh_and_short_models_are_undetermined() {
        assert_eq!(
            IdlenessModel::with_defaults().classify(),
            ImClass::Undetermined
        );
        let m = trained(1, |_, _| 0.0); // 24 h < MIN_OBSERVED_HOURS
        assert_eq!(m.classify(), ImClass::Undetermined);
    }

    #[test]
    fn always_idle_is_idle() {
        let m = trained(3, |_, _| 0.0);
        assert_eq!(m.classify(), ImClass::Idle);
        assert_eq!(m.duty_cycle(), 0.0);
    }

    #[test]
    fn steady_load_is_steady() {
        let m = trained(3, |_, _| 0.55);
        assert_eq!(m.classify(), ImClass::Steady);
        assert!(m.duty_cycle() > 0.9);
    }

    #[test]
    fn office_hours_are_daily_periodic() {
        // Active 9–17 every day, idle otherwise: the catalog's
        // business-hours shape.
        let m = trained(7, |h, _| if (9..17).contains(&h) { 0.5 } else { 0.0 });
        assert_eq!(m.classify(), ImClass::DailyPeriodic);
        // Even a 2-day quick run separates.
        let quick = trained(2, |h, _| if (9..17).contains(&h) { 0.5 } else { 0.0 });
        assert_eq!(quick.classify(), ImClass::DailyPeriodic);
    }

    #[test]
    fn nightly_batch_is_daily_periodic() {
        // 2 a.m. drain for three hours, like the batch-farm scenario.
        let m = trained(7, |h, _| if (1..4).contains(&h) { 0.9 } else { 0.0 });
        assert_eq!(m.classify(), ImClass::DailyPeriodic);
    }

    #[test]
    fn random_bursts_are_bursty() {
        // ~10 % duty with no hour-of-day anchor.
        let mut rng = SimRng::new(7);
        let mut m = IdlenessModel::with_defaults();
        for h in 0..(7 * 24u64) {
            let level = if rng.chance(0.12) { 0.6 } else { 0.0 };
            m.observe_hour(stamp(h), level);
        }
        assert_eq!(m.classify(), ImClass::Bursty);
    }

    #[test]
    fn keys_are_stable_and_unique() {
        let mut keys: Vec<&str> = ImClass::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(keys[0], "undetermined");
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ImClass::ALL.len());
    }
}
