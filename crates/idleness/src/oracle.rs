//! Test-only oracle: the dense idleness model the day-row storage and the
//! lockstep weight learning replaced (DESIGN.md §5, §16).
//!
//! [`DenseModel`] keeps all four SI tables allocated and zeroed from the
//! start, and learns each model's weights on its own with the scalar
//! steepest descent and its `break`. The proptests in `model.rs` require
//! [`IdlenessModel`] to match it bit for bit, through both the batch
//! entry and the one-model path.

use crate::classify::ImClass;
use crate::model::{
    IdlenessModel, ImConfig, SiVector, ALPHA, BETA, GD_TOLERANCE, INITIAL_MEAN_ACTIVITY,
    MAX_GD_ITERATIONS,
};
use dds_sim_core::time::CalendarStamp;

/// The dense idleness model.
#[derive(Debug, Clone)]
pub(crate) struct DenseModel {
    config: ImConfig,
    /// SId(h): hour-of-day scores.
    si_day: [f64; 24],
    /// SIw(h, dw): `si_week[dow][h]`.
    si_week: [[f64; 24]; 7],
    /// SIm(h, dm): `si_month[dom][h]`.
    si_month: Box<[[f64; 24]; 31]>,
    /// SIy(h, dm, m): `si_year[month][dom][h]`.
    si_year: Box<[[[f64; 24]; 31]; 12]>,
    weights: [f64; 4],
    mean_active_level: f64,
    active_hours: u64,
    observed_hours: u64,
}

impl DenseModel {
    pub(crate) fn new(config: ImConfig) -> Self {
        DenseModel {
            config,
            si_day: [0.0; 24],
            si_week: [[0.0; 24]; 7],
            si_month: Box::new([[0.0; 24]; 31]),
            si_year: Box::new([[[0.0; 24]; 31]; 12]),
            weights: [0.25; 4],
            mean_active_level: 0.0,
            active_hours: 0,
            observed_hours: 0,
        }
    }

    pub(crate) fn weights(&self) -> [f64; 4] {
        self.weights
    }

    /// `(observed hours, active hours, ā)`.
    pub(crate) fn counters(&self) -> (u64, u64, f64) {
        (
            self.observed_hours,
            self.active_hours,
            self.mean_active_level(),
        )
    }

    fn mean_active_level(&self) -> f64 {
        if self.active_hours == 0 {
            INITIAL_MEAN_ACTIVITY
        } else {
            self.mean_active_level
        }
    }

    pub(crate) fn si_vector(&self, stamp: CalendarStamp) -> SiVector {
        let h = stamp.hour as usize;
        [
            self.si_day[h],
            self.si_week[stamp.weekday.index()][h],
            self.si_month[stamp.day_of_month as usize][h],
            self.si_year[stamp.month as usize][stamp.day_of_month as usize][h],
        ]
    }

    pub(crate) fn raw_score(&self, stamp: CalendarStamp) -> f64 {
        let si = self.si_vector(stamp);
        self.weights.iter().zip(si.iter()).map(|(w, s)| w * s).sum()
    }

    /// The classifier reads only the hour-of-day table and the counters,
    /// so it runs on a model holding exactly those.
    pub(crate) fn classify(&self) -> ImClass {
        let mut view = IdlenessModel::new(self.config.clone());
        view.si_day = self.si_day;
        view.active_hours = self.active_hours;
        view.observed_hours = self.observed_hours;
        view.classify()
    }

    fn update_slot(slot: &mut f64, a_star: f64, idle: bool) {
        let u = 1.0 / (1.0 + (ALPHA * (slot.abs() - BETA)).exp());
        let v = a_star * u;
        *slot = (if idle { *slot + v } else { *slot - v }).clamp(-1.0, 1.0);
    }

    pub(crate) fn observe_hour(&mut self, stamp: CalendarStamp, activity_level: f64) {
        let level = activity_level.clamp(0.0, 1.0);
        let idle = level < self.config.noise_threshold.max(f64::MIN_POSITIVE);
        let a = if idle {
            self.mean_active_level()
        } else {
            level
        };
        let a_star = self.config.sigma * a;
        let si_old = self.si_vector(stamp);
        let w0 = self.weights;
        let h = stamp.hour as usize;
        let dw = stamp.weekday.index();
        let dm = stamp.day_of_month as usize;
        let m = stamp.month as usize;
        Self::update_slot(&mut self.si_day[h], a_star, idle);
        Self::update_slot(&mut self.si_week[dw][h], a_star, idle);
        Self::update_slot(&mut self.si_month[dm][h], a_star, idle);
        Self::update_slot(&mut self.si_year[m][dm][h], a_star, idle);
        let si_new = self.si_vector(stamp);
        self.learn_weights(w0, si_old, si_new);
        self.observed_hours += 1;
        if !idle {
            self.active_hours += 1;
            let n = self.active_hours as f64;
            self.mean_active_level += (level - self.mean_active_level) / n;
        }
    }

    fn learn_weights(&mut self, w0: [f64; 4], si_old: SiVector, si_new: SiVector) {
        if self.config.learning_rate <= 0.0 {
            return;
        }
        let target: f64 = w0.iter().zip(si_new.iter()).map(|(w, s)| w * s).sum();
        let si_norm2: f64 = si_old.iter().map(|s| s * s).sum();
        if si_norm2 <= f64::MIN_POSITIVE {
            return;
        }
        let mut w = w0;
        for _ in 0..MAX_GD_ITERATIONS {
            let predicted: f64 = w.iter().zip(si_old.iter()).map(|(w, s)| w * s).sum();
            let residual = target - predicted;
            if residual.abs() < GD_TOLERANCE {
                break;
            }
            let step = self.config.learning_rate * residual / si_norm2;
            for (wi, si) in w.iter_mut().zip(si_old.iter()) {
                *wi += step * si;
            }
        }
        for wi in w.iter_mut() {
            *wi = wi.max(0.0);
        }
        let sum: f64 = w.iter().sum();
        if sum <= f64::MIN_POSITIVE {
            w = [0.25; 4];
        } else {
            for wi in w.iter_mut() {
                *wi /= sum;
            }
        }
        self.weights = w;
    }
}
