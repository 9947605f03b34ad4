//! The idleness model (IM): SI score tables, hourly updates and weight
//! learning — §III-A/B/C of the paper.
//!
//! A VM's IM holds synthesized-idleness (SI) scores at four time scales:
//!
//! | table | slots            | a slot is updated… |
//! |-------|------------------|--------------------|
//! | SId   | 24 (hour)        | once per day       |
//! | SIw   | 24×7 (hour, dow) | once per week      |
//! | SIm   | 24×31 (hour, dom)| once per month     |
//! | SIy   | 24×31×12         | once per year      |
//!
//! At the end of every hour, each table's *current* slot is updated: an
//! idle hour increments it, an active hour decrements it (eqs. 2–5). The
//! idleness probability for any calendar hour is the weight vector dotted
//! with the four slot values (eq. 1); the weights themselves are
//! re-learned every hour by steepest descent on a quadratic error (eqs.
//! 6–8).

use dds_sim_core::time::CalendarStamp;

/// The paper's activity scaling factor σ = 1/(365·24): with the damping
/// coefficient ignored, one year of constant full activity moves an SI
/// table by a total mass of 1.
pub const SIGMA: f64 = 1.0 / (365.0 * 24.0);

/// The four SI slot values relevant to one calendar hour, in scale order
/// `[day, week, month, year]`.
pub type SiVector = [f64; 4];

/// Tunable parameters of the idleness model. Defaults are the paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct ImConfig {
    /// Decrease speed of the damping coefficient `u` (paper: α = 0.7).
    pub alpha: f64,
    /// |SI| threshold where values are considered extreme (paper: β = 0.5).
    pub beta: f64,
    /// Activity scaling factor (paper: σ = 1/(365·24)).
    pub sigma: f64,
    /// Steepest-descent learning rate: the fraction of the exact
    /// line-search step applied per iteration (0 disables learning,
    /// values in (0, 2) converge).
    pub learning_rate: f64,
    /// Maximum gradient-descent iterations per hour ("its precision can be
    /// set to not incur any overhead").
    pub max_gd_iterations: u32,
    /// Convergence tolerance on the residual of eq. 8.
    pub gd_tolerance: f64,
    /// Activity levels below this are treated as idle (quantum noise —
    /// §III-C filters "very short scheduling quanta").
    pub noise_threshold: f64,
    /// ā used before the VM has ever been active (undefined in the paper;
    /// 1.0 makes never-active VMs learn at full speed).
    pub initial_mean_activity: f64,
}

impl Default for ImConfig {
    fn default() -> Self {
        ImConfig {
            alpha: 0.7,
            beta: 0.5,
            sigma: SIGMA,
            learning_rate: 0.3,
            max_gd_iterations: 32,
            gd_tolerance: 1e-12,
            noise_threshold: 0.005,
            initial_mean_activity: 1.0,
        }
    }
}

impl ImConfig {
    /// The configuration used throughout the paper's evaluation.
    pub fn paper_default() -> Self {
        Self::default()
    }
}

/// A VM's idleness model.
#[derive(Debug, Clone)]
pub struct IdlenessModel {
    pub(crate) config: ImConfig,
    /// SId(h): hour-of-day scores.
    pub(crate) si_day: [f64; 24],
    /// SIw(h, dw): `si_week[dow][h]`.
    pub(crate) si_week: [[f64; 24]; 7],
    /// SIm(h, dm): `si_month[dom][h]`.
    pub(crate) si_month: Box<[[f64; 24]; 31]>,
    /// SIy(h, dm, m): `si_year[month][dom][h]`.
    pub(crate) si_year: Box<[[[f64; 24]; 31]; 12]>,
    /// Scale weights `[wd, ww, wm, wy]`, kept on the probability simplex.
    pub(crate) weights: [f64; 4],
    /// Running mean of activity levels over *active* hours (the paper's ā).
    pub(crate) mean_active_level: f64,
    pub(crate) active_hours: u64,
    pub(crate) observed_hours: u64,
}

impl IdlenessModel {
    /// Creates a fresh model ("At VM creation time, all SI∗ are set to
    /// zero, i.e. undetermined behavior"). Weights start uniform.
    pub fn new(config: ImConfig) -> Self {
        IdlenessModel {
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

    /// Creates a model with the paper's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ImConfig::default())
    }

    /// The model's configuration.
    pub fn config(&self) -> &ImConfig {
        &self.config
    }

    /// The current scale weights `[wd, ww, wm, wy]` (sum = 1).
    pub fn weights(&self) -> [f64; 4] {
        self.weights
    }

    /// Number of hours observed so far.
    pub fn observed_hours(&self) -> u64 {
        self.observed_hours
    }

    /// Number of observed hours that were active.
    pub fn active_hours(&self) -> u64 {
        self.active_hours
    }

    /// The running mean activity over active hours (the paper's ā); falls
    /// back to `initial_mean_activity` before any activity has been seen.
    pub fn mean_active_level(&self) -> f64 {
        if self.active_hours == 0 {
            self.config.initial_mean_activity
        } else {
            self.mean_active_level
        }
    }

    /// The SI slot values for a calendar hour, `[SId, SIw, SIm, SIy]`.
    pub fn si_vector(&self, stamp: CalendarStamp) -> SiVector {
        let h = stamp.hour as usize;
        [
            self.si_day[h],
            self.si_week[stamp.weekday.index()][h],
            self.si_month[stamp.day_of_month as usize][h],
            self.si_year[stamp.month as usize][stamp.day_of_month as usize][h],
        ]
    }

    /// Raw idleness score `s = wᵀ·SI ∈ [-1, 1]` for a calendar hour
    /// (eq. 1). Positive means the model leans *idle*.
    pub fn raw_score(&self, stamp: CalendarStamp) -> f64 {
        let si = self.si_vector(stamp);
        self.weights.iter().zip(si.iter()).map(|(w, s)| w * s).sum()
    }

    /// The idleness probability `IP = (s + 1)/2 ∈ [0, 1]`.
    ///
    /// 0.5 means undetermined; above 0.5 the VM is predicted idle for that
    /// hour (the paper's "IP is higher than 50 %").
    pub fn probability(&self, stamp: CalendarStamp) -> f64 {
        (self.raw_score(stamp) + 1.0) / 2.0
    }

    /// True when the model predicts the VM idle for the given hour.
    pub fn predicts_idle(&self, stamp: CalendarStamp) -> bool {
        self.raw_score(stamp) > 0.0
    }

    /// The damping coefficient u(|SI|) of eq. 4 (exposed for diagnostics
    /// and the ablation benches).
    pub fn damping(&self, si_abs: f64) -> f64 {
        1.0 / (1.0 + (self.config.alpha * (si_abs - self.config.beta)).exp())
    }

    /// Applies the eq. 5 update to one slot. `a_star` is the scaled
    /// activity value; `idle` selects increment vs decrement.
    fn update_slot(&mut self, which: SlotRef, a_star: f64, idle: bool) {
        let alpha = self.config.alpha;
        let beta = self.config.beta;
        let slot = self.slot_mut(which);
        let u = 1.0 / (1.0 + (alpha * (slot.abs() - beta)).exp());
        let v = a_star * u;
        *slot = (if idle { *slot + v } else { *slot - v }).clamp(-1.0, 1.0);
    }

    fn slot_mut(&mut self, which: SlotRef) -> &mut f64 {
        match which {
            SlotRef::Day(h) => &mut self.si_day[h],
            SlotRef::Week(d, h) => &mut self.si_week[d][h],
            SlotRef::Month(d, h) => &mut self.si_month[d][h],
            SlotRef::Year(m, d, h) => &mut self.si_year[m][d][h],
        }
    }

    /// Feeds one completed hour into the model: updates the four SI slots
    /// (eqs. 2–5) and re-learns the weights (eqs. 6–8).
    ///
    /// `activity_level` is the fraction of scheduler quanta the VM
    /// received during the hour, `[0, 1]`; values below the noise
    /// threshold count as idle.
    pub fn observe_hour(&mut self, stamp: CalendarStamp, activity_level: f64) {
        let level = activity_level.clamp(0.0, 1.0);
        let idle = level < self.config.noise_threshold.max(f64::MIN_POSITIVE);

        // --- eq. 2: choose the activity value driving the update.
        let a = if idle {
            // Idle hour: use ā so that idleness after high activity is
            // significant.
            self.mean_active_level()
        } else {
            level
        };
        // --- eq. 3: scale to SI bounds.
        let a_star = self.config.sigma * a;

        // Snapshot for weight learning: SI (old values) and w0.
        let si_old = self.si_vector(stamp);
        let w0 = self.weights;

        // --- eqs. 4–5: update the four slots.
        let h = stamp.hour as usize;
        let dw = stamp.weekday.index();
        let dm = stamp.day_of_month as usize;
        let m = stamp.month as usize;
        self.update_slot(SlotRef::Day(h), a_star, idle);
        self.update_slot(SlotRef::Week(dw, h), a_star, idle);
        self.update_slot(SlotRef::Month(dm, h), a_star, idle);
        self.update_slot(SlotRef::Year(m, dm, h), a_star, idle);

        let si_new = self.si_vector(stamp);

        // --- eqs. 6–8: steepest descent on Q(w) = (w0ᵀ·SI' − wᵀ·SI)².
        self.learn_weights(w0, si_old, si_new);

        // Bookkeeping for ā.
        self.observed_hours += 1;
        if !idle {
            self.active_hours += 1;
            let n = self.active_hours as f64;
            self.mean_active_level += (level - self.mean_active_level) / n;
        }
    }

    /// Steepest descent minimizing `(target − wᵀ·SI)²` with
    /// `target = w0ᵀ·SI'`, then projection back onto the simplex.
    ///
    /// The raw gradient `−2·residual·SI` has magnitude O(σ²) once SI
    /// values settle near their operating scale, which would make learning
    /// inert at the paper's σ = 1/8760. We therefore take steps relative
    /// to the *exact line-search* step of this one-dimensional quadratic,
    /// `residual·SI/‖SI‖²`: `learning_rate` is the fraction of that
    /// optimal step applied per iteration (any value in (0, 2) converges).
    fn learn_weights(&mut self, w0: [f64; 4], si_old: SiVector, si_new: SiVector) {
        if self.config.learning_rate <= 0.0 {
            return; // learning disabled (ablation)
        }
        let target: f64 = w0.iter().zip(si_new.iter()).map(|(w, s)| w * s).sum();
        let si_norm2: f64 = si_old.iter().map(|s| s * s).sum();
        if si_norm2 <= f64::MIN_POSITIVE {
            // Nothing to learn from an all-zero SI vector (fresh slots).
            return;
        }
        let mut w = w0;
        for _ in 0..self.config.max_gd_iterations {
            let predicted: f64 = w.iter().zip(si_old.iter()).map(|(w, s)| w * s).sum();
            let residual = target - predicted;
            if residual.abs() < self.config.gd_tolerance {
                break;
            }
            let step = self.config.learning_rate * residual / si_norm2;
            for (wi, si) in w.iter_mut().zip(si_old.iter()) {
                *wi += step * si;
            }
        }
        // Keep weights interpretable: non-negative, summing to 1.
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

/// Addresses one SI slot.
#[derive(Debug, Clone, Copy)]
enum SlotRef {
    Day(usize),
    Week(usize, usize),
    Month(usize, usize),
    Year(usize, usize, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim_core::time::CalendarStamp;
    use proptest::prelude::*;

    /// Largest |SI| across every table (bounded by 1 by construction).
    fn max_abs_si(m: &IdlenessModel) -> f64 {
        m.si_day
            .iter()
            .chain(m.si_week.iter().flatten())
            .chain(m.si_month.iter().flatten())
            .chain(m.si_year.iter().flatten().flatten())
            .fold(0.0, |acc: f64, v| acc.max(v.abs()))
    }

    fn stamp(hour_index: u64) -> CalendarStamp {
        CalendarStamp::from_hour_index(hour_index)
    }

    #[test]
    fn fresh_model_is_undetermined() {
        let m = IdlenessModel::with_defaults();
        let s = stamp(0);
        assert_eq!(m.raw_score(s), 0.0);
        assert_eq!(m.probability(s), 0.5);
        assert!(!m.predicts_idle(s), "undetermined must not predict idle");
        assert_eq!(m.weights(), [0.25; 4]);
    }

    #[test]
    fn idle_hours_raise_score_active_hours_lower_it() {
        let mut m = IdlenessModel::with_defaults();
        // Feed 30 days: always idle at hour 3, always active at hour 9.
        for day in 0..30u64 {
            m.observe_hour(stamp(day * 24 + 3), 0.0);
            m.observe_hour(stamp(day * 24 + 9), 0.8);
        }
        let idle_stamp = stamp(30 * 24 + 3);
        let active_stamp = stamp(30 * 24 + 9);
        assert!(m.raw_score(idle_stamp) > 0.0);
        assert!(m.raw_score(active_stamp) < 0.0);
        assert!(m.predicts_idle(idle_stamp));
        assert!(!m.predicts_idle(active_stamp));
        assert!(m.probability(idle_stamp) > 0.5);
        assert!(m.probability(active_stamp) < 0.5);
    }

    #[test]
    fn si_values_stay_in_bounds_for_years_of_activity() {
        // Crank σ up to stress the clamp.
        let cfg = ImConfig {
            sigma: 0.5,
            ..ImConfig::default()
        };
        let mut m = IdlenessModel::new(cfg);
        for hour in 0..(2 * 8760u64) {
            let level = if hour % 2 == 0 { 1.0 } else { 0.0 };
            m.observe_hour(stamp(hour), level);
        }
        assert!(max_abs_si(&m) <= 1.0);
    }

    #[test]
    fn weights_remain_on_simplex() {
        let mut m = IdlenessModel::with_defaults();
        let mut rng = dds_sim_core::SimRng::new(5);
        for hour in 0..5000u64 {
            let level = if rng.chance(0.3) { rng.unit() } else { 0.0 };
            m.observe_hour(stamp(hour), level);
            let w = m.weights();
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "weights sum {sum}");
            assert!(w.iter().all(|&x| x >= 0.0), "negative weight in {w:?}");
        }
    }

    #[test]
    fn noise_threshold_treats_tiny_activity_as_idle() {
        let mut m = IdlenessModel::with_defaults();
        for day in 0..20u64 {
            m.observe_hour(stamp(day * 24 + 5), 0.001); // below threshold
        }
        assert!(
            m.raw_score(stamp(20 * 24 + 5)) > 0.0,
            "noise counts as idle"
        );
        assert_eq!(m.active_hours(), 0);
    }

    #[test]
    fn mean_active_level_tracks_active_hours_only() {
        let mut m = IdlenessModel::with_defaults();
        assert_eq!(m.mean_active_level(), 1.0, "prior before any activity");
        m.observe_hour(stamp(0), 0.6);
        m.observe_hour(stamp(1), 0.0);
        m.observe_hour(stamp(2), 0.2);
        assert!((m.mean_active_level() - 0.4).abs() < 1e-12);
        assert_eq!(m.active_hours(), 2);
        assert_eq!(m.observed_hours(), 3);
    }

    #[test]
    fn idleness_after_high_activity_learns_fast() {
        // Paper: "whenever a VM is seen idle during an hour after showing
        // high activity levels during active hours, its SI∗ for this hour
        // increases fast".
        let mut high = IdlenessModel::with_defaults();
        let mut low = IdlenessModel::with_defaults();
        // Same schedule, different active intensity.
        for day in 0..10u64 {
            high.observe_hour(stamp(day * 24 + 9), 1.0);
            low.observe_hour(stamp(day * 24 + 9), 0.1);
            high.observe_hour(stamp(day * 24 + 3), 0.0);
            low.observe_hour(stamp(day * 24 + 3), 0.0);
        }
        let s = stamp(10 * 24 + 3);
        assert!(
            high.raw_score(s) > low.raw_score(s),
            "higher ā must speed up idle-slot growth: {} vs {}",
            high.raw_score(s),
            low.raw_score(s)
        );
    }

    #[test]
    fn damping_slows_extreme_values() {
        let m = IdlenessModel::with_defaults();
        // u is decreasing in |SI|: updates shrink as scores get extreme.
        assert!(m.damping(0.0) > m.damping(0.5));
        assert!(m.damping(0.5) > m.damping(1.0));
        // At |SI| = β the damping is exactly 1/2.
        assert!((m.damping(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn seven_sigma_calibration() {
        // One week of daily full-activity updates on a fresh slot moves it
        // by slightly less than 7σ (damping < 1), and at least 7σ·u(0).
        let mut m = IdlenessModel::with_defaults();
        for day in 0..7u64 {
            m.observe_hour(stamp(day * 24 + 9), 1.0);
        }
        let drop = -m.si_vector(stamp(7 * 24 + 9))[0];
        let u0 = m.damping(0.0);
        assert!(drop <= 7.0 * SIGMA + 1e-12);
        assert!(drop >= 7.0 * SIGMA * u0 * 0.99);
    }

    #[test]
    fn weekly_pattern_separates_on_weekday_scale() {
        let mut m = IdlenessModel::with_defaults();
        // Active Mondays at hour 8, idle all other days at hour 8, for two
        // years.
        for day in 0..730u64 {
            let level = if day % 7 == 0 { 0.9 } else { 0.0 };
            m.observe_hour(stamp(day * 24 + 8), level);
        }
        // Next Monday vs next Tuesday at hour 8.
        let monday = stamp(730 * 24 + 8);
        assert_eq!(monday.weekday.index(), 730 % 7);
        // Day 730 % 7 == 2 → Wednesday; find next Monday/Tuesday stamps.
        let mut mon_idx = 730;
        while mon_idx % 7 != 0 {
            mon_idx += 1;
        }
        let tue_idx = mon_idx + 1;
        let mon = stamp(mon_idx * 24 + 8);
        let tue = stamp(tue_idx * 24 + 8);
        // The weekday SI slot separates the two days…
        assert!(
            m.raw_score(mon) < m.raw_score(tue),
            "Monday must look more active than Tuesday: {} vs {}",
            m.raw_score(mon),
            m.raw_score(tue)
        );
        assert!(m.si_vector(mon)[1] < 0.0, "SIw(Mon) negative");
        assert!(m.si_vector(tue)[1] > 0.0, "SIw(Tue) positive");
        // …and the learner has shifted weight onto the weekly scale at the
        // expense of the (useless here) month/year scales. Note the model
        // does NOT fully flip the Monday prediction: the hour-of-day table
        // still dominates — exactly the structural error that caps the
        // paper's own Fig. 4(b) F-measure at ≈0.82 on weekly patterns.
        let w = m.weights();
        assert!(w[1] > w[2] && w[1] > w[3], "weights {w:?}");
    }

    #[test]
    fn always_idle_vm_prediction_converges_quickly() {
        let mut m = IdlenessModel::with_defaults();
        for hour in 0..(7 * 24u64) {
            m.observe_hour(stamp(hour), 0.0);
        }
        // After one week, every hour of the next day is predicted idle.
        for hour in (7 * 24)..(8 * 24u64) {
            assert!(m.predicts_idle(stamp(hour)), "hour {hour}");
        }
    }

    #[test]
    fn always_active_vm_prediction_converges_quickly() {
        let mut m = IdlenessModel::with_defaults();
        for hour in 0..(7 * 24u64) {
            m.observe_hour(stamp(hour), 0.9);
        }
        for hour in (7 * 24)..(8 * 24u64) {
            assert!(!m.predicts_idle(stamp(hour)), "hour {hour}");
            assert!(m.probability(stamp(hour)) < 0.5);
        }
    }

    proptest! {
        /// SI bounds and simplex weights hold for arbitrary activity
        /// sequences.
        #[test]
        fn invariants_under_arbitrary_traces(
            levels in proptest::collection::vec(0.0f64..=1.0, 1..400),
            sigma_scale in 1.0f64..2000.0,
        ) {
            let cfg = ImConfig {
                sigma: SIGMA * sigma_scale, // stress larger steps too
                ..ImConfig::default()
            };
            let mut m = IdlenessModel::new(cfg);
            for (i, &level) in levels.iter().enumerate() {
                m.observe_hour(stamp(i as u64), level);
            }
            prop_assert!(max_abs_si(&m) <= 1.0 + 1e-12);
            let w = m.weights();
            prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
            // Raw score and probability stay in range at arbitrary stamps.
            for h in [0u64, 13, 997, 8760] {
                let s = m.raw_score(stamp(h));
                prop_assert!((-1.0..=1.0).contains(&s));
                let p = m.probability(stamp(h));
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        /// The probability map is the affine image of the raw score.
        #[test]
        fn probability_is_affine_in_score(hours in 1usize..200) {
            let mut m = IdlenessModel::with_defaults();
            for h in 0..hours {
                m.observe_hour(stamp(h as u64), if h % 3 == 0 { 0.5 } else { 0.0 });
            }
            let s = stamp(hours as u64);
            prop_assert!((m.probability(s) - (m.raw_score(s) + 1.0) / 2.0).abs() < 1e-15);
        }
    }
}
