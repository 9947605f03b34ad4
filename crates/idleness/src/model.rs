//! The idleness model (IM): SI score tables, hourly updates and weight
//! learning — §III-A/B/C of the paper.
//!
//! A VM's IM holds synthesized-idleness (SI) scores at four time scales:
//!
//! | table | slots            | a slot is updated… | stored as |
//! |-------|------------------|--------------------|-----------|
//! | SId   | 24 (hour)        | once per day       | a dense row |
//! | SIw   | 24×7 (hour, dow) | once per week      | 7 dense rows |
//! | SIm   | 24×31 (hour, dom)| once per month     | a day row per day of the month, on first write |
//! | SIy   | 24×31×12         | once per year      | a day row per day of the year, on first write |
//!
//! At the end of every hour, each table's *current* slot is updated: an
//! idle hour increments it, an active hour decrements it (eqs. 2–5). The
//! idleness probability for any calendar hour is the weight vector dotted
//! with the four slot values (eq. 1); the weights themselves are
//! re-learned every hour by steepest descent on a quadratic error (eqs.
//! 6–8).
//!
//! A slot in a day row never written reads 0.0, the value every slot
//! holds at VM creation, so the model costs what a run touches: a 2-day
//! run holds 2 SIm and 2 SIy rows, a year holds 31 and 365.
//! [`IdlenessModel::observe_batch`] feeds one hour to many models and
//! learns their weights in lockstep groups; [`IdlenessModel::observe_hour`]
//! is a batch of one. Each group member performs the same floating-point
//! operations in the same order as a model learning alone.

use dds_sim_core::time::CalendarStamp;

/// The paper's activity scaling factor σ = 1/(365·24): with the damping
/// coefficient ignored, one year of constant full activity moves an SI
/// table by a total mass of 1.
pub const SIGMA: f64 = 1.0 / (365.0 * 24.0);

/// Decrease speed of the damping coefficient `u` of eq. 4 (paper:
/// α = 0.7).
pub const ALPHA: f64 = 0.7;

/// |SI| threshold where values are considered extreme (paper: β = 0.5).
pub const BETA: f64 = 0.5;

/// Maximum gradient-descent iterations per hour ("its precision can be
/// set to not incur any overhead").
pub(crate) const MAX_GD_ITERATIONS: u32 = 32;

/// Convergence tolerance on the residual of eq. 8.
pub(crate) const GD_TOLERANCE: f64 = 1e-12;

/// ā used before the VM has ever been active (undefined in the paper;
/// 1.0 makes never-active VMs learn at full speed).
pub(crate) const INITIAL_MEAN_ACTIVITY: f64 = 1.0;

/// The four SI slot values relevant to one calendar hour, in scale order
/// `[day, week, month, year]`.
pub type SiVector = [f64; 4];

/// Tunable parameters of the idleness model. Defaults are the paper's;
/// its fixed parameters are the constants of this module.
#[derive(Debug, Clone, PartialEq)]
pub struct ImConfig {
    /// Activity scaling factor (paper: σ = 1/(365·24)).
    pub sigma: f64,
    /// Steepest-descent learning rate: the fraction of the exact
    /// line-search step applied per iteration (0 disables learning,
    /// values in (0, 2) converge).
    pub learning_rate: f64,
    /// Activity levels below this are treated as idle (quantum noise —
    /// §III-C filters "very short scheduling quanta").
    pub noise_threshold: f64,
}

impl Default for ImConfig {
    fn default() -> Self {
        ImConfig {
            sigma: SIGMA,
            learning_rate: 0.3,
            noise_threshold: 0.005,
        }
    }
}

impl ImConfig {
    /// The configuration used throughout the paper's evaluation.
    pub fn paper_default() -> Self {
        Self::default()
    }
}

/// Day-row keys: SIm's 31 days of the month, then SIy's 12 × 31 days of
/// the year, month by month.
const MONTH_DAYS: usize = 31;
const DAY_KEYS: usize = MONTH_DAYS * 13;

/// The SIm and SIy day-row keys of a calendar hour.
fn day_keys(stamp: CalendarStamp) -> (usize, usize) {
    let dm = stamp.day_of_month as usize;
    (dm, MONTH_DAYS * (1 + stamp.month as usize) + dm)
}

/// Weight-learning problems solved in lockstep by
/// [`IdlenessModel::observe_batch`].
const LANES: usize = 8;

/// A VM's idleness model.
#[derive(Debug, Clone)]
pub struct IdlenessModel {
    pub(crate) config: ImConfig,
    /// SId(h): hour-of-day scores.
    pub(crate) si_day: [f64; 24],
    /// SIw(h, dw): `si_week[dow][h]`.
    si_week: [[f64; 24]; 7],
    /// SIm(h, dm) is `rows[row_of[dm]][h]` and SIy(h, dm, m) is
    /// `rows[row_of[31·(1 + m) + dm]][h]`. A day's row is pushed when one
    /// of its slots is first written; until then its `row_of` entry is 0,
    /// and row 0 stays all-zero, so a read needs no branch.
    row_of: [u16; DAY_KEYS],
    rows: Vec<[f64; 24]>,
    /// Scale weights `[wd, ww, wm, wy]`, kept on the probability simplex.
    weights: [f64; 4],
    /// Running mean of activity levels over *active* hours (the paper's ā).
    mean_active_level: f64,
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
            row_of: [0; DAY_KEYS],
            rows: vec![[0.0; 24]],
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

    /// The running mean activity over active hours (the paper's ā); 1.0
    /// before any activity has been seen.
    pub fn mean_active_level(&self) -> f64 {
        if self.active_hours == 0 {
            INITIAL_MEAN_ACTIVITY
        } else {
            self.mean_active_level
        }
    }

    /// The SI slot values for a calendar hour, `[SId, SIw, SIm, SIy]`.
    #[inline]
    pub fn si_vector(&self, stamp: CalendarStamp) -> SiVector {
        let h = stamp.hour as usize;
        let (month, year) = day_keys(stamp);
        [
            self.si_day[h],
            self.si_week[stamp.weekday.index()][h],
            self.rows[self.row_of[month] as usize][h],
            self.rows[self.row_of[year] as usize][h],
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

    /// The day row under `key`, pushed on first write.
    fn day_row_mut(&mut self, key: usize) -> &mut [f64; 24] {
        if self.row_of[key] == 0 {
            self.row_of[key] = self.rows.len() as u16;
            self.rows.push([0.0; 24]);
        }
        &mut self.rows[self.row_of[key] as usize]
    }

    /// Feeds one completed hour into the model: updates the four SI slots
    /// (eqs. 2–5) and re-learns the weights (eqs. 6–8). A batch of one
    /// (see [`IdlenessModel::observe_batch`]).
    ///
    /// `activity_level` is the fraction of scheduler quanta the VM
    /// received during the hour, `[0, 1]`; values below the noise
    /// threshold count as idle.
    pub fn observe_hour(&mut self, stamp: CalendarStamp, activity_level: f64) {
        Self::observe_batch(stamp, [(self, activity_level)]);
    }

    /// Feeds the same completed hour into every `(model, activity level)`
    /// pair: updates each model's SI slots (eqs. 2–5), then re-learns the
    /// weights (eqs. 6–8) of up to eight models at a time in lockstep.
    ///
    /// Every model ends bit-identical to what
    /// [`IdlenessModel::observe_hour`] on it alone would give. All models
    /// of a batch share one [`ImConfig`].
    pub fn observe_batch<'a>(
        stamp: CalendarStamp,
        batch: impl IntoIterator<Item = (&'a mut IdlenessModel, f64)>,
    ) {
        let mut shared: Option<ImConfig> = None;
        let mut lanes = Lanes::default();
        // u(0), the damping of every slot still at 0.0.
        let u0 = damping(0.0);
        for (model, level) in batch {
            debug_assert!(
                *shared.get_or_insert_with(|| model.config.clone()) == model.config,
                "every model of a batch shares one ImConfig"
            );
            if let Some(descent) = model.update_slots(stamp, level, u0) {
                lanes.push(model, descent);
            }
        }
        lanes.solve();
    }

    /// Applies eqs. 2–5 for one hour, given `u0` = u(0). Returns the
    /// hour's weight-learning problem, or `None` when learning is off or
    /// there is nothing to learn from.
    fn update_slots(
        &mut self,
        stamp: CalendarStamp,
        activity_level: f64,
        u0: f64,
    ) -> Option<Descent> {
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
        let (month, year) = day_keys(stamp);
        update_slot(&mut self.si_day[h], a_star, idle, u0);
        update_slot(&mut self.si_week[dw][h], a_star, idle, u0);
        update_slot(&mut self.day_row_mut(month)[h], a_star, idle, u0);
        update_slot(&mut self.day_row_mut(year)[h], a_star, idle, u0);
        let si_new = self.si_vector(stamp);

        // Bookkeeping for ā.
        self.observed_hours += 1;
        if !idle {
            self.active_hours += 1;
            let n = self.active_hours as f64;
            self.mean_active_level += (level - self.mean_active_level) / n;
        }

        // --- eqs. 6–8: steepest descent on Q(w) = (w0ᵀ·SI' − wᵀ·SI)².
        if self.config.learning_rate <= 0.0 {
            return None; // learning disabled (ablation)
        }
        let target: f64 = w0.iter().zip(si_new.iter()).map(|(w, s)| w * s).sum();
        let norm2: f64 = si_old.iter().map(|s| s * s).sum();
        if norm2 <= f64::MIN_POSITIVE {
            // Nothing to learn from an all-zero SI vector (fresh slots).
            return None;
        }
        Some(Descent {
            w0,
            si: si_old,
            target,
            norm2,
        })
    }
}

/// The damping coefficient u(|SI|) of eq. 4: updates shrink as scores
/// get extreme.
fn damping(si_abs: f64) -> f64 {
    1.0 / (1.0 + (ALPHA * (si_abs - BETA)).exp())
}

/// Applies the eq. 5 update to one slot. `a_star` is the scaled activity
/// value; `idle` selects increment vs decrement. A slot still at 0.0, as
/// most are in a young model, damps by `u0` = u(0), the same bits
/// without an `exp()`.
fn update_slot(slot: &mut f64, a_star: f64, idle: bool, u0: f64) {
    let u = if *slot == 0.0 {
        u0
    } else {
        damping(slot.abs())
    };
    let v = a_star * u;
    *slot = (if idle { *slot + v } else { *slot - v }).clamp(-1.0, 1.0);
}

/// One model's weight-learning problem for an hour: minimize
/// `(target − wᵀ·SI)²` from `w0`, with `target = w0ᵀ·SI'`.
struct Descent {
    w0: [f64; 4],
    si: SiVector,
    target: f64,
    norm2: f64,
}

/// Up to [`LANES`] weight-learning problems, stored component-major
/// (`w[k][lane]`) and solved in lockstep. Lanes `len..` are unused.
#[derive(Default)]
struct Lanes<'a> {
    models: [Option<&'a mut IdlenessModel>; LANES],
    len: usize,
    learning_rate: f64,
    w: [[f64; LANES]; 4],
    si: [[f64; LANES]; 4],
    target: [f64; LANES],
    norm2: [f64; LANES],
}

impl<'a> Lanes<'a> {
    /// Fills the next lane; solves the group once every lane is filled.
    fn push(&mut self, model: &'a mut IdlenessModel, descent: Descent) {
        let l = self.len;
        for k in 0..4 {
            self.w[k][l] = descent.w0[k];
            self.si[k][l] = descent.si[k];
        }
        self.target[l] = descent.target;
        self.norm2[l] = descent.norm2;
        self.learning_rate = model.config.learning_rate;
        self.models[l] = Some(model);
        self.len += 1;
        if self.len == LANES {
            self.solve();
        }
    }

    /// Learns the filled lanes' weights, hands each model its projection
    /// onto the simplex, and empties every lane.
    fn solve(&mut self) {
        self.descend();
        for l in 0..self.len {
            let model = self.models[l]
                .take()
                .expect("a filled lane holds its model");
            model.weights =
                project_onto_simplex([self.w[0][l], self.w[1][l], self.w[2][l], self.w[3][l]]);
        }
        self.len = 0;
    }

    /// Steepest descent on every lane at once.
    ///
    /// The raw gradient `−2·residual·SI` has magnitude O(σ²) once SI
    /// values settle near their operating scale, which would make learning
    /// inert at the paper's σ = 1/8760. We therefore take steps relative
    /// to the *exact line-search* step of this one-dimensional quadratic,
    /// `residual·SI/‖SI‖²`: `learning_rate` is the fraction of that
    /// optimal step applied per iteration (any value in (0, 2) converges).
    ///
    /// Each lane performs the operations of a model learning alone, in
    /// the same order: `predicted` sums left to right, and the step is
    /// `learning_rate · residual / ‖SI‖²`, divided last.
    fn descend(&mut self) {
        for _ in 0..MAX_GD_ITERATIONS {
            // A full group steps at a constant width, which the compiler
            // vectorizes; a partial one, such as a batch of one, steps
            // only its filled lanes.
            let moving = if self.len == LANES {
                self.step(LANES)
            } else {
                self.step(self.len)
            };
            if !moving {
                break;
            }
        }
    }

    /// One steepest-descent iteration on lanes `0..lanes`; false when
    /// every lane has converged.
    #[inline(always)]
    fn step(&mut self, lanes: usize) -> bool {
        let Lanes {
            w,
            si,
            target,
            norm2,
            learning_rate,
            ..
        } = self;
        let mut step = [0.0; LANES];
        let mut converged = [false; LANES];
        for l in 0..lanes {
            let predicted =
                w[0][l] * si[0][l] + w[1][l] * si[1][l] + w[2][l] * si[2][l] + w[3][l] * si[3][l];
            let residual = target[l] - predicted;
            // A lane under the tolerance keeps its weights, so its
            // residual cannot change again: a lone model's `break`.
            converged[l] = residual.abs() < GD_TOLERANCE;
            step[l] = *learning_rate * residual / norm2[l];
        }
        for k in 0..4 {
            for l in 0..lanes {
                let moved = w[k][l] + step[l] * si[k][l];
                w[k][l] = if converged[l] { w[k][l] } else { moved };
            }
        }
        converged[..lanes].contains(&false)
    }
}

/// Keeps weights interpretable: non-negative, summing to 1.
fn project_onto_simplex(mut w: [f64; 4]) -> [f64; 4] {
    for wi in w.iter_mut() {
        *wi = wi.max(0.0);
    }
    let sum: f64 = w.iter().sum();
    if sum <= f64::MIN_POSITIVE {
        return [0.25; 4];
    }
    for wi in w.iter_mut() {
        *wi /= sum;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DenseModel;
    use dds_sim_core::time::CalendarStamp;
    use dds_sim_core::SimRng;
    use proptest::prelude::*;

    /// Largest |SI| across every table (bounded by 1 by construction).
    fn max_abs_si(m: &IdlenessModel) -> f64 {
        m.si_day
            .iter()
            .chain(m.si_week.iter().flatten())
            .chain(m.rows.iter().flatten())
            .fold(0.0, |acc: f64, v| acc.max(v.abs()))
    }

    /// Day rows created so far, `(SIm, SIy)`.
    fn day_rows(m: &IdlenessModel) -> (usize, usize) {
        let (month, year) = m.row_of.split_at(MONTH_DAYS);
        let created = |keys: &[u16]| keys.iter().filter(|&&r| r != 0).count();
        (created(month), created(year))
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
        // u is decreasing in |SI|: updates shrink as scores get extreme.
        assert!(damping(0.0) > damping(0.5));
        assert!(damping(0.5) > damping(1.0));
        // At |SI| = β the damping is exactly 1/2.
        assert!((damping(0.5) - 0.5).abs() < 1e-12);
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
        let u0 = damping(0.0);
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

    #[test]
    fn day_rows_are_created_on_first_write_only() {
        let mut m = IdlenessModel::with_defaults();
        assert_eq!(day_rows(&m), (0, 0));
        for hour in 0..48 {
            m.observe_hour(stamp(hour), 0.3);
        }
        assert_eq!(day_rows(&m), (2, 2));
        // A whole 365-day year visits every day of the month and of the
        // year once; a second year creates nothing more.
        for hour in 48..(2 * 8760) {
            m.observe_hour(stamp(hour), if hour % 5 == 0 { 0.4 } else { 0.0 });
            if hour == 8760 - 1 {
                assert_eq!(day_rows(&m), (31, 365));
            }
        }
        assert_eq!(day_rows(&m), (31, 365));
        assert_eq!(m.rows.len(), 1 + 31 + 365, "row 0 plus one per day");
        assert!(m.rows[0].iter().all(|&v| v == 0.0), "row 0 stays zero");
    }

    /// Days the oracle proptest starts on: the ends of January, February
    /// and the year, so its runs cross month and year boundaries.
    const BOUNDARY_DAYS: [u64; 8] = [27, 28, 29, 30, 31, 58, 363, 364];

    /// Asserts that `m` holds exactly the oracle's state at `stamps`.
    fn same_bits(
        m: &IdlenessModel,
        dense: &DenseModel,
        stamps: impl Iterator<Item = u64>,
    ) -> Result<(), TestCaseError> {
        let bits = |v: [f64; 4]| v.map(f64::to_bits);
        prop_assert_eq!(bits(m.weights()), bits(dense.weights()));
        let (observed, active, mean) = dense.counters();
        prop_assert_eq!((m.observed_hours(), m.active_hours()), (observed, active));
        prop_assert_eq!(m.mean_active_level().to_bits(), mean.to_bits());
        prop_assert_eq!(m.classify(), dense.classify());
        for h in stamps {
            let s = stamp(h);
            prop_assert_eq!(bits(m.si_vector(s)), bits(dense.si_vector(s)), "hour {}", h);
            prop_assert_eq!(m.raw_score(s).to_bits(), dense.raw_score(s).to_bits());
        }
        Ok(())
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

    proptest! {
        /// The batch entry, the one-model path and the dense oracle agree
        /// bit for bit. A run covers the same calendar hours in two
        /// consecutive years, so the second year reads SIm and SIy rows
        /// the first one wrote. Models join each year at their own hour
        /// (some skip the first) with their own activity mix, so lanes
        /// converge or clamp at different iterations; σ spans tiny
        /// scales, where residuals fall under the tolerance, to large
        /// ones, where slots clamp.
        #[test]
        fn batch_single_and_dense_oracle_agree_bit_for_bit(
            start_day in 0usize..BOUNDARY_DAYS.len(),
            hours in 24u64..120,
            sigma_exp in -4.0f64..3.5,
            learning in any::<bool>(),
            models in 1usize..=17,
            seed in any::<u64>(),
        ) {
            let cfg = ImConfig {
                sigma: SIGMA * 10f64.powf(sigma_exp),
                learning_rate: if learning { 0.3 } else { 0.0 },
                ..ImConfig::default()
            };
            let mut rng = SimRng::new(seed);
            let first = BOUNDARY_DAYS[start_day] * 24 + rng.below(24);
            let observed: Vec<u64> = (first..first + hours)
                .chain(8760 + first..8760 + first + hours)
                .collect();
            // The first observed hour of each year, per model (`hours`:
            // the model skips that year).
            let joins: Vec<[u64; 2]> = (0..models)
                .map(|k| if k == 0 { [0, 0] } else { [rng.below(hours + 1), rng.below(hours)] })
                .collect();
            let joined = |k: usize, i: usize| {
                let i = i as u64;
                joins[k][(i / hours) as usize] <= i % hours
            };
            let levels: Vec<Vec<f64>> = (0..models)
                .map(|_| {
                    let duty = rng.unit();
                    (0..observed.len())
                        .map(|_| match rng.below(8) {
                            0 => 0.001, // under the noise threshold
                            1 => 0.006, // just over it
                            _ if rng.chance(duty) => rng.unit(),
                            _ => 0.0,
                        })
                        .collect()
                })
                .collect();
            let mut batched = vec![IdlenessModel::new(cfg.clone()); models];
            let mut single = batched.clone();
            let mut dense = vec![DenseModel::new(cfg); models];
            for (i, &h) in observed.iter().enumerate() {
                IdlenessModel::observe_batch(
                    stamp(h),
                    batched
                        .iter_mut()
                        .enumerate()
                        .filter(|&(k, _)| joined(k, i))
                        .map(|(k, m)| (m, levels[k][i])),
                );
                for k in (0..models).filter(|&k| joined(k, i)) {
                    single[k].observe_hour(stamp(h), levels[k][i]);
                    dense[k].observe_hour(stamp(h), levels[k][i]);
                    // Projection can absorb a one-ulp step difference
                    // within hours, so the weights are compared hourly.
                    let w = dense[k].weights().map(f64::to_bits);
                    prop_assert_eq!(batched[k].weights().map(f64::to_bits), w, "hour {}", h);
                    prop_assert_eq!(single[k].weights().map(f64::to_bits), w, "hour {}", h);
                }
            }
            let unseen = [first + hours, 8760 + first - 72, 2 * 8760 + first, 8760 + first + 24 * 40];
            for k in 0..models {
                let stamps = || observed.iter().copied().chain(unseen);
                same_bits(&batched[k], &dense[k], stamps())?;
                same_bits(&single[k], &dense[k], stamps())?;
            }
        }
    }
}
