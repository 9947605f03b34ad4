//! Predict-then-observe evaluation of an idleness model over a trace.
//!
//! This is the experimental loop behind Fig. 4: for every hour of a trace,
//! first ask the model whether the VM will be idle during that hour, then
//! reveal the truth and update the model. Scores are bucketed into windows
//! so quality can be plotted over (simulated) years.

use crate::metrics::{WindowScores, WindowedEvaluation};
use crate::model::IdlenessModel;
use dds_sim_core::time::CalendarStamp;
use dds_traces::VmTrace;

/// Runs a fresh pass of `model` over `hours` hours of `trace`
/// (wrapping if the trace is shorter), recording per-window scores.
///
/// Returns the completed windows and leaves `model` trained, so callers
/// can continue using it (the testbed does exactly that).
pub fn evaluate_model_on_trace(
    model: &mut IdlenessModel,
    trace: &VmTrace,
    hours: u64,
    window_hours: u64,
) -> Vec<WindowScores> {
    let mut eval = WindowedEvaluation::new(window_hours);
    let noise = model.config().noise_threshold;
    for hour in 0..hours {
        let stamp = CalendarStamp::from_hour_index(hour);
        let predicted_idle = model.predicts_idle(stamp);
        let level = trace.level_at_hour(hour);
        let actually_idle = level < noise;
        eval.record(predicted_idle, actually_idle);
        model.observe_hour(stamp, level);
    }
    eval.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ImConfig;
    use dds_sim_core::SimRng;
    use dds_traces::TracePattern;

    const YEAR: u64 = 365 * 24;
    /// Fig. 4 plots over three years.
    const THREE_YEARS: u64 = 3 * YEAR;
    /// Two-week scoring windows.
    const WINDOW: u64 = 14 * 24;

    fn late_f_measure(windows: &[WindowScores], tail_fraction: f64) -> f64 {
        let skip = (windows.len() as f64 * (1.0 - tail_fraction)) as usize;
        let tail = &windows[skip..];
        let mut m = crate::metrics::ConfusionMatrix::new();
        for w in tail {
            m.merge(&w.matrix);
        }
        m.f_measure()
    }

    #[test]
    fn daily_backup_reaches_high_f_measure() {
        // Fig. 4(a): "the IM provides very good prediction results, with an
        // F-measure of more than 97 % after a few weeks".
        let trace = TracePattern::paper_daily_backup().generate(YEAR as usize, &mut SimRng::new(1));
        let mut model = IdlenessModel::with_defaults();
        let windows = evaluate_model_on_trace(&mut model, &trace, THREE_YEARS, WINDOW);
        let f = late_f_measure(&windows, 0.5);
        assert!(f > 0.97, "late F-measure {f}");
    }

    #[test]
    fn ramp_up_then_stable() {
        // "there is a short ramp-up at the beginning of each curve".
        let trace = TracePattern::paper_daily_backup().generate(YEAR as usize, &mut SimRng::new(1));
        let mut model = IdlenessModel::with_defaults();
        let windows = evaluate_model_on_trace(&mut model, &trace, YEAR, WINDOW);
        let first = windows.first().unwrap().f_measure();
        let last = windows.last().unwrap().f_measure();
        assert!(
            last > first,
            "quality must improve from {first} to beyond; got {last}"
        );
        assert!(last > 0.97);
    }

    #[test]
    fn llmu_specificity_is_near_one() {
        // Fig. 4(h): "the model perfectly and quickly recognizes such
        // workloads (Specificity is very close to 1)".
        let trace = TracePattern::paper_llmu().generate(YEAR as usize, &mut SimRng::new(2));
        let mut model = IdlenessModel::with_defaults();
        let windows = evaluate_model_on_trace(&mut model, &trace, YEAR, WINDOW);
        let late = &windows[windows.len() / 2..];
        let mut m = crate::metrics::ConfusionMatrix::new();
        for w in late {
            m.merge(&w.matrix);
        }
        assert!(m.specificity() > 0.99, "specificity {}", m.specificity());
    }

    #[test]
    fn real_traces_learn_well() {
        // Fig. 4(c–g): F-measure above ~0.9 once learned.
        let rng = SimRng::new(3);
        for idx in 1..=5usize {
            let trace = dds_traces::nutanix_trace(idx, YEAR as usize, &rng);
            let mut model = IdlenessModel::with_defaults();
            let windows = evaluate_model_on_trace(&mut model, &trace, THREE_YEARS, WINDOW);
            let f = late_f_measure(&windows, 0.5);
            assert!(f > 0.90, "trace {idx}: late F-measure {f}");
        }
    }

    #[test]
    fn comic_strips_learn_holidays_eventually() {
        // Fig. 4(b): learning the July–August holiday takes ~2 years; the
        // final F-measure is ≈0.82+ and year 3 beats year 1.
        let trace =
            TracePattern::paper_comic_strips().generate(THREE_YEARS as usize, &mut SimRng::new(4));
        let mut model = IdlenessModel::with_defaults();
        let windows = evaluate_model_on_trace(&mut model, &trace, THREE_YEARS, WINDOW);
        let per_year = windows.len() / 3;
        let year = |i: usize| {
            let mut m = crate::metrics::ConfusionMatrix::new();
            for w in &windows[i * per_year..(i + 1) * per_year] {
                m.merge(&w.matrix);
            }
            m
        };
        let y1 = year(0).f_measure();
        let y3 = year(2).f_measure();
        // The paper's Fig. 4(b) plateaus around 0.82 once the holidays
        // are learned; year 3 is described as "more stable" rather than
        // strictly better, so allow small regression noise.
        assert!(
            y3 >= y1 - 0.02,
            "year 3 ({y3}) must not be much worse than year 1 ({y1})"
        );
        assert!((0.80..0.97).contains(&y3), "year-3 F-measure {y3}");
    }

    #[test]
    fn seasonal_yearly_event_is_recorded_on_the_yearly_scale() {
        // The paper's running example: a diploma-results site active two
        // hours on July 20th, every year. Two events are far too few to
        // flip the prediction (the hour is idle 363 days a year), but the
        // *yearly* SI slot must be the one that records the event: after
        // two years it is the most negative signal the model holds for
        // that calendar hour.
        let trace = TracePattern::paper_seasonal_results()
            .generate((2 * YEAR) as usize, &mut SimRng::new(8));
        let mut model = IdlenessModel::with_defaults();
        let windows = evaluate_model_on_trace(&mut model, &trace, 2 * YEAR, WINDOW);
        // Nearly always idle → F stays essentially perfect.
        let f = late_f_measure(&windows, 0.5);
        assert!(f > 0.99, "F {f}");
        // Inspect the SI vector at the event hour (July 20th, 14:00 of
        // year 2): days before July = 181; the yearly component must be
        // negative and the deepest of the four.
        let days_before_event = 2 * 365 + 181 + 19;
        let stamp =
            dds_sim_core::time::CalendarStamp::from_hour_index(days_before_event as u64 * 24 + 14);
        let si = model.si_vector(stamp);
        assert!(si[3] < 0.0, "yearly slot records the event: {si:?}");
        assert!(
            si[3] < si[0] && si[3] < si[1] && si[3] < si[2],
            "yearly slot is the deepest: {si:?}"
        );
        // Still predicted idle — two observations cannot outweigh 700+
        // idle days (the honest limit of the technique for yearly events).
        assert!(model.predicts_idle(stamp));
    }

    #[test]
    fn weight_learning_beats_uniform_weights_on_weekly_pattern() {
        // Ablation: a workload whose signal is on the weekday scale.
        // Learned weights must not lose to frozen uniform weights.
        let pattern = TracePattern::ComicStrips {
            hour: 8,
            intensity: 0.7,
        };
        let trace = pattern.generate(THREE_YEARS as usize, &mut SimRng::new(6));

        let mut learned = IdlenessModel::with_defaults();
        let lw = evaluate_model_on_trace(&mut learned, &trace, THREE_YEARS, WINDOW);

        let frozen_cfg = ImConfig {
            learning_rate: 0.0, // disable weight learning
            ..ImConfig::default()
        };
        let mut frozen = IdlenessModel::new(frozen_cfg);
        let fw = evaluate_model_on_trace(&mut frozen, &trace, THREE_YEARS, WINDOW);

        let lf = late_f_measure(&lw, 0.33);
        let ff = late_f_measure(&fw, 0.33);
        assert!(
            lf >= ff - 0.02,
            "learned weights ({lf}) must not lose to uniform ({ff})"
        );
    }
}
