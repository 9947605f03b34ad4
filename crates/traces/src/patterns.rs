//! Workload pattern generators (Table II of the paper, plus the VM classes
//! from §I/§III-A).
//!
//! Each [`TracePattern`] generates an hourly [`VmTrace`] of any length. The
//! deterministic patterns (backup, comic strips, seasonal site) match Table
//! II's descriptions exactly; the stochastic ones are parameterized and take
//! a seeded RNG so experiments stay reproducible.

use crate::trace::VmTrace;
use dds_sim_core::time::{CalendarStamp, Weekday};
use dds_sim_core::SimRng;

/// A generator of hourly VM activity traces.
#[derive(Debug, Clone, PartialEq)]
pub enum TracePattern {
    /// Table II(a): a backup service running every day at the given hour
    /// (2 a.m. in the paper) for `duration_hours` hours.
    DailyBackup {
        /// Hour of day at which the backup starts (0–23).
        hour: u8,
        /// How many consecutive hours the backup runs.
        duration_hours: u8,
        /// Activity level while the backup runs.
        intensity: f64,
    },
    /// Table II(b): an online comic-strip site publishing three times a
    /// week (Mon/Wed/Fri in this reproduction), with **no publication in
    /// July or August**. Activity spans the publication hour plus a reader
    /// tail in the following hour.
    ComicStrips {
        /// Hour of day of publication (0–23).
        hour: u8,
        /// Activity level during the publication hour.
        intensity: f64,
    },
    /// The paper's running example (§III-A): a national diploma-results
    /// website "mostly used at some specific hours (2 p.m., 3 p.m.) of a
    /// specific day (20th) of one month (July), every year".
    SeasonalResults {
        /// Month of the event, zero-based (6 = July).
        month: u8,
        /// Day of month, zero-based (19 = the 20th).
        day_of_month: u8,
        /// Active hours of that day.
        hours: Vec<u8>,
        /// Activity level during the event.
        intensity: f64,
    },
    /// An enterprise business-hours application: active weekdays from
    /// `start_hour` (inclusive) to `end_hour` (exclusive), idle on
    /// weekends. A typical private-cloud LLMI workload.
    BusinessHours {
        /// First active hour of the working day.
        start_hour: u8,
        /// First idle hour after the working day.
        end_hour: u8,
        /// Mean activity level during working hours.
        intensity: f64,
        /// Relative jitter applied to each active hour's level.
        jitter: f64,
    },
    /// Table II(h): a long-lived mostly-used VM (e.g. a popular web
    /// service) — almost always active with fluctuating load.
    Llmu {
        /// Mean activity level.
        mean: f64,
        /// Standard deviation of the hourly level.
        std_dev: f64,
        /// Probability that a given hour is (exceptionally) fully idle.
        idle_chance: f64,
    },
    /// A short-lived mostly-used VM (e.g. a MapReduce task): fully active
    /// for `lifetime_hours`, then gone (idle forever after).
    Slmu {
        /// Hours of solid activity before the VM finishes.
        lifetime_hours: usize,
        /// Activity level while alive.
        intensity: f64,
    },
    /// Poisson-burst LLMI: sporadic independent active hours at the given
    /// hourly probability. The "no structure" control case — an idleness
    /// model cannot beat the base rate here, which bounds achievable
    /// precision.
    RandomBursts {
        /// Per-hour probability of being active.
        duty: f64,
        /// Activity level when active.
        intensity: f64,
    },
    /// An office-style diurnal curve (scenario catalog): weekday activity
    /// ramps up from `start_hour`, dips over lunch, peaks again in the
    /// afternoon and tails off after `end_hour`; weekends carry only a
    /// faint residual load. Softer than [`TracePattern::BusinessHours`] —
    /// the edges are gradients, not steps, so the idleness model sees a
    /// realistic shoulder instead of a square wave.
    DiurnalOffice {
        /// First working hour of the ramp-up (e.g. 8).
        start_hour: u8,
        /// Hour the evening tail begins (e.g. 18).
        end_hour: u8,
        /// Activity level at the morning/afternoon peaks.
        peak: f64,
        /// Fraction of `peak` that weekends retain (residual load).
        weekend_level: f64,
    },
    /// A flash-crowd service (scenario catalog): a faint base load,
    /// interrupted by rare crowd episodes that spike to `crowd_intensity`
    /// and decay exponentially over `crowd_hours`. Episodes start at
    /// Poisson-random hours, so neither the idleness model nor the
    /// suspending module can anticipate them — the stress case for
    /// packet-triggered wakes.
    FlashCrowd {
        /// Background activity level between crowds.
        base: f64,
        /// Expected crowd episodes per week.
        crowds_per_week: f64,
        /// E-folding length of an episode, in hours.
        crowd_hours: u8,
        /// Activity level at the head of an episode.
        crowd_intensity: f64,
    },
    /// A batch-queue worker (scenario catalog): jobs accumulate during the
    /// day and the queue is drained nightly starting at `drain_hour`, one
    /// job per hour. The queue depth is drawn per-night (Poisson around
    /// `mean_jobs`), so the *start* of the nightly window is predictable
    /// (timer-friendly) while its *length* varies night to night.
    BatchQueue {
        /// Hour of day the nightly drain starts (0–23).
        drain_hour: u8,
        /// Mean number of queued jobs per night (1 job = 1 active hour).
        mean_jobs: f64,
        /// Activity level while draining.
        intensity: f64,
    },
    /// A leisure/streaming service (scenario catalog): heavy on weekends
    /// (midday through the evening), with a lighter weekday-evening
    /// window — the mirror image of [`TracePattern::DiurnalOffice`], so
    /// colocating the two patterns is exactly the win the paper's
    /// pattern-aware placement is after.
    WeekendHeavy {
        /// Activity level during weekend prime time.
        weekend_peak: f64,
        /// Activity level during the weekday-evening window.
        weekday_evening: f64,
    },
    /// Always idle (useful as a control and for capacity-only tests).
    AlwaysIdle,
}

impl TracePattern {
    /// Generates `hours` hours of activity starting at the simulation
    /// epoch. Stochastic patterns draw from `rng`; deterministic patterns
    /// ignore it.
    ///
    /// The episodic patterns ([`TracePattern::FlashCrowd`],
    /// [`TracePattern::BatchQueue`]) carry state *across* hours (an
    /// episode in flight, a queue being drained), so they are generated
    /// here as a whole series; their [`level_for`](Self::level_for) view
    /// exposes only the memoryless component.
    pub fn generate(&self, hours: usize, rng: &mut SimRng) -> VmTrace {
        let levels = match *self {
            TracePattern::FlashCrowd {
                base,
                crowds_per_week,
                crowd_hours,
                crowd_intensity,
            } => {
                // One Bernoulli draw per hour keeps the stream layout
                // stable: an episode in flight never changes how many
                // draws later hours consume.
                let p = (crowds_per_week / (7.0 * 24.0)).clamp(0.0, 1.0);
                let e_fold = crowd_hours.max(1) as f64;
                let mut age: Option<f64> = None;
                (0..hours)
                    .map(|_| {
                        if rng.chance(p) {
                            age = Some(0.0);
                        }
                        let episode = match age {
                            Some(a) => {
                                let level = crowd_intensity * (-a / e_fold).exp();
                                age = if level < 0.05 { None } else { Some(a + 1.0) };
                                level
                            }
                            None => 0.0,
                        };
                        if episode >= 0.05 {
                            episode.clamp(0.0, 1.0)
                        } else {
                            base
                        }
                    })
                    .collect()
            }
            TracePattern::BatchQueue {
                drain_hour,
                mean_jobs,
                intensity,
            } => {
                let mut queue: u64 = 0;
                (0..hours as u64)
                    .map(|h| {
                        let stamp = CalendarStamp::from_hour_index(h);
                        if stamp.hour == drain_hour % 24 {
                            // The day's accumulated queue arrives; anything
                            // left from an overlong previous night is
                            // still in front of it.
                            queue += rng.poisson(mean_jobs.max(0.0));
                        }
                        if queue > 0 {
                            queue -= 1;
                            intensity
                        } else {
                            0.0
                        }
                    })
                    .collect()
            }
            _ => (0..hours as u64)
                .map(|h| {
                    let stamp = CalendarStamp::from_hour_index(h);
                    self.level_for(stamp, rng)
                })
                .collect(),
        };
        VmTrace::new(self.label(), levels)
    }

    /// A short human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            TracePattern::DailyBackup { hour, .. } => format!("daily-backup@{hour:02}h"),
            TracePattern::ComicStrips { .. } => "comic-strips".into(),
            TracePattern::SeasonalResults { .. } => "seasonal-results".into(),
            TracePattern::BusinessHours { .. } => "business-hours".into(),
            TracePattern::Llmu { .. } => "llmu".into(),
            TracePattern::Slmu { .. } => "slmu".into(),
            TracePattern::RandomBursts { .. } => "random-bursts".into(),
            TracePattern::DiurnalOffice { .. } => "diurnal-office".into(),
            TracePattern::FlashCrowd { .. } => "flash-crowd".into(),
            TracePattern::BatchQueue { drain_hour, .. } => {
                format!("batch-queue@{drain_hour:02}h")
            }
            TracePattern::WeekendHeavy { .. } => "weekend-heavy".into(),
            TracePattern::AlwaysIdle => "always-idle".into(),
        }
    }

    /// The activity level for a single calendar hour.
    ///
    /// For the episodic patterns ([`TracePattern::FlashCrowd`],
    /// [`TracePattern::BatchQueue`]) this is the *memoryless* view — the
    /// background load and the episode trigger, without the multi-hour
    /// episode tail that only [`generate`](Self::generate) can carry
    /// across hours.
    pub fn level_for(&self, stamp: CalendarStamp, rng: &mut SimRng) -> f64 {
        match *self {
            TracePattern::DailyBackup {
                hour,
                duration_hours,
                intensity,
            } => {
                let end = hour as u16 + duration_hours.max(1) as u16;
                let in_window = (stamp.hour as u16) >= hour as u16 && (stamp.hour as u16) < end;
                if in_window {
                    intensity
                } else {
                    0.0
                }
            }
            TracePattern::ComicStrips { hour, intensity } => {
                // July (6) and August (7) are publication holidays.
                if stamp.month == 6 || stamp.month == 7 {
                    return 0.0;
                }
                let publication_day = matches!(
                    stamp.weekday,
                    Weekday::Monday | Weekday::Wednesday | Weekday::Friday
                );
                if !publication_day {
                    return 0.0;
                }
                // Publication spike, then reader traffic decaying over
                // the rest of the day (readers arrive all day long, which
                // is what makes this workload hard to predict: Fig. 4(b)
                // caps near 82 % in the paper).
                if stamp.hour < hour {
                    return 0.0;
                }
                let age = (stamp.hour - hour) as f64;
                if age == 0.0 {
                    intensity
                } else {
                    let tail = intensity * 0.5 * (-age / 5.0).exp();
                    if tail < 0.02 {
                        0.0
                    } else {
                        tail
                    }
                }
            }
            TracePattern::SeasonalResults {
                month,
                day_of_month,
                ref hours,
                intensity,
            } => {
                if stamp.month == month
                    && stamp.day_of_month == day_of_month
                    && hours.contains(&stamp.hour)
                {
                    intensity
                } else {
                    0.0
                }
            }
            TracePattern::BusinessHours {
                start_hour,
                end_hour,
                intensity,
                jitter,
            } => {
                if stamp.weekday.is_weekend() {
                    return 0.0;
                }
                if stamp.hour >= start_hour && stamp.hour < end_hour {
                    let j = 1.0 + jitter * (rng.unit() * 2.0 - 1.0);
                    (intensity * j).clamp(0.01, 1.0)
                } else {
                    0.0
                }
            }
            TracePattern::Llmu {
                mean,
                std_dev,
                idle_chance,
            } => {
                if rng.chance(idle_chance) {
                    0.0
                } else {
                    rng.normal(mean, std_dev).clamp(0.05, 1.0)
                }
            }
            TracePattern::Slmu {
                lifetime_hours,
                intensity,
            } => {
                let global_hour = stamp.to_time().hour_index() as usize;
                if global_hour < lifetime_hours {
                    intensity
                } else {
                    0.0
                }
            }
            TracePattern::RandomBursts { duty, intensity } => {
                if rng.chance(duty) {
                    intensity
                } else {
                    0.0
                }
            }
            TracePattern::DiurnalOffice {
                start_hour,
                end_hour,
                peak,
                weekend_level,
            } => {
                let h = stamp.hour;
                if stamp.weekday.is_weekend() {
                    // Faint residual load over the midday hours only, so
                    // the weekly duty cycle stays in the LLMI band.
                    let level = peak * weekend_level;
                    return if (12..18).contains(&h) && level >= 0.01 {
                        level.clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                }
                let start = start_hour.min(23);
                let end = end_hour.clamp(start.saturating_add(1), 24);
                // Piecewise weekday shape: ramp-in shoulder, morning peak,
                // lunch dip, afternoon plateau, two-hour tail-off.
                let shape = if h < start || h >= end.saturating_add(2) {
                    0.0
                } else if h == start {
                    0.5
                } else if h == 12 && start < 12 && end > 13 {
                    0.65
                } else if h < end {
                    if h < 12 {
                        1.0
                    } else {
                        0.9
                    }
                } else if h == end {
                    0.5
                } else {
                    0.25
                };
                if shape == 0.0 {
                    0.0
                } else {
                    let jitter = 1.0 + 0.1 * (rng.unit() * 2.0 - 1.0);
                    (peak * shape * jitter).clamp(0.01, 1.0)
                }
            }
            TracePattern::FlashCrowd {
                base,
                crowds_per_week,
                crowd_intensity,
                ..
            } => {
                let p = (crowds_per_week / (7.0 * 24.0)).clamp(0.0, 1.0);
                if rng.chance(p) {
                    crowd_intensity.clamp(0.0, 1.0)
                } else {
                    base
                }
            }
            TracePattern::BatchQueue {
                drain_hour,
                mean_jobs,
                intensity,
            } => {
                // Memoryless view: the drain's first hour is active
                // whenever the night's queue is non-empty.
                if stamp.hour == drain_hour % 24 && rng.poisson(mean_jobs.max(0.0)) > 0 {
                    intensity
                } else {
                    0.0
                }
            }
            TracePattern::WeekendHeavy {
                weekend_peak,
                weekday_evening,
            } => {
                let h = stamp.hour;
                let (level, shape) = if stamp.weekday.is_weekend() {
                    let shape = if !(10..23).contains(&h) {
                        0.0
                    } else if h < 12 {
                        0.6
                    } else if h >= 22 {
                        0.5
                    } else {
                        1.0
                    };
                    (weekend_peak, shape)
                } else if (19..23).contains(&h) {
                    (weekday_evening, 1.0)
                } else {
                    (0.0, 0.0)
                };
                if level * shape < 0.01 {
                    0.0
                } else {
                    let jitter = 1.0 + 0.1 * (rng.unit() * 2.0 - 1.0);
                    (level * shape * jitter).clamp(0.01, 1.0)
                }
            }
            TracePattern::AlwaysIdle => 0.0,
        }
    }

    /// The Table II(a) configuration: daily backup at 2 a.m.
    pub fn paper_daily_backup() -> TracePattern {
        TracePattern::DailyBackup {
            hour: 2,
            duration_hours: 1,
            intensity: 0.9,
        }
    }

    /// The Table II(b) configuration: comic strips, thrice weekly, summer
    /// holidays.
    pub fn paper_comic_strips() -> TracePattern {
        TracePattern::ComicStrips {
            hour: 8,
            intensity: 0.7,
        }
    }

    /// The §III-A diploma-results site: July 20th, 2 p.m. and 3 p.m.
    pub fn paper_seasonal_results() -> TracePattern {
        TracePattern::SeasonalResults {
            month: 6,
            day_of_month: 19,
            hours: vec![14, 15],
            intensity: 1.0,
        }
    }

    /// The Table II(h) LLMU configuration (always active).
    pub fn paper_llmu() -> TracePattern {
        TracePattern::Llmu {
            mean: 0.75,
            std_dev: 0.12,
            idle_chance: 0.0,
        }
    }

    /// The scenario-catalog office day: 8 h–18 h weekdays, quiet weekends.
    pub fn catalog_diurnal_office() -> TracePattern {
        TracePattern::DiurnalOffice {
            start_hour: 8,
            end_hour: 18,
            peak: 0.7,
            weekend_level: 0.05,
        }
    }

    /// The scenario-catalog flash-crowd service: ~2 crowds a week over a
    /// faint base load.
    pub fn catalog_flash_crowd() -> TracePattern {
        TracePattern::FlashCrowd {
            base: 0.04,
            crowds_per_week: 2.0,
            crowd_hours: 3,
            crowd_intensity: 0.95,
        }
    }

    /// The scenario-catalog batch queue: nightly drain at 1 a.m., four
    /// jobs a night on average.
    pub fn catalog_batch_queue() -> TracePattern {
        TracePattern::BatchQueue {
            drain_hour: 1,
            mean_jobs: 4.0,
            intensity: 0.9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim_core::time::MONTH_LENGTHS;

    fn rng() -> SimRng {
        SimRng::new(1234)
    }

    const YEAR: usize = 365 * 24;

    #[test]
    fn daily_backup_runs_once_a_day() {
        let t = TracePattern::paper_daily_backup().generate(7 * 24, &mut rng());
        let active: Vec<usize> = (0..t.hours()).filter(|&h| t.levels()[h] > 0.0).collect();
        assert_eq!(active.len(), 7, "one active hour per day");
        for (day, &h) in active.iter().enumerate() {
            assert_eq!(h, day * 24 + 2, "always at 02:00");
        }
        assert!((t.duty_cycle() - 1.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn backup_duration_extends_window() {
        let p = TracePattern::DailyBackup {
            hour: 22,
            duration_hours: 2,
            intensity: 1.0,
        };
        let t = p.generate(24, &mut rng());
        assert_eq!(t.levels()[22], 1.0);
        assert_eq!(t.levels()[23], 1.0);
        assert_eq!(t.levels()[21], 0.0);
    }

    #[test]
    fn comic_strips_publish_mwf_outside_summer() {
        let t = TracePattern::paper_comic_strips().generate(YEAR, &mut rng());
        // Epoch is a Monday; hour 8 of day 0 must be active.
        assert!(t.levels()[8] > 0.0);
        // Tuesday (day 1) must be idle at hour 8.
        assert_eq!(t.levels()[24 + 8], 0.0);
        // Wednesday and Friday active.
        assert!(t.levels()[2 * 24 + 8] > 0.0);
        assert!(t.levels()[4 * 24 + 8] > 0.0);
        // Reader tail at hour 9 is smaller but nonzero.
        assert!(t.levels()[9] > 0.0 && t.levels()[9] < t.levels()[8]);
    }

    #[test]
    fn comic_strips_idle_in_july_august() {
        let t = TracePattern::paper_comic_strips().generate(YEAR, &mut rng());
        let days_before_july: u64 = MONTH_LENGTHS[..6].iter().map(|&l| l as u64).sum();
        let days_before_sept = days_before_july + 31 + 31;
        for day in days_before_july..days_before_sept {
            for h in 0..24 {
                assert_eq!(
                    t.level_at_hour(day * 24 + h),
                    0.0,
                    "summer day {day} hour {h} must be idle"
                );
            }
        }
        // First Monday of September is active again.
        let mut d = days_before_sept;
        while !d.is_multiple_of(7) {
            d += 1;
        }
        assert!(t.level_at_hour(d * 24 + 8) > 0.0);
    }

    #[test]
    fn seasonal_results_fires_two_hours_a_year() {
        let t = TracePattern::paper_seasonal_results().generate(YEAR * 2, &mut rng());
        let active: Vec<usize> = (0..t.hours()).filter(|&h| t.levels()[h] > 0.0).collect();
        assert_eq!(active.len(), 4, "two hours per year over two years");
        let days_before_july: usize = MONTH_LENGTHS[..6].iter().map(|&l| l as usize).sum();
        let expected = (days_before_july + 19) * 24 + 14;
        assert_eq!(active[0], expected);
        assert_eq!(active[1], expected + 1);
        assert_eq!(active[2], YEAR + expected);
    }

    #[test]
    fn business_hours_idle_on_weekends_and_nights() {
        let p = TracePattern::BusinessHours {
            start_hour: 9,
            end_hour: 17,
            intensity: 0.5,
            jitter: 0.2,
        };
        let t = p.generate(14 * 24, &mut rng());
        // Monday 10:00 active.
        assert!(t.levels()[10] > 0.0);
        // Monday 3:00 idle.
        assert_eq!(t.levels()[3], 0.0);
        // Saturday (day 5) all idle.
        for h in 0..24 {
            assert_eq!(t.levels()[5 * 24 + h], 0.0);
        }
        // Duty cycle = 5 days * 8h / (7 * 24) ≈ 0.238.
        assert!((t.duty_cycle() - 40.0 / 168.0).abs() < 1e-9);
    }

    #[test]
    fn llmu_is_almost_always_active() {
        let t = TracePattern::paper_llmu().generate(YEAR, &mut rng());
        assert!(t.duty_cycle() > 0.999);
        assert!(t.mean_level() > 0.5 && t.mean_level() < 0.95);
    }

    #[test]
    fn llmu_idle_chance_produces_gaps() {
        let p = TracePattern::Llmu {
            mean: 0.8,
            std_dev: 0.1,
            idle_chance: 0.3,
        };
        let t = p.generate(10_000, &mut rng());
        assert!((t.duty_cycle() - 0.7).abs() < 0.03);
    }

    #[test]
    fn slmu_dies_after_lifetime() {
        let p = TracePattern::Slmu {
            lifetime_hours: 5,
            intensity: 1.0,
        };
        let t = p.generate(24, &mut rng());
        assert_eq!(&t.levels()[..5], &[1.0; 5]);
        assert!(t.levels()[5..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn random_bursts_hit_requested_duty() {
        let p = TracePattern::RandomBursts {
            duty: 0.15,
            intensity: 0.6,
        };
        let t = p.generate(20_000, &mut rng());
        assert!((t.duty_cycle() - 0.15).abs() < 0.02);
    }

    #[test]
    fn always_idle_is_idle() {
        let t = TracePattern::AlwaysIdle.generate(100, &mut rng());
        assert_eq!(t.duty_cycle(), 0.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = TracePattern::Llmu {
            mean: 0.6,
            std_dev: 0.2,
            idle_chance: 0.1,
        };
        let a = p.generate(500, &mut SimRng::new(9));
        let b = p.generate(500, &mut SimRng::new(9));
        assert_eq!(a.levels(), b.levels());
        let c = p.generate(500, &mut SimRng::new(10));
        assert_ne!(a.levels(), c.levels());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            TracePattern::paper_daily_backup().label(),
            "daily-backup@02h"
        );
        assert_eq!(TracePattern::paper_comic_strips().label(), "comic-strips");
        assert_eq!(TracePattern::AlwaysIdle.label(), "always-idle");
        assert_eq!(
            TracePattern::catalog_diurnal_office().label(),
            "diurnal-office"
        );
        assert_eq!(TracePattern::catalog_flash_crowd().label(), "flash-crowd");
        assert_eq!(
            TracePattern::catalog_batch_queue().label(),
            "batch-queue@01h"
        );
    }

    #[test]
    fn diurnal_office_has_workday_shape() {
        let t = TracePattern::catalog_diurnal_office().generate(14 * 24, &mut rng());
        // Monday: idle before the ramp, shoulder at 8, peak mid-morning,
        // lunch dip, tail after 18, idle at night.
        assert_eq!(t.levels()[6], 0.0);
        assert!(t.levels()[8] > 0.0 && t.levels()[8] < t.levels()[10]);
        assert!(t.levels()[12] < t.levels()[10], "lunch dip");
        assert!(t.levels()[18] > 0.0 && t.levels()[18] < t.levels()[15]);
        assert_eq!(t.levels()[23], 0.0);
        // Weekend (days 5–6): only the faint residual.
        for h in 0..24 {
            assert!(t.levels()[5 * 24 + h] <= 0.05 * 0.7 * 1.2 + 1e-9);
        }
        // Plenty of recurring structure for the idleness model.
        assert!(t.duty_cycle() > 0.2 && t.duty_cycle() < 0.6);
    }

    #[test]
    fn flash_crowd_episodes_spike_and_decay() {
        let p = TracePattern::catalog_flash_crowd();
        let t = p.generate(26 * 7 * 24, &mut rng());
        let spikes: Vec<usize> = (0..t.hours()).filter(|&h| t.levels()[h] > 0.9).collect();
        // ~2 a week over 26 weeks; Poisson slack on both sides.
        assert!(
            (20..=110).contains(&spikes.len()),
            "spike count {}",
            spikes.len()
        );
        // Right after a spike head the episode is still elevated above
        // base, then decays.
        let head = spikes[0];
        assert!(t.levels()[head + 1] > 0.2);
        assert!(t.levels()[head + 1] > t.levels()[head + 2]);
        // Between episodes the service idles at base.
        let base_hours = (0..t.hours())
            .filter(|&h| (t.levels()[h] - 0.04).abs() < 1e-12)
            .count();
        assert!(base_hours > t.hours() / 2, "base hours {base_hours}");
    }

    #[test]
    fn batch_queue_drains_nightly_from_its_start_hour() {
        let p = TracePattern::catalog_batch_queue();
        let t = p.generate(60 * 24, &mut rng());
        for day in 0..60u64 {
            // Hour 0 of each day precedes the 1 a.m. drain; it can only be
            // active if the previous night's queue ran long.
            let drain_start = day * 24 + 1;
            let next = t.level_at_hour(drain_start);
            // The drain is all-or-nothing per hour.
            assert!(next == 0.0 || next == 0.9);
        }
        // Mean ~4 jobs/night at 1 job/hour → duty near 4/24.
        assert!(
            (t.duty_cycle() - 4.0 / 24.0).abs() < 0.04,
            "duty {}",
            t.duty_cycle()
        );
        // Active hours form contiguous runs starting at the drain hour.
        let active_at_1am = (0..60u64)
            .filter(|d| t.level_at_hour(d * 24 + 1) > 0.0)
            .count();
        assert!(active_at_1am > 50, "most nights have work: {active_at_1am}");
    }

    #[test]
    fn weekend_heavy_mirrors_the_office_week() {
        let t = TracePattern::WeekendHeavy {
            weekend_peak: 0.8,
            weekday_evening: 0.35,
        }
        .generate(14 * 24, &mut rng());
        // Saturday (day 5) prime time busy; Monday morning idle.
        assert!(t.levels()[5 * 24 + 15] > 0.5);
        assert_eq!(t.levels()[10], 0.0);
        // Weekday evening window lighter than weekend prime time.
        assert!(t.levels()[20] > 0.0 && t.levels()[20] < t.levels()[5 * 24 + 15]);
        // Nights idle everywhere.
        assert_eq!(t.levels()[3], 0.0);
        assert_eq!(t.levels()[5 * 24 + 3], 0.0);
    }

    #[test]
    fn episodic_patterns_are_deterministic_per_seed() {
        for p in [
            TracePattern::catalog_flash_crowd(),
            TracePattern::catalog_batch_queue(),
            TracePattern::catalog_diurnal_office(),
        ] {
            let a = p.generate(2_000, &mut SimRng::new(77));
            let b = p.generate(2_000, &mut SimRng::new(77));
            assert_eq!(a.levels(), b.levels(), "{}", p.label());
        }
    }
}
