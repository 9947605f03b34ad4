//! Simulated time and calendar arithmetic.
//!
//! Time is measured in integer **milliseconds** since the simulation epoch.
//! Millisecond resolution is required because the suspend/resume path works
//! at sub-second latencies (a quick resume takes ~800 ms in the paper) while
//! the control plane works at an hourly cadence.
//!
//! The calendar is deliberately simplified: every year has exactly 365 days
//! (no leap years) with the usual month lengths (February always has 28
//! days). The idleness model indexes its `SIy` table by
//! `(hour, day-of-month, month)`, which is well-defined under this calendar,
//! and the paper's scaling constant σ = 1/(365·24) assumes a 365-day year.
//! The simulation epoch (time zero) is **Monday, January 1st, 00:00** of
//! year 0.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Milliseconds in one second.
pub const MILLIS_PER_SECOND: u64 = 1_000;
/// Milliseconds in one minute.
pub const MILLIS_PER_MINUTE: u64 = 60 * MILLIS_PER_SECOND;
/// Milliseconds in one hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MINUTE;
/// Milliseconds in one day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;
/// Days in the simplified (leap-free) year.
pub const DAYS_PER_YEAR: u64 = 365;
/// Hours in the simplified year; the paper's σ is `1 / HOURS_PER_YEAR`.
pub const HOURS_PER_YEAR: u64 = DAYS_PER_YEAR * 24;

/// Month lengths of the simplified calendar (February fixed at 28 days).
pub const MONTH_LENGTHS: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// A point in simulated time (milliseconds since the simulation epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (non-negative, milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch: Monday, January 1st of year 0, 00:00:00.000.
    pub const EPOCH: SimTime = SimTime(0);

    /// Builds a time from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds a time from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MILLIS_PER_SECOND)
    }

    /// Builds a time from whole hours since the epoch.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * MILLIS_PER_HOUR)
    }

    /// Builds a time from whole days since the epoch.
    pub const fn from_days(d: u64) -> Self {
        SimTime(d * MILLIS_PER_DAY)
    }

    /// Raw milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SECOND
    }

    /// Whole hours since the epoch (truncating). This is the *global hour
    /// index* used to drive the hourly idleness-model update.
    pub const fn hour_index(self) -> u64 {
        self.0 / MILLIS_PER_HOUR
    }

    /// Whole days since the epoch (truncating).
    pub const fn day_index(self) -> u64 {
        self.0 / MILLIS_PER_DAY
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is
    /// actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference (`None` when `earlier > self`).
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// The start of the hour containing this instant.
    pub const fn floor_hour(self) -> SimTime {
        SimTime(self.0 - self.0 % MILLIS_PER_HOUR)
    }

    /// Decomposes this instant into the calendar scales used by the
    /// idleness model.
    pub fn calendar(self) -> CalendarStamp {
        CalendarStamp::from_time(self)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MILLIS_PER_SECOND)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_minutes(m: u64) -> Self {
        SimDuration(m * MILLIS_PER_MINUTE)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * MILLIS_PER_HOUR)
    }

    /// Builds a duration from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * MILLIS_PER_DAY)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * MILLIS_PER_SECOND as f64).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SECOND as f64
    }

    /// Fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.max(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.min(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs > self`; use
    /// [`SimTime::saturating_since`] when order is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs.max(0.0)).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.calendar();
        write!(
            f,
            "y{}-m{:02}-d{:02} {:02}:{:02}:{:02}.{:03} ({})",
            c.year,
            c.month + 1,
            c.day_of_month + 1,
            c.hour,
            (self.0 % MILLIS_PER_HOUR) / MILLIS_PER_MINUTE,
            (self.0 % MILLIS_PER_MINUTE) / MILLIS_PER_SECOND,
            self.0 % MILLIS_PER_SECOND,
            c.weekday,
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms >= MILLIS_PER_DAY {
            write!(f, "{:.2}d", ms as f64 / MILLIS_PER_DAY as f64)
        } else if ms >= MILLIS_PER_HOUR {
            write!(f, "{:.2}h", ms as f64 / MILLIS_PER_HOUR as f64)
        } else if ms >= MILLIS_PER_MINUTE {
            write!(f, "{:.2}min", ms as f64 / MILLIS_PER_MINUTE as f64)
        } else if ms >= MILLIS_PER_SECOND {
            write!(f, "{:.3}s", ms as f64 / MILLIS_PER_SECOND as f64)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

/// Day of the week. The epoch (day index 0) is a Monday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// All weekdays, Monday first (matching the epoch convention).
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Index in `0..7`, Monday = 0.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Builds from an index in `0..7` (Monday = 0); panics outside the range.
    pub fn from_index(i: usize) -> Weekday {
        Weekday::ALL[i]
    }

    /// True for Saturday and Sunday.
    pub const fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Weekday::Monday => "Mon",
            Weekday::Tuesday => "Tue",
            Weekday::Wednesday => "Wed",
            Weekday::Thursday => "Thu",
            Weekday::Friday => "Fri",
            Weekday::Saturday => "Sat",
            Weekday::Sunday => "Sun",
        };
        f.write_str(s)
    }
}

/// A simulated instant decomposed into the four calendar scales the
/// idleness model uses, plus the year (for bookkeeping).
///
/// All fields are zero-based: `hour ∈ 0..24`, `day_of_month ∈ 0..31`
/// (clamped by the month length), `month ∈ 0..12`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CalendarStamp {
    /// Hour of the day, `0..24`.
    pub hour: u8,
    /// Day of the week; the epoch is a Monday.
    pub weekday: Weekday,
    /// Day of the month, zero-based (`0` = the 1st).
    pub day_of_month: u8,
    /// Month of the year, zero-based (`0` = January).
    pub month: u8,
    /// Year since the epoch.
    pub year: u32,
    /// Day of the year, zero-based, `0..365`.
    pub day_of_year: u16,
}

impl CalendarStamp {
    /// Decomposes a [`SimTime`].
    pub fn from_time(t: SimTime) -> CalendarStamp {
        Self::from_hour_index(t.hour_index())
    }

    /// Decomposes a global hour index (hours since the epoch).
    pub fn from_hour_index(hour_index: u64) -> CalendarStamp {
        let hour = (hour_index % 24) as u8;
        let day_index = hour_index / 24;
        let weekday = Weekday::from_index((day_index % 7) as usize);
        let year = (day_index / DAYS_PER_YEAR) as u32;
        let mut day_of_year = (day_index % DAYS_PER_YEAR) as u16;
        let doy = day_of_year;
        let mut month = 0u8;
        for (m, &len) in MONTH_LENGTHS.iter().enumerate() {
            if day_of_year < len as u16 {
                month = m as u8;
                break;
            }
            day_of_year -= len as u16;
        }
        CalendarStamp {
            hour,
            weekday,
            day_of_month: day_of_year as u8,
            month,
            year,
            day_of_year: doy,
        }
    }

    /// Inverse of [`CalendarStamp::from_hour_index`] for the first
    /// millisecond of the stamped hour.
    pub fn to_time(&self) -> SimTime {
        let mut days = self.year as u64 * DAYS_PER_YEAR;
        days += MONTH_LENGTHS[..self.month as usize]
            .iter()
            .map(|&l| l as u64)
            .sum::<u64>();
        days += self.day_of_month as u64;
        SimTime::from_hours(days * 24 + self.hour as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn month_lengths_sum_to_year() {
        let sum: u64 = MONTH_LENGTHS.iter().map(|&l| l as u64).sum();
        assert_eq!(sum, DAYS_PER_YEAR);
    }

    #[test]
    fn epoch_is_monday_january_first() {
        let c = SimTime::EPOCH.calendar();
        assert_eq!(c.hour, 0);
        assert_eq!(c.weekday, Weekday::Monday);
        assert_eq!(c.day_of_month, 0);
        assert_eq!(c.month, 0);
        assert_eq!(c.year, 0);
        assert_eq!(c.day_of_year, 0);
    }

    #[test]
    fn hour_and_day_roll_over() {
        let c = SimTime::from_hours(25).calendar();
        assert_eq!(c.hour, 1);
        assert_eq!(c.weekday, Weekday::Tuesday);
        assert_eq!(c.day_of_month, 1);
    }

    #[test]
    fn february_has_28_days() {
        // Day 31+27 is the last day of February; day 31+28 is March 1st.
        let feb_last = SimTime::from_days(31 + 27).calendar();
        assert_eq!(feb_last.month, 1);
        assert_eq!(feb_last.day_of_month, 27);
        let mar_first = SimTime::from_days(31 + 28).calendar();
        assert_eq!(mar_first.month, 2);
        assert_eq!(mar_first.day_of_month, 0);
    }

    #[test]
    fn year_rolls_over_at_365_days() {
        let c = SimTime::from_days(DAYS_PER_YEAR).calendar();
        assert_eq!(c.year, 1);
        assert_eq!(c.month, 0);
        assert_eq!(c.day_of_month, 0);
        // 365 % 7 == 1, so year 1 starts on a Tuesday.
        assert_eq!(c.weekday, Weekday::Tuesday);
    }

    #[test]
    fn july_is_month_six() {
        // Days in Jan..Jun = 31+28+31+30+31+30 = 181.
        let c = SimTime::from_days(181).calendar();
        assert_eq!(c.month, 6);
        assert_eq!(c.day_of_month, 0);
    }

    #[test]
    fn year_and_month_boundary_hours_roundtrip() {
        // The last hour of a year and the first/last hour of every month
        // are where the hour-index decomposition can slip by one; pin
        // them all for year 0 and across the year-0/year-1 seam.
        let mut first_day_of_month = 0u64;
        for (m, &len) in MONTH_LENGTHS.iter().enumerate() {
            for day in [first_day_of_month, first_day_of_month + len as u64 - 1] {
                for hour in [0u64, 23] {
                    let hour_index = day * 24 + hour;
                    let c = CalendarStamp::from_hour_index(hour_index);
                    assert_eq!(c.month as usize, m, "hour_index {hour_index}");
                    assert_eq!(c.to_time(), SimTime::from_hours(hour_index));
                }
            }
            first_day_of_month += len as u64;
        }
        let last_of_year = CalendarStamp::from_hour_index(HOURS_PER_YEAR - 1);
        assert_eq!(last_of_year.year, 0);
        assert_eq!(last_of_year.month, 11);
        assert_eq!(last_of_year.hour, 23);
        assert_eq!(last_of_year.day_of_year, (DAYS_PER_YEAR - 1) as u16);
        let first_of_next = CalendarStamp::from_hour_index(HOURS_PER_YEAR);
        assert_eq!(first_of_next.year, 1);
        assert_eq!(first_of_next.month, 0);
        assert_eq!(first_of_next.day_of_year, 0);
        assert_eq!(first_of_next.hour, 0);
    }

    #[test]
    fn full_year_horizon_arithmetic_crosses_the_year_seam() {
        // The hyperscale fleet engine runs 8760-hour (one-year) horizons by
        // global hour index; pin the arithmetic at and across the seam.
        let horizon = SimTime::from_hours(HOURS_PER_YEAR);
        assert_eq!(horizon.hour_index(), 8_760);
        assert_eq!(horizon.day_index(), DAYS_PER_YEAR);
        assert_eq!(
            horizon.saturating_since(SimTime::EPOCH),
            SimDuration::from_hours(HOURS_PER_YEAR)
        );
        // Hour-by-hour stepping over the seam: each step is one hour, the
        // hour index is dense, and the calendar rolls over exactly once.
        let mut t = SimTime::from_hours(HOURS_PER_YEAR - 2);
        for expect in [8_758u64, 8_759, 8_760, 8_761] {
            assert_eq!(t.hour_index(), expect);
            assert_eq!(t.calendar().year, if expect < 8_760 { 0 } else { 1 });
            assert_eq!(t.calendar().to_time(), t);
            let next = t.floor_hour() + SimDuration::from_hours(1);
            assert_eq!(next.saturating_since(t), SimDuration::from_hours(1));
            t = next;
        }
        // 365 days = 52 weeks + 1 day: year 1 starts one weekday later.
        assert_eq!(
            SimTime::from_hours(HOURS_PER_YEAR).calendar().weekday,
            Weekday::Tuesday
        );
        assert_eq!(SimTime::EPOCH.calendar().weekday, Weekday::Monday);
        // An event scheduled "one year out" lands on the same calendar
        // date (simplified leap-free calendar).
        let d1 = SimTime::from_hours(100).calendar();
        let d2 = (SimTime::from_hours(100) + SimDuration::from_hours(HOURS_PER_YEAR)).calendar();
        assert_eq!(
            (d1.month, d1.day_of_month, d1.hour),
            (d2.month, d2.day_of_month, d2.hour)
        );
        assert_eq!(d2.year, d1.year + 1);
    }

    #[test]
    fn far_future_hours_roundtrip() {
        // Multi-century instants keep decomposing exactly (u64 headroom).
        for hour_index in [
            1_000 * HOURS_PER_YEAR - 1,
            1_000 * HOURS_PER_YEAR,
            u32::MAX as u64,
        ] {
            let c = CalendarStamp::from_hour_index(hour_index);
            assert_eq!(c.to_time(), SimTime::from_hours(hour_index));
        }
    }

    #[test]
    fn floor_and_next_hour() {
        let t = SimTime::from_millis(MILLIS_PER_HOUR * 5 + 1234);
        let hour = SimDuration::from_hours(1);
        assert_eq!(t.floor_hour(), SimTime::from_hours(5));
        assert_eq!(t.floor_hour() + hour, SimTime::from_hours(6));
        // Exactly on the boundary: floor is identity, next is strictly later.
        let b = SimTime::from_hours(7);
        assert_eq!(b.floor_hour(), b);
        assert_eq!(b.floor_hour() + hour, SimTime::from_hours(8));
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
        assert_eq!(format!("{}", SimDuration::from_minutes(2)), "2.00min");
        assert_eq!(format!("{}", SimDuration::from_hours(3)), "3.00h");
        assert_eq!(format!("{}", SimDuration::from_days(2)), "2.00d");
    }

    #[test]
    fn saturating_since_is_zero_when_reversed() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(10));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn duration_float_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_millis(), 1500);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((SimDuration::from_hours(3).as_hours_f64() - 3.0).abs() < 1e-12);
        // Negative clamps to zero.
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
    }

    proptest! {
        #[test]
        fn calendar_roundtrips(hour_index in 0u64..(400 * 24 * 365)) {
            let c = CalendarStamp::from_hour_index(hour_index);
            prop_assert_eq!(c.to_time(), SimTime::from_hours(hour_index));
            prop_assert!(c.hour < 24);
            prop_assert!(c.month < 12);
            prop_assert!((c.day_of_month as usize) <
                MONTH_LENGTHS[c.month as usize] as usize);
            prop_assert!(c.day_of_year < 365);
        }

        #[test]
        fn weekday_cycles_every_seven_days(day in 0u64..100_000) {
            let a = SimTime::from_days(day).calendar().weekday;
            let b = SimTime::from_days(day + 7).calendar().weekday;
            prop_assert_eq!(a, b);
        }

        #[test]
        fn time_add_sub_roundtrip(base in 0u64..u32::MAX as u64, d in 0u64..u32::MAX as u64) {
            let t = SimTime::from_millis(base);
            let dur = SimDuration::from_millis(d);
            prop_assert_eq!((t + dur) - dur, t);
            prop_assert_eq!((t + dur) - t, dur);
        }
    }
}
