//! Simulation time for the honeyfarm reproduction.
//!
//! The paper analyses 15 months of data — December 1, 2021 through March 31,
//! 2023 (486 days). All analyses are keyed on civil days ("sessions per day",
//! "hashes fresh within the last 7/30 days", …), so this crate provides:
//!
//! - [`Date`]: a proleptic-Gregorian civil date with exact day arithmetic,
//! - [`SimInstant`]: seconds since the simulation epoch (2021-12-01 00:00 UTC),
//! - [`StudyWindow`]: the paper's observation period with day indexing,
//! - [`SlidingDayWindow`]: the "seen within the last N days" freshness helper.
//!
//! Everything is integer math; there are no wall-clock reads, which keeps the
//! whole simulation bit-reproducible.

mod date;
mod window;

pub use date::Date;
pub use window::SlidingDayWindow;

/// Seconds since the simulation epoch, 2021-12-01T00:00:00Z.
///
/// A plain newtype over `u64`; one tick is one second. Sub-second resolution is
/// unnecessary: the honeypot logs session start/end at second granularity,
/// like Cowrie's JSON log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(pub u64);

/// Length of a civil day in seconds.
pub const SECS_PER_DAY: u64 = 86_400;

impl SimInstant {
    /// The simulation epoch (start of the study window).
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Construct from a day index and a second-of-day offset.
    pub fn from_day_and_secs(day: u32, secs_of_day: u32) -> Self {
        debug_assert!((secs_of_day as u64) < SECS_PER_DAY);
        SimInstant(day as u64 * SECS_PER_DAY + secs_of_day as u64)
    }

    /// Day index since the epoch (day 0 = 2021-12-01).
    pub fn day(self) -> u32 {
        (self.0 / SECS_PER_DAY) as u32
    }

    /// Seconds into the current day.
    pub fn secs_of_day(self) -> u32 {
        (self.0 % SECS_PER_DAY) as u32
    }

    /// Add a duration in seconds.
    pub fn add_secs(self, secs: u64) -> Self {
        SimInstant(self.0 + secs)
    }

    /// Signed difference `self - other` in seconds.
    pub fn delta_secs(self, other: SimInstant) -> i64 {
        self.0 as i64 - other.0 as i64
    }

    /// Civil date corresponding to this instant.
    pub fn date(self) -> Date {
        StudyWindow::EPOCH_DATE.add_days(self.day() as i64)
    }

    /// Render as `YYYY-MM-DDTHH:MM:SSZ` (Cowrie-style timestamp).
    pub fn to_rfc3339(self) -> String {
        let d = self.date();
        let s = self.secs_of_day();
        format!(
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            d.year,
            d.month,
            d.day,
            s / 3600,
            (s / 60) % 60,
            s % 60
        )
    }
}

/// The paper's observation window with day indexing helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyWindow {
    /// First day of the window (inclusive).
    pub start: Date,
    /// Last day of the window (inclusive).
    pub end: Date,
}

impl StudyWindow {
    /// Epoch date used by [`SimInstant`].
    pub const EPOCH_DATE: Date = Date {
        year: 2021,
        month: 12,
        day: 1,
    };

    /// The paper's window: 2021-12-01 ..= 2023-03-31 (486 days).
    pub fn paper() -> Self {
        StudyWindow {
            start: Self::EPOCH_DATE,
            end: Date {
                year: 2023,
                month: 3,
                day: 31,
            },
        }
    }

    /// A truncated window starting at the epoch, for fast tests.
    pub fn first_days(n: u32) -> Self {
        assert!(n >= 1);
        StudyWindow {
            start: Self::EPOCH_DATE,
            end: Self::EPOCH_DATE.add_days(n as i64 - 1),
        }
    }

    /// Number of days in the window (inclusive of both ends).
    pub fn num_days(&self) -> u32 {
        (self.end.days_since_epoch() - self.start.days_since_epoch() + 1) as u32
    }

    /// Day index (0-based from the window start) of a date, if inside.
    pub fn day_index(&self, d: Date) -> Option<u32> {
        let idx = d.days_since_epoch() - self.start.days_since_epoch();
        if idx >= 0 && (idx as u32) < self.num_days() {
            Some(idx as u32)
        } else {
            None
        }
    }

    /// Date of the given day index.
    pub fn date_of(&self, day: u32) -> Date {
        debug_assert!(day < self.num_days());
        self.start.add_days(day as i64)
    }

    /// Iterate all day indices in the window.
    pub fn days(&self) -> std::ops::Range<u32> {
        0..self.num_days()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_window_is_486_days() {
        let w = StudyWindow::paper();
        assert_eq!(w.num_days(), 486);
        assert_eq!(w.date_of(0), Date::new(2021, 12, 1));
        assert_eq!(w.date_of(485), Date::new(2023, 3, 31));
    }

    #[test]
    fn day_indexing_roundtrip() {
        let w = StudyWindow::paper();
        for day in [0u32, 1, 30, 31, 100, 365, 485] {
            let d = w.date_of(day);
            assert_eq!(w.day_index(d), Some(day));
        }
        assert_eq!(w.day_index(Date::new(2021, 11, 30)), None);
        assert_eq!(w.day_index(Date::new(2023, 4, 1)), None);
    }

    #[test]
    fn instant_day_math() {
        let t = SimInstant::from_day_and_secs(3, 7200);
        assert_eq!(t.day(), 3);
        assert_eq!(t.secs_of_day(), 7200);
        assert_eq!(t.add_secs(SECS_PER_DAY).day(), 4);
        assert_eq!(t.delta_secs(SimInstant::EPOCH), 3 * 86_400 + 7200);
    }

    #[test]
    fn rfc3339_rendering() {
        assert_eq!(
            SimInstant::from_day_and_secs(0, 0).to_rfc3339(),
            "2021-12-01T00:00:00Z"
        );
        assert_eq!(
            SimInstant::from_day_and_secs(31, 86_399).to_rfc3339(),
            "2022-01-01T23:59:59Z"
        );
    }

    #[test]
    fn truncated_window() {
        let w = StudyWindow::first_days(7);
        assert_eq!(w.num_days(), 7);
        assert_eq!(w.date_of(6), Date::new(2021, 12, 7));
    }

    #[test]
    fn leap_year_2022_is_not_leap_2024_is() {
        // 2022 is not a leap year; Feb has 28 days.
        let feb28 = Date::new(2022, 2, 28);
        assert_eq!(feb28.add_days(1), Date::new(2022, 3, 1));
        // 2024 is a leap year (outside the window, but Date supports it).
        let feb28 = Date::new(2024, 2, 28);
        assert_eq!(feb28.add_days(1), Date::new(2024, 2, 29));
    }
}
