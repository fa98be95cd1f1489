//! Proleptic-Gregorian civil dates with exact day arithmetic.
//!
//! Uses the well-known days-from-civil / civil-from-days algorithms (Howard
//! Hinnant's formulation) so day arithmetic is O(1) and exact across month and
//! leap-year boundaries.

use serde::{Deserialize, Serialize};

/// A civil (calendar) date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    /// Gregorian year, e.g. 2022.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day of month 1..=31.
    pub day: u8,
}

impl Date {
    /// Construct a date, panicking on out-of-range fields (tests/config only).
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        let d = Date { year, month, day };
        assert!(d.is_valid(), "invalid date {year}-{month}-{day}");
        d
    }

    /// Whether the fields denote a real calendar day.
    pub fn is_valid(&self) -> bool {
        self.month >= 1
            && self.month <= 12
            && self.day >= 1
            && self.day <= days_in_month(self.year, self.month)
    }

    /// Days since 1970-01-01 (may be negative before that).
    pub fn days_since_epoch(&self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }

    /// Date `n` days after (or before, if negative) this one.
    pub fn add_days(&self, n: i64) -> Date {
        let (y, m, d) = civil_from_days(self.days_since_epoch() + n);
        Date {
            year: y,
            month: m,
            day: d,
        }
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Is `y` a Gregorian leap year?
pub fn is_leap(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

/// Number of days in month `m` of year `y`.
pub fn days_in_month(y: i32, m: u8) -> u8 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's days_from_civil).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (Hinnant's civil_from_days).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unix_epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).days_since_epoch(), 0);
    }

    #[test]
    fn known_offsets() {
        assert_eq!(Date::new(1970, 1, 2).days_since_epoch(), 1);
        assert_eq!(Date::new(1969, 12, 31).days_since_epoch(), -1);
        assert_eq!(Date::new(2000, 3, 1).days_since_epoch(), 11_017);
        // Study window endpoints.
        assert_eq!(Date::new(2021, 12, 1).days_since_epoch(), 18_962);
        assert_eq!(Date::new(2023, 3, 31).days_since_epoch(), 19_447);
    }

    #[test]
    fn month_lengths() {
        assert_eq!(days_in_month(2022, 2), 28);
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(1900, 2), 28); // century rule
        assert_eq!(days_in_month(2000, 2), 29); // 400-year rule
        assert_eq!(days_in_month(2022, 12), 31);
    }

    #[test]
    fn add_days_across_year_boundary() {
        assert_eq!(Date::new(2021, 12, 31).add_days(1), Date::new(2022, 1, 1));
        assert_eq!(Date::new(2022, 1, 1).add_days(-1), Date::new(2021, 12, 31));
    }

    #[test]
    fn display() {
        let d = Date::new(2022, 9, 5);
        assert_eq!(d.to_string(), "2022-09-05");
    }

    #[test]
    #[should_panic]
    fn invalid_date_panics() {
        Date::new(2022, 2, 29);
    }

    proptest! {
        /// Roundtrip: civil -> days -> civil is the identity.
        #[test]
        fn prop_civil_days_roundtrip(days in -1_000_000i64..1_000_000i64) {
            let (y, m, d) = civil_from_days(days);
            prop_assert_eq!(days_from_civil(y, m, d), days);
            let date = Date { year: y, month: m, day: d };
            prop_assert!(date.is_valid());
        }

        /// add_days is additive: (d + a) + b == d + (a + b).
        #[test]
        fn prop_add_days_additive(a in -10_000i64..10_000, b in -10_000i64..10_000) {
            let d = Date::new(2022, 6, 15);
            prop_assert_eq!(d.add_days(a).add_days(b), d.add_days(a + b));
        }

        /// Ordering of dates matches ordering of epoch offsets.
        #[test]
        fn prop_order_consistent(a in -100_000i64..100_000, b in -100_000i64..100_000) {
            let da = Date::new(1970, 1, 1).add_days(a);
            let db = Date::new(1970, 1, 1).add_days(b);
            prop_assert_eq!(da.cmp(&db), a.cmp(&b));
        }
    }
}
