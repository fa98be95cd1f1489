//! Hash freshness over time (paper Section 8.3, Fig. 17).
//!
//! For every day: the number of distinct hashes observed, and the fraction
//! of them that are *fresh* under three memories — never seen before, not
//! seen in the last 30 days, not seen in the last 7 days.

use hf_simclock::SlidingDayWindow;

/// One day of freshness data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreshnessPoint {
    /// Day index.
    pub day: u32,
    /// Distinct hashes observed this day.
    pub unique: u32,
    /// Of those, never seen on any earlier day.
    pub fresh_ever: u32,
    /// Not seen within the preceding 30 days.
    pub fresh_30d: u32,
    /// Not seen within the preceding 7 days.
    pub fresh_7d: u32,
}

impl FreshnessPoint {
    /// Fresh fraction under the unbounded memory.
    pub fn frac_ever(&self) -> f64 {
        if self.unique == 0 {
            0.0
        } else {
            self.fresh_ever as f64 / self.unique as f64
        }
    }
}

/// Streaming builder: feed day-ordered hash observations.
#[derive(Debug, Clone)]
pub struct FreshnessSeries {
    ever: SlidingDayWindow<u32, crate::idhash::BuildIdHasher>,
    w30: SlidingDayWindow<u32, crate::idhash::BuildIdHasher>,
    w7: SlidingDayWindow<u32, crate::idhash::BuildIdHasher>,
    /// Hashes already counted for the current day.
    today: crate::idhash::IdSet,
    current_day: u32,
    current: FreshnessPoint,
    /// Finished days.
    pub points: Vec<FreshnessPoint>,
}

impl Default for FreshnessSeries {
    fn default() -> Self {
        Self::new()
    }
}

impl FreshnessSeries {
    /// Fresh builder.
    pub fn new() -> Self {
        FreshnessSeries {
            ever: SlidingDayWindow::unbounded(),
            w30: SlidingDayWindow::with_days(30),
            w7: SlidingDayWindow::with_days(7),
            today: Default::default(),
            current_day: 0,
            current: FreshnessPoint {
                day: 0,
                unique: 0,
                fresh_ever: 0,
                fresh_30d: 0,
                fresh_7d: 0,
            },
            points: Vec::new(),
        }
    }

    /// Observe a hash id on a day (days must be non-decreasing).
    pub fn observe(&mut self, hash_id: u32, day: u32) {
        debug_assert!(day >= self.current_day);
        if day != self.current_day {
            self.flush_day();
            self.current_day = day;
            self.current = FreshnessPoint {
                day,
                ..self.current
            };
        }
        if !self.today.insert(hash_id) {
            return; // already counted today; windows already updated
        }
        self.current.unique += 1;
        // Order matters: query windows *before* recording today's sighting.
        if self.ever.observe(hash_id, day) {
            self.current.fresh_ever += 1;
        }
        if self.w30.observe(hash_id, day) {
            self.current.fresh_30d += 1;
        }
        if self.w7.observe(hash_id, day) {
            self.current.fresh_7d += 1;
        }
    }

    fn flush_day(&mut self) {
        if self.current.unique > 0 {
            self.points.push(self.current);
        }
        self.today.clear();
        self.current = FreshnessPoint {
            day: self.current_day,
            unique: 0,
            fresh_ever: 0,
            fresh_30d: 0,
            fresh_7d: 0,
        };
    }

    /// Finish, returning all per-day points.
    pub fn finish(mut self) -> Vec<FreshnessPoint> {
        self.flush_day();
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sighting_is_fresh_everywhere() {
        let mut f = FreshnessSeries::new();
        f.observe(1, 0);
        f.observe(2, 0);
        let pts = f.finish();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].unique, 2);
        assert_eq!(pts[0].fresh_ever, 2);
        assert_eq!(pts[0].fresh_30d, 2);
        assert_eq!(pts[0].fresh_7d, 2);
        assert_eq!(pts[0].frac_ever(), 1.0);
    }

    #[test]
    fn same_day_duplicates_count_once() {
        let mut f = FreshnessSeries::new();
        f.observe(1, 0);
        f.observe(1, 0);
        f.observe(1, 0);
        let pts = f.finish();
        assert_eq!(pts[0].unique, 1);
        assert_eq!(pts[0].fresh_ever, 1);
    }

    #[test]
    fn window_semantics_differ_by_memory() {
        let mut f = FreshnessSeries::new();
        f.observe(1, 0);
        // 10 days later: fresh for 7d window, stale for 30d and ever.
        f.observe(1, 10);
        // 50 days later: fresh for 7d and 30d, stale for ever.
        f.observe(1, 60);
        let pts = f.finish();
        assert_eq!(pts.len(), 3);
        assert_eq!(
            (pts[1].fresh_ever, pts[1].fresh_30d, pts[1].fresh_7d),
            (0, 0, 1)
        );
        assert_eq!(
            (pts[2].fresh_ever, pts[2].fresh_30d, pts[2].fresh_7d),
            (0, 1, 1)
        );
    }

    #[test]
    fn shorter_memory_is_always_fresher() {
        // fresh_7d >= fresh_30d >= fresh_ever on every day.
        let mut f = FreshnessSeries::new();
        for day in 0..100u32 {
            for h in 0..20u32 {
                if (day + h) % 3 != 0 {
                    f.observe(h, day);
                }
            }
        }
        for p in f.finish() {
            assert!(p.fresh_7d >= p.fresh_30d, "{p:?}");
            assert!(p.fresh_30d >= p.fresh_ever, "{p:?}");
            assert!(p.unique >= p.fresh_7d);
        }
    }

    #[test]
    fn empty_days_are_skipped() {
        let mut f = FreshnessSeries::new();
        f.observe(1, 0);
        f.observe(2, 5);
        let pts = f.finish();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].day, 0);
        assert_eq!(pts[1].day, 5);
    }
}
