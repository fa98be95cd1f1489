//! Sliding "seen within the last N days" tracking.
//!
//! Section 8.3 of the paper defines hash *freshness* three ways: never seen
//! before, not seen within the last 30 days, and not seen within the last 7
//! days. [`SlidingDayWindow`] supports all three with O(1) amortized updates:
//! it remembers, per key, the last day the key was observed, and a ring of
//! per-day key lists so stale entries can be expired without scanning the
//! whole map.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Tracks, for each key, whether it has been seen within the last `n_days`
/// days (a value of `None` for `n_days` means "ever").
///
/// Generic over the hasher so hot consumers (the freshness series hashes
/// millions of interned ids) can substitute a cheap deterministic one; the
/// default stays `RandomState`, matching `HashMap`.
#[derive(Debug, Clone)]
pub struct SlidingDayWindow<K: Eq + Hash + Clone, S = std::collections::hash_map::RandomState> {
    /// Window length in days; `None` = unbounded ("ever seen").
    n_days: Option<u32>,
    /// Last day each live key was seen.
    last_seen: HashMap<K, u32, S>,
    /// Current day being recorded.
    current_day: u32,
}

impl<K: Eq + Hash + Clone, S: BuildHasher + Default> SlidingDayWindow<K, S> {
    /// A bounded window: "seen within the last `n_days` days" (n >= 1).
    pub fn with_days(n_days: u32) -> Self {
        assert!(n_days >= 1);
        SlidingDayWindow {
            n_days: Some(n_days),
            last_seen: HashMap::default(),
            current_day: 0,
        }
    }

    /// An unbounded window: "ever seen before".
    pub fn unbounded() -> Self {
        SlidingDayWindow {
            n_days: None,
            last_seen: HashMap::default(),
            current_day: 0,
        }
    }

    /// Record an observation of `key` on `day` (days must be non-decreasing).
    /// Returns `true` if the key was *fresh*: not seen within the window
    /// before this observation.
    pub fn observe(&mut self, key: K, day: u32) -> bool {
        debug_assert!(day >= self.current_day, "days must be fed in order");
        self.current_day = day;
        let fresh = match self.last_seen.get(&key) {
            None => true,
            Some(&last) => match self.n_days {
                None => false,
                // Seen `last`, now `day`: stale iff the gap spans > n_days-1
                // full days, i.e. "within the last 7 days" means last >= day-6.
                Some(n) => day.saturating_sub(last) >= n,
            },
        };
        self.last_seen.insert(key, day);
        fresh
    }

    /// Number of distinct keys ever inserted (live map size).
    pub fn len(&self) -> usize {
        self.last_seen.len()
    }

    /// True if no key has ever been observed.
    pub fn is_empty(&self) -> bool {
        self.last_seen.is_empty()
    }

    /// Drop entries older than the window to bound memory on huge runs.
    /// Safe to call at any day boundary; a no-op for unbounded windows.
    pub fn compact(&mut self) {
        if let Some(n) = self.n_days {
            // Entries with last < current_day - n can never again influence
            // freshness (any future observation day d >= current_day has
            // d - last > n, which is already "fresh").
            let min_keep = self.current_day.saturating_sub(n);
            self.last_seen.retain(|_, &mut last| last >= min_keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Constructor calls don't infer the defaulted hasher parameter, so the
    /// tests name the default explicitly.
    type W = SlidingDayWindow<&'static str>;

    #[test]
    fn unbounded_fresh_only_once() {
        let mut w = W::unbounded();
        assert!(w.observe("h1", 0));
        assert!(!w.observe("h1", 0));
        assert!(!w.observe("h1", 400));
        assert!(w.observe("h2", 400));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn seven_day_window_semantics() {
        let mut w = W::with_days(7);
        assert!(w.observe("h", 10)); // first sighting
        assert!(!w.observe("h", 11)); // 1 day later: not fresh
        assert!(!w.observe("h", 16)); // gap 5 < 7: not fresh
        assert!(!w.observe("h", 22)); // gap 6 < 7: not fresh
        assert!(w.observe("h", 29)); // gap 7 >= 7: fresh again
    }

    #[test]
    fn compact_preserves_semantics() {
        let mut w = W::with_days(7);
        w.observe("old", 0);
        w.observe("new", 99);
        w.compact();
        // "old" was expired but would be fresh anyway; "new" must survive.
        assert_eq!(w.len(), 1);
        assert!(w.observe("old", 100));
        assert!(!w.observe("new", 100));
    }

    #[test]
    fn same_day_repeat_is_not_fresh() {
        let mut w = W::with_days(1);
        assert!(w.observe("k", 3));
        assert!(!w.observe("k", 3));
        // Next day: "within the last 1 day" excludes yesterday, so fresh.
        assert!(w.observe("k", 4));
    }
}
