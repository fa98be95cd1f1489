//! Daily percentile bands: median, IQR, and 5th/95th percentile ranges of a
//! per-honeypot quantity across time (Figs. 3, 4, 8, 9).

use serde::{Deserialize, Serialize};

/// One day's band values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandPoint {
    /// Day index.
    pub day: u32,
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q75: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// A band time-series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct BandSeries {
    /// One point per day.
    pub points: Vec<BandPoint>,
}

/// Percentile of a sorted slice (nearest-rank with linear interpolation).
fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0] as f64;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

impl BandSeries {
    /// Build from a (days × entities) matrix stored row-major:
    /// `counts[day * n_entities + e]` = value of entity `e` on `day`.
    /// `entities` optionally restricts which entity columns participate
    /// (e.g. the top-5% honeypots of Fig. 3).
    pub fn from_matrix(
        counts: &[u32],
        n_days: u32,
        n_entities: usize,
        entities: Option<&[u16]>,
    ) -> Self {
        assert_eq!(counts.len(), n_days as usize * n_entities);
        let mut points = Vec::with_capacity(n_days as usize);
        let mut scratch: Vec<u32> = Vec::new();
        for day in 0..n_days {
            scratch.clear();
            let row = &counts[day as usize * n_entities..(day as usize + 1) * n_entities];
            match entities {
                Some(sel) => scratch.extend(sel.iter().map(|&e| row[e as usize])),
                None => scratch.extend_from_slice(row),
            }
            scratch.sort_unstable();
            points.push(BandPoint {
                day,
                p5: percentile(&scratch, 0.05),
                q25: percentile(&scratch, 0.25),
                median: percentile(&scratch, 0.50),
                q75: percentile(&scratch, 0.75),
                p95: percentile(&scratch, 0.95),
            });
        }
        BandSeries { points }
    }

    /// Number of days.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Is the series empty?
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolation() {
        let v = [0, 10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.25), 10.0);
        assert!((percentile(&v, 0.1) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn band_ordering_invariant() {
        // 3 days × 4 entities.
        let counts = vec![
            1, 2, 3, 4, //
            10, 0, 5, 5, //
            7, 7, 7, 7,
        ];
        let s = BandSeries::from_matrix(&counts, 3, 4, None);
        assert_eq!(s.len(), 3);
        for p in &s.points {
            assert!(p.p5 <= p.q25);
            assert!(p.q25 <= p.median);
            assert!(p.median <= p.q75);
            assert!(p.q75 <= p.p95);
        }
        assert_eq!(s.points[2].median, 7.0);
    }

    #[test]
    fn entity_selection() {
        let counts = vec![1, 100, 1, 100]; // 1 day × 4 entities
        let all = BandSeries::from_matrix(&counts, 1, 4, None);
        let top = BandSeries::from_matrix(&counts, 1, 4, Some(&[1, 3]));
        assert!(top.points[0].median > all.points[0].median);
        assert_eq!(top.points[0].median, 100.0);
    }

    #[test]
    fn single_entity() {
        let counts = vec![5, 9]; // 2 days × 1 entity
        let s = BandSeries::from_matrix(&counts, 2, 1, None);
        assert_eq!(s.points[0].median, 5.0);
        assert_eq!(s.points[1].p95, 9.0);
    }
}
