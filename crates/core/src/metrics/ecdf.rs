//! Empirical cumulative distribution functions (Figs. 7, 12, 13, 22).

/// An ECDF over u64 samples, stored as sorted (value, cumulative count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ecdf {
    /// Distinct sample values, ascending.
    values: Vec<u64>,
    /// Cumulative counts parallel to `values`; last = total.
    cum: Vec<u64>,
}

impl Ecdf {
    /// Build from unsorted samples.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let mut values = Vec::new();
        let mut cum = Vec::new();
        let mut count = 0u64;
        for s in samples {
            count += 1;
            if values.last() == Some(&s) {
                *cum.last_mut().unwrap() = count;
            } else {
                values.push(s);
                cum.push(count);
            }
        }
        Ecdf { values, cum }
    }

    /// Build from a histogram of (value, count).
    pub fn from_histogram(hist: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut items: Vec<(u64, u64)> = hist.into_iter().filter(|&(_, c)| c > 0).collect();
        items.sort_unstable();
        let mut values = Vec::with_capacity(items.len());
        let mut cum = Vec::with_capacity(items.len());
        let mut count = 0u64;
        for (v, c) in items {
            count += c;
            if values.last() == Some(&v) {
                *cum.last_mut().unwrap() = count;
            } else {
                values.push(v);
                cum.push(count);
            }
        }
        Ecdf { values, cum }
    }

    /// Total sample count.
    pub fn total(&self) -> u64 {
        self.cum.last().copied().unwrap_or(0)
    }

    /// Is the ECDF empty?
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// F(x): fraction of samples ≤ x.
    pub fn fraction_le(&self, x: u64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let idx = self.values.partition_point(|&v| v <= x);
        if idx == 0 {
            0.0
        } else {
            self.cum[idx - 1] as f64 / self.total() as f64
        }
    }

    /// Fraction of samples strictly greater than x.
    pub fn fraction_gt(&self, x: u64) -> f64 {
        1.0 - self.fraction_le(x)
    }

    /// Smallest value with F(value) ≥ q (q in \[0,1\]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let need = (q.clamp(0.0, 1.0) * self.total() as f64).ceil().max(1.0) as u64;
        let idx = self.cum.partition_point(|&c| c < need);
        self.values.get(idx.min(self.values.len() - 1)).copied()
    }

    /// Median.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Plot points `(value, F(value))`, at most `max_points` (downsampled).
    pub fn points(&self, max_points: usize) -> Vec<(u64, f64)> {
        if self.values.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let total = self.total() as f64;
        let step = (self.values.len() / max_points.max(1)).max(1);
        let mut pts: Vec<(u64, f64)> = self
            .values
            .iter()
            .zip(&self.cum)
            .step_by(step)
            .map(|(&v, &c)| (v, c as f64 / total))
            .collect();
        // Always include the final point.
        let last = (*self.values.last().unwrap(), 1.0);
        if pts.last() != Some(&last) {
            pts.push(last);
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_fractions() {
        let e = Ecdf::from_samples(vec![1, 1, 2, 5, 5, 5, 10]);
        assert_eq!(e.total(), 7);
        assert!((e.fraction_le(0) - 0.0).abs() < 1e-12);
        assert!((e.fraction_le(1) - 2.0 / 7.0).abs() < 1e-12);
        assert!((e.fraction_le(5) - 6.0 / 7.0).abs() < 1e-12);
        assert!((e.fraction_le(100) - 1.0).abs() < 1e-12);
        assert!((e.fraction_gt(5) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::from_samples((1..=100).collect());
        assert_eq!(e.median(), Some(50));
        assert_eq!(e.quantile(0.05), Some(5));
        assert_eq!(e.quantile(0.95), Some(95));
        assert_eq!(e.quantile(1.0), Some(100));
        assert_eq!(e.quantile(0.0), Some(1));
    }

    #[test]
    fn histogram_matches_samples() {
        let a = Ecdf::from_samples(vec![3, 3, 3, 7, 9, 9]);
        let b = Ecdf::from_histogram([(3, 3), (7, 1), (9, 2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_is_safe() {
        let e = Ecdf::from_samples(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.median(), None);
        assert_eq!(e.fraction_le(5), 0.0);
        assert!(e.points(10).is_empty());
    }

    #[test]
    fn points_downsampled_and_terminated() {
        let e = Ecdf::from_samples((0..1000).collect());
        let pts = e.points(20);
        assert!(pts.len() <= 22);
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    proptest! {
        /// ECDF is monotone non-decreasing and bounded by [0,1].
        #[test]
        fn prop_monotone(samples in proptest::collection::vec(0u64..1000, 1..200)) {
            let e = Ecdf::from_samples(samples);
            let mut prev = 0.0;
            for x in (0..1000).step_by(37) {
                let f = e.fraction_le(x);
                prop_assert!(f >= prev - 1e-12);
                prop_assert!((0.0..=1.0).contains(&f));
                prev = f;
            }
            prop_assert_eq!(e.fraction_le(u64::MAX), 1.0);
        }

        /// The q-quantile has at least q mass at or below it.
        #[test]
        fn prop_quantile_mass(samples in proptest::collection::vec(0u64..100, 1..100), q in 0.0f64..1.0) {
            let e = Ecdf::from_samples(samples);
            let v = e.quantile(q).unwrap();
            prop_assert!(e.fraction_le(v) >= q - 1e-9);
        }
    }
}
