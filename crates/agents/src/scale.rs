//! Volume scaling.
//!
//! The paper's farm logged ~402 million sessions from ~2.1 million client IPs
//! producing 64,004 distinct hashes over 486 days. A reproduction must be
//! runnable on one machine, so every volume is multiplied by a scale factor.
//! Ratios (category mix, protocol mix, per-campaign relative sizes) are
//! scale-invariant; EXPERIMENTS.md reports measured values next to
//! `expected × scale`.
//!
//! Distinct-hash counts do not shrink linearly with traffic in the real world
//! (half the traffic does not mean half the malware variants), so the hash
//! dimension uses `volume.sqrt()` by default — small runs still show a
//! long-tailed, hundreds-per-day hash ecosystem.

/// Scale factors applied to the paper's absolute volumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier on session and client volumes (1.0 = the paper's 402 M
    /// sessions; 0.01 = the default benchmark scale, ~4 M sessions).
    pub volume: f64,
    /// Multiplier on distinct-hash counts (campaign variant diversity).
    pub hashes: f64,
}

impl Scale {
    /// The paper's full scale.
    pub fn full() -> Self {
        Scale {
            volume: 1.0,
            hashes: 1.0,
        }
    }

    /// A scale with the default sub-linear hash dimension (`sqrt(volume)`).
    pub fn of(volume: f64) -> Self {
        assert!(volume > 0.0 && volume <= 1.0, "scale must be in (0, 1]");
        Scale {
            volume,
            hashes: volume.sqrt(),
        }
    }

    /// Default benchmark/example scale: 1:100 sessions, 1:10 hashes.
    pub fn default_bench() -> Self {
        Scale::of(0.01)
    }

    /// Tiny scale for unit/integration tests.
    pub fn tiny() -> Self {
        Scale::of(0.0005)
    }

    /// Scale a session/client count.
    pub fn count(&self, paper_value: f64) -> u64 {
        checked_u64((paper_value * self.volume).round().max(0.0), "scaled count")
    }

    /// Scale a count, but never below `min` (for small populations that lose
    /// their meaning at zero, e.g. a 3-client campaign).
    pub fn count_min(&self, paper_value: f64, min: u64) -> u64 {
        self.count(paper_value).max(min)
    }

    /// Scale a distinct-hash count.
    pub fn hash_count(&self, paper_value: f64) -> u64 {
        checked_u64(
            (paper_value * self.hashes).round().max(1.0),
            "scaled hash count",
        )
    }
}

/// Checked float→integer conversion for sizing math. A bare `as u64` cast
/// silently saturates NaN/negative/huge values, which turns a mis-scaled
/// budget into a mysteriously wrong (or allocation-exploding) run; sizing
/// errors should instead fail loudly, naming the quantity.
pub fn checked_u64(value: f64, what: &str) -> u64 {
    assert!(value.is_finite(), "{what}: non-finite sizing value {value}");
    assert!(value >= 0.0, "{what}: negative sizing value {value}");
    // 2^63 is exactly representable; every f64 below it converts exactly
    // enough for a count. (u64::MAX as f64 rounds up, so compare strictly.)
    assert!(
        value < u64::MAX as f64,
        "{what}: sizing value {value:e} overflows u64"
    );
    value as u64
}

/// [`checked_u64`] narrowed to `u32` (world/AS cardinalities).
pub fn checked_u32(value: f64, what: &str) -> u32 {
    let v = checked_u64(value, what);
    u32::try_from(v).unwrap_or_else(|_| panic!("{what}: sizing value {v} overflows u32"))
}

impl Default for Scale {
    fn default() -> Self {
        Scale::default_bench()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_is_identity() {
        let s = Scale::full();
        assert_eq!(s.count(402_000_000.0), 402_000_000);
        assert_eq!(s.hash_count(64_004.0), 64_004);
    }

    #[test]
    fn bench_scale_ratios() {
        let s = Scale::default_bench();
        assert_eq!(s.count(402_000_000.0), 4_020_000);
        assert_eq!(s.hash_count(64_004.0), 6_400);
    }

    #[test]
    fn count_min_floors_small_populations() {
        let s = Scale::of(0.001);
        assert_eq!(s.count_min(3.0, 3), 3, "H2's 3 clients survive scaling");
        assert_eq!(s.count_min(118_924.0, 3), 119);
    }

    #[test]
    fn hash_dimension_is_sublinear() {
        let s = Scale::of(0.01);
        assert!(s.hashes > s.volume);
        assert!((s.hashes - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        Scale::of(0.0);
    }

    #[test]
    fn checked_casts_accept_the_whole_sizing_range() {
        assert_eq!(checked_u64(0.0, "zero"), 0);
        assert_eq!(checked_u64(4.02e9, "10x paper"), 4_020_000_000);
        assert_eq!(checked_u32(17_700.0, "as count"), 17_700);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn checked_cast_rejects_nan() {
        checked_u64(f64::NAN, "bad budget");
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn checked_cast_rejects_negative() {
        checked_u64(-1.0, "bad budget");
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn checked_cast_rejects_narrowing_overflow() {
        checked_u32(1e12, "too many ASes");
    }
}
