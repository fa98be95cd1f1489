//! Client-origin country mixes, calibrated to the paper.
//!
//! Section 7 reports the top origin countries per session category:
//! - overall: China 31%, India 9%, US 8%, Russia 5%, Brazil 5%, Taiwan 5%,
//!   Mexico 3%, Iran 3% (Figure 10a),
//! - FAIL_LOG: US first, then China, Japan, Vietnam, Singapore, India,
//! - CMD: US, China, Japan, India, Brazil (Figure 10b),
//! - NO_CMD: Russia, Germany, US, Vietnam, Sweden,
//! - CMD+URI: US, Netherlands, France, Bulgaria, Romania (Figure 23e).
//!
//! A [`CountryMix`] is a weighted categorical distribution over countries with
//! O(log n) sampling via a cumulative-weight table. The named constructors
//! below encode the calibrated mixes; the remainder mass is spread over a
//! long tail of the rest of the catalog so every category exhibits the paper's
//! "clients come from everywhere" breadth.

use rand::Rng;

use crate::country::{self, CountryId};

/// A weighted distribution over countries.
#[derive(Debug, Clone)]
pub struct CountryMix {
    /// Country ids, parallel to `cum`.
    ids: Vec<CountryId>,
    /// Cumulative weights; last entry is the total.
    cum: Vec<u64>,
}

impl CountryMix {
    /// Build from `(iso_code, weight_permille)` pairs plus a tail weight that
    /// is spread uniformly over all catalog countries not explicitly listed.
    ///
    /// Panics on unknown ISO codes (a config error worth failing fast on).
    pub fn from_weights(head: &[(&str, u32)], tail_permille: u32) -> Self {
        let mut ids = Vec::new();
        let mut weights: Vec<u64> = Vec::new();
        for (code, w) in head {
            let id = country::by_code(code)
                .unwrap_or_else(|| panic!("unknown country code {code:?} in mix"));
            ids.push(id);
            weights.push(*w as u64 * 1000); // scale so tail splits stay integral
        }
        // Spread the tail over unlisted countries.
        let listed: std::collections::BTreeSet<CountryId> = ids.iter().copied().collect();
        let unlisted: Vec<CountryId> = (0..country::count() as u16)
            .map(CountryId)
            .filter(|id| !listed.contains(id))
            .collect();
        if tail_permille > 0 && !unlisted.is_empty() {
            let per = (tail_permille as u64 * 1000) / unlisted.len() as u64;
            let per = per.max(1);
            for id in unlisted {
                ids.push(id);
                weights.push(per);
            }
        }
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0u64;
        for w in weights {
            acc += w;
            cum.push(acc);
        }
        assert!(acc > 0, "mix has zero total weight");
        CountryMix { ids, cum }
    }

    /// A single-country (degenerate) mix.
    pub fn single(code: &str) -> Self {
        Self::from_weights(&[(code, 1000)], 0)
    }

    /// Sample a country.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CountryId {
        let total = *self.cum.last().unwrap();
        let x = rng.gen_range(0..total);
        let idx = self.cum.partition_point(|&c| c <= x);
        self.ids[idx]
    }

    /// Exact probability of a country under this mix (for tests/reports).
    pub fn probability(&self, id: CountryId) -> f64 {
        let total = *self.cum.last().unwrap() as f64;
        let mut prev = 0u64;
        let mut p = 0.0;
        for (i, &c) in self.cum.iter().enumerate() {
            if self.ids[i] == id {
                p += (c - prev) as f64 / total;
            }
            prev = c;
        }
        p
    }

    /// Number of countries with non-zero mass.
    pub fn support(&self) -> usize {
        self.ids.len()
    }

    // ---- Paper-calibrated mixes -------------------------------------------

    /// Overall client mix (Fig. 10a): CN 31%, IN 9%, US 8%, RU 5%, BR 5%,
    /// TW 5%, MX 3%, IR 3%, long tail 31%.
    pub fn overall() -> Self {
        Self::from_weights(
            &[
                ("CN", 310),
                ("IN", 90),
                ("US", 80),
                ("RU", 50),
                ("BR", 50),
                ("TW", 50),
                ("MX", 30),
                ("IR", 30),
            ],
            310,
        )
    }

    /// Scanning (NO_CRED) sources: US, China, Taiwan, Russia, Iran lead.
    pub fn scanning() -> Self {
        Self::from_weights(
            &[
                ("CN", 300),
                ("US", 110),
                ("TW", 80),
                ("RU", 60),
                ("IR", 50),
                ("IN", 50),
                ("BR", 40),
            ],
            310,
        )
    }

    /// Scouting (FAIL_LOG) sources: US top, then CN, JP, VN, SG, IN (Asia-heavy).
    pub fn scouting() -> Self {
        Self::from_weights(
            &[
                ("US", 160),
                ("CN", 140),
                ("JP", 90),
                ("VN", 80),
                ("SG", 70),
                ("IN", 70),
            ],
            390,
        )
    }

    /// NO_CMD sources: RU, DE, US, VN, SE lead (datacenter-heavy).
    pub fn no_cmd() -> Self {
        Self::from_weights(
            &[
                ("RU", 220),
                ("DE", 130),
                ("US", 120),
                ("VN", 90),
                ("SE", 70),
            ],
            370,
        )
    }

    /// CMD (intrusion) sources: US, CN, JP, IN, BR lead.
    pub fn command() -> Self {
        Self::from_weights(
            &[
                ("US", 170),
                ("CN", 160),
                ("JP", 90),
                ("IN", 80),
                ("BR", 70),
                ("RU", 50),
                ("SA", 40),
            ],
            340,
        )
    }

    /// CMD+URI sources: US, NL, FR, BG, RO lead; Africa nearly absent.
    pub fn command_uri() -> Self {
        Self::from_weights(
            &[
                ("US", 230),
                ("NL", 130),
                ("FR", 110),
                ("BG", 90),
                ("RO", 90),
                ("DE", 60),
            ],
            290,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn overall_mix_marginals_match_paper() {
        let m = CountryMix::overall();
        let cn = country::by_code("CN").unwrap();
        let us = country::by_code("US").unwrap();
        // Tail mass is split with integer division, so marginals are within
        // a small rounding tolerance of the calibrated values.
        assert!((m.probability(cn) - 0.31).abs() < 5e-3);
        assert!((m.probability(us) - 0.08).abs() < 5e-3);
    }

    #[test]
    fn sampling_converges_to_weights() {
        let m = CountryMix::overall();
        let cn = country::by_code("CN").unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 200_000;
        let hits = (0..n).filter(|_| m.sample(&mut rng) == cn).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.31).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        for m in [
            CountryMix::overall(),
            CountryMix::scanning(),
            CountryMix::scouting(),
            CountryMix::no_cmd(),
            CountryMix::command(),
            CountryMix::command_uri(),
        ] {
            let total: f64 = (0..country::count() as u16)
                .map(|i| m.probability(CountryId(i)))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "total={total}");
        }
    }

    #[test]
    fn single_mix_is_degenerate() {
        let m = CountryMix::single("DE");
        let mut rng = SmallRng::seed_from_u64(1);
        let de = country::by_code("DE").unwrap();
        for _ in 0..100 {
            assert_eq!(m.sample(&mut rng), de);
        }
    }

    #[test]
    fn broad_support() {
        // Every calibrated mix must have a long tail (paper: clients come
        // from nearly everywhere).
        for m in [CountryMix::overall(), CountryMix::command()] {
            assert!(m.support() > 80, "support={}", m.support());
        }
    }

    #[test]
    #[should_panic]
    fn unknown_code_panics() {
        CountryMix::from_weights(&[("ZZ", 100)], 0);
    }
}
