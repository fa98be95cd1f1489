//! The assembled synthetic Internet: AS population + prefix plan + lookups.
//!
//! `World::build` deterministically allocates a population of ASes across
//! countries (weighted by the overall client mix so AS density mirrors client
//! density), gives each AS one or more disjoint prefixes out of a synthetic
//! address plan, and freezes a longest-prefix-match table. The result answers
//! the two questions the paper asks MaxMind/routing data:
//!
//! - `locate(ip)` → (AS, country, continent)  — the MaxMind substitute,
//! - `region_relation(a, b)` → same country / same continent / different
//!   continent — the regional-diversity classifier of Section 7.6.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::asn::{AsInfo, Asn, NetworkClass};
use crate::country::{self, Continent, CountryId};
use crate::ip::Ip4;
use crate::mix::CountryMix;
use crate::prefix::{Prefix, PrefixTable};

/// Regional relation between a client and a honeypot (Section 7.6 / Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegionRelation {
    /// Same country (and therefore same continent).
    SameCountry,
    /// Different country, same continent.
    SameContinent,
    /// Different continent.
    DifferentContinent,
}

impl RegionRelation {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            RegionRelation::SameCountry => "in-country",
            RegionRelation::SameContinent => "in-continent",
            RegionRelation::DifferentContinent => "out-of-continent",
        }
    }
}

/// Configuration for building a [`World`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of client-side ASes to allocate. The paper observes clients from
    /// ~17.7k ASes; the default keeps that breadth even at reduced scale.
    pub client_as_count: u32,
    /// Fraction (permille) of client ASes per network class, in
    /// [`NetworkClass::ALL`] order. Must sum to 1000.
    pub class_permille: [u32; 5],
    /// Prefix length handed to each client AS (one prefix per AS plus a
    /// second one for ~20% of ASes, mirroring multi-prefix origins).
    pub client_prefix_len: u8,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            client_as_count: 17_700,
            // residential-heavy, some DC/cloud — matches the paper's focus.
            class_permille: [550, 200, 150, 40, 60],
            client_prefix_len: 20,
        }
    }
}

impl WorldConfig {
    /// A small world for fast unit tests.
    pub fn tiny() -> Self {
        WorldConfig {
            client_as_count: 300,
            class_permille: [550, 200, 150, 40, 60],
            client_prefix_len: 20,
        }
    }
}

/// The synthetic Internet.
#[derive(Debug, Clone)]
pub struct World {
    /// All allocated ASes, indexed by `Asn.0 - FIRST_ASN`.
    ases: Vec<AsInfo>,
    /// Routing table over all client prefixes.
    table: PrefixTable,
    /// Per-AS list of prefixes (parallel structure for allocation queries).
    as_prefixes: Vec<Vec<Prefix>>,
}

/// First synthetic ASN handed out.
const FIRST_ASN: u32 = 4_200_000_000; // private 32-bit ASN range

impl World {
    /// Deterministically build a world from a seed and config.
    pub fn build(seed: u64, cfg: &WorldConfig) -> Self {
        assert_eq!(
            cfg.class_permille.iter().sum::<u32>(),
            1000,
            "class_permille must sum to 1000"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mix = CountryMix::overall();

        let mut ases = Vec::with_capacity(cfg.client_as_count as usize);
        let mut as_prefixes: Vec<Vec<Prefix>> = Vec::with_capacity(cfg.client_as_count as usize);
        let mut table = PrefixTable::new();

        // Sequential, gap-free allocation cursor through synthetic space.
        // We walk 16.0.0.0 upward in client_prefix_len steps; this never
        // overlaps, so insert_unchecked is safe (freeze() verifies in debug).
        let step = 1u64 << (32 - cfg.client_prefix_len);
        let mut cursor: u64 = (16u64) << 24;

        for i in 0..cfg.client_as_count {
            let asn = Asn(FIRST_ASN + i);
            let class = Self::pick_class(&mut rng, &cfg.class_permille);
            let ctry = mix.sample(&mut rng);
            ases.push(AsInfo {
                asn,
                country: ctry,
                class,
            });
            let n_prefixes = if rng.gen_ratio(1, 5) { 2 } else { 1 };
            let mut prefixes = Vec::with_capacity(n_prefixes);
            for _ in 0..n_prefixes {
                assert!(
                    cursor + step <= u32::MAX as u64 + 1,
                    "address plan exhausted"
                );
                let p = Prefix::new(Ip4(cursor as u32), cfg.client_prefix_len);
                table.insert_unchecked(p, asn);
                prefixes.push(p);
                cursor += step;
            }
            as_prefixes.push(prefixes);
        }
        table.freeze();
        World {
            ases,
            table,
            as_prefixes,
        }
    }

    fn pick_class(rng: &mut SmallRng, permille: &[u32; 5]) -> NetworkClass {
        let x = rng.gen_range(0..1000u32);
        let mut acc = 0;
        for (i, &w) in permille.iter().enumerate() {
            acc += w;
            if x < acc {
                return NetworkClass::ALL[i];
            }
        }
        NetworkClass::ALL[4]
    }

    /// Info for an AS (panics on unknown synthetic ASN).
    pub fn as_info(&self, asn: Asn) -> &AsInfo {
        &self.ases[(asn.0 - FIRST_ASN) as usize]
    }

    /// All ASes.
    pub fn ases(&self) -> &[AsInfo] {
        &self.ases
    }

    /// ASes homed in a given country (linear scan; cached by callers that care).
    pub fn ases_in(&self, ctry: CountryId) -> Vec<Asn> {
        self.ases
            .iter()
            .filter(|a| a.country == ctry)
            .map(|a| a.asn)
            .collect()
    }

    /// MaxMind-substitute lookup: AS + country + continent of an address.
    pub fn locate(&self, ip: Ip4) -> Option<AsInfo> {
        self.table.lookup(ip).map(|r| *self.as_info(r.asn))
    }

    /// Draw a uniformly random address homed in `asn`.
    pub fn random_ip_in_as<R: Rng + ?Sized>(&self, asn: Asn, rng: &mut R) -> Ip4 {
        let prefixes = &self.as_prefixes[(asn.0 - FIRST_ASN) as usize];
        let total: u64 = prefixes.iter().map(|p| p.size()).sum();
        let mut i = rng.gen_range(0..total);
        for p in prefixes {
            if i < p.size() {
                return p.addr(i);
            }
            i -= p.size();
        }
        unreachable!("index within total size")
    }

    /// Draw a random address from a random AS in `ctry`; falls back to a
    /// uniformly random AS when the country has none (possible for tiny
    /// test worlds).
    pub fn random_ip_in_country<R: Rng + ?Sized>(&self, ctry: CountryId, rng: &mut R) -> Ip4 {
        // Rejection-sample ASes: country-weighted allocation makes hits fast
        // for the high-mass countries that dominate traffic.
        for _ in 0..64 {
            let idx = rng.gen_range(0..self.ases.len());
            if self.ases[idx].country == ctry {
                return self.random_ip_in_as(self.ases[idx].asn, rng);
            }
        }
        let all = self.ases_in(ctry);
        if let Some(&asn) = all.first() {
            return self.random_ip_in_as(asn, rng);
        }
        let idx = rng.gen_range(0..self.ases.len());
        self.random_ip_in_as(self.ases[idx].asn, rng)
    }

    /// Regional relation between two countries (Section 7.6).
    pub fn region_relation(a: CountryId, b: CountryId) -> RegionRelation {
        if a == b {
            RegionRelation::SameCountry
        } else if country::continent(a) == country::continent(b) {
            RegionRelation::SameContinent
        } else {
            RegionRelation::DifferentContinent
        }
    }

    /// Continent of a country (re-exported for convenience).
    pub fn continent(c: CountryId) -> Continent {
        country::continent(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = World::build(42, &WorldConfig::tiny());
        let b = World::build(42, &WorldConfig::tiny());
        assert_eq!(a.ases(), b.ases());
        let ip = Ip4::parse("16.0.5.1").unwrap();
        assert_eq!(a.locate(ip).map(|i| i.asn), b.locate(ip).map(|i| i.asn));
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::build(1, &WorldConfig::tiny());
        let b = World::build(2, &WorldConfig::tiny());
        assert_ne!(a.ases(), b.ases());
    }

    #[test]
    fn every_allocated_ip_locates_to_its_as() {
        let w = World::build(7, &WorldConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(3);
        for info in w.ases().iter().take(50) {
            let ip = w.random_ip_in_as(info.asn, &mut rng);
            let found = w.locate(ip).expect("allocated ip must be routable");
            assert_eq!(found.asn, info.asn);
            assert_eq!(found.country, info.country);
        }
    }

    #[test]
    fn country_sampling_lands_in_country() {
        let w = World::build(7, &WorldConfig::tiny());
        let cn = country::by_code("CN").unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..20 {
            let ip = w.random_ip_in_country(cn, &mut rng);
            assert_eq!(w.locate(ip).unwrap().country, cn);
        }
    }

    #[test]
    fn as_country_distribution_mirrors_mix() {
        let w = World::build(11, &WorldConfig::default());
        let cn = country::by_code("CN").unwrap();
        let frac =
            w.ases().iter().filter(|a| a.country == cn).count() as f64 / w.ases().len() as f64;
        assert!((frac - 0.31).abs() < 0.02, "CN AS fraction {frac}");
    }

    #[test]
    fn region_relations() {
        let us = country::by_code("US").unwrap();
        let ca = country::by_code("CA").unwrap();
        let cn = country::by_code("CN").unwrap();
        assert_eq!(World::region_relation(us, us), RegionRelation::SameCountry);
        assert_eq!(
            World::region_relation(us, ca),
            RegionRelation::SameContinent
        );
        assert_eq!(
            World::region_relation(us, cn),
            RegionRelation::DifferentContinent
        );
    }

    #[test]
    fn unrouted_space_locates_to_none() {
        let w = World::build(5, &WorldConfig::tiny());
        assert!(w.locate(Ip4::parse("1.1.1.1").unwrap()).is_none());
    }
}
