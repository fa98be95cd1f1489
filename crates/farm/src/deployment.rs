//! The honeyfarm deployment plan.
//!
//! Section 4: "221 identically configured honeypots in 55 countries and 65
//! Autonomous Systems (ASes) … with a focus on residential networks", no
//! deployment in China (Section 7.6 caveat), and some countries (e.g. the US
//! and Singapore) hosting multiple honeypots (Fig. 1). The exact hosting
//! networks are anonymized in the paper, so the per-country node counts here
//! are a synthetic plan with the same cardinalities: 221 nodes, exactly 55
//! countries, exactly 65 ASes, no CN.

use hf_geo::{country, Asn, CountryId, Ip4, NetworkClass};
use hf_shell::SystemProfile;

/// One deployed honeypot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoneypotNode {
    /// Dense index (0..221) used everywhere as the honeypot id.
    pub id: u16,
    /// Public address of the node (synthetic benchmarking range).
    pub ip: Ip4,
    /// Country the node is hosted in.
    pub country: CountryId,
    /// Hosting AS.
    pub asn: Asn,
    /// Network class of the hosting AS.
    pub class: NetworkClass,
}

impl HoneypotNode {
    /// Machine profile the node's shell presents.
    pub fn profile(&self) -> SystemProfile {
        SystemProfile::for_node(self.id as u32)
    }
}

/// Per-country node counts: (ISO code, nodes, extra ASes beyond the first).
/// 55 entries summing to 221 nodes; extra-AS column sums to 10 so the farm
/// spans exactly 65 ASes.
const PLAN: &[(&str, u16, u16)] = &[
    ("US", 26, 4),
    ("SG", 12, 2),
    ("DE", 10, 1),
    ("GB", 8, 1),
    ("NL", 8, 0),
    ("FR", 8, 0),
    ("JP", 8, 1),
    ("BR", 7, 1),
    ("IN", 7, 0),
    ("AU", 6, 0),
    ("CA", 6, 0),
    ("IT", 5, 0),
    ("ES", 5, 0),
    ("PL", 5, 0),
    ("SE", 4, 0),
    ("RU", 4, 0),
    ("ZA", 4, 0),
    ("KR", 4, 0),
    ("MX", 4, 0),
    ("AR", 4, 0),
    ("TR", 3, 0),
    ("ID", 3, 0),
    ("TH", 3, 0),
    ("VN", 3, 0),
    ("MY", 3, 0),
    ("PH", 3, 0),
    ("CH", 3, 0),
    ("AT", 3, 0),
    ("BE", 3, 0),
    ("CZ", 3, 0),
    ("RO", 3, 0),
    ("BG", 2, 0),
    ("GR", 2, 0),
    ("PT", 2, 0),
    ("HU", 2, 0),
    ("FI", 2, 0),
    ("NO", 2, 0),
    ("DK", 2, 0),
    ("IE", 2, 0),
    ("UA", 2, 0),
    ("CL", 2, 0),
    ("CO", 2, 0),
    ("PE", 2, 0),
    ("EG", 2, 0),
    ("KE", 2, 0),
    ("NG", 2, 0),
    ("MA", 2, 0),
    ("HK", 2, 0),
    ("TW", 2, 0),
    ("NZ", 2, 0),
    ("IL", 1, 0),
    ("AE", 1, 0),
    ("SA", 1, 0),
    ("PK", 1, 0),
    ("LT", 1, 0),
];

/// First farm-side ASN (16-bit private range, distinct from the client-side
/// synthetic 32-bit range in `hf-geo`).
const FIRST_FARM_ASN: u32 = 64_512;

/// Hosts assigned per /24 block (`.1` – `.250`), leaving the network,
/// broadcast, and a small tail of each block unused.
const HOSTS_PER_BLOCK: u32 = 250;

/// Derive a node's public address inside 198.18.0.0/15, the RFC 2544
/// benchmarking range.
///
/// The range spans 512 /24 blocks (198.18.0.0/24 … 198.19.255.0/24); at
/// [`HOSTS_PER_BLOCK`] hosts per block it addresses 128 000 nodes, covering
/// the full `u16` id space. Every octet is derived with checked arithmetic —
/// the naive `(id / 250) as u8` truncates for ids ≥ 63 750 and silently
/// hands the same address to multiple nodes.
pub fn node_ip(id: u16) -> Ip4 {
    let block = id as u32 / HOSTS_PER_BLOCK;
    let host = (id as u32 % HOSTS_PER_BLOCK + 1) as u8;
    let (hi, lo) = (block / 256, block % 256);
    assert!(
        hi < 2,
        "node id {id} falls outside the 198.18.0.0/15 deployable range"
    );
    Ip4::new(198, 18 + hi as u8, lo as u8, host)
}

/// The full deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmPlan {
    /// All nodes, indexed by id.
    pub nodes: Vec<HoneypotNode>,
}

impl FarmPlan {
    /// The paper's deployment: 221 nodes / 55 countries / 65 ASes.
    pub fn paper() -> Self {
        let mut nodes = Vec::with_capacity(221);
        let mut next_asn = FIRST_FARM_ASN;
        let mut id: u16 = 0;
        for &(code, n_nodes, extra_ases) in PLAN {
            let ctry = country::by_code(code)
                .unwrap_or_else(|| panic!("deployment country {code} missing from catalog"));
            let n_ases = 1 + extra_ases;
            let ases: Vec<Asn> = (0..n_ases)
                .map(|_| {
                    let a = Asn(next_asn);
                    next_asn += 1;
                    a
                })
                .collect();
            for k in 0..n_nodes {
                let asn = ases[(k % n_ases) as usize];
                // Residential focus: ~4 of 5 nodes in eyeball space.
                let class = if id % 5 == 4 {
                    NetworkClass::Datacenter
                } else {
                    NetworkClass::Residential
                };
                nodes.push(HoneypotNode {
                    id,
                    ip: node_ip(id),
                    country: ctry,
                    asn,
                    class,
                });
                id += 1;
            }
        }
        FarmPlan { nodes }
    }

    /// Number of honeypots.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node by id.
    pub fn node(&self, id: u16) -> &HoneypotNode {
        &self.nodes[id as usize]
    }

    /// Distinct countries in the plan.
    pub fn countries(&self) -> Vec<CountryId> {
        let mut v: Vec<CountryId> = self.nodes.iter().map(|n| n.country).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct ASes in the plan.
    pub fn ases(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.nodes.iter().map(|n| n.asn).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Per-country node counts sorted descending (Figure 1's data).
    pub fn nodes_per_country(&self) -> Vec<(CountryId, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for n in &self.nodes {
            *counts.entry(n.country).or_insert(0usize) += 1;
        }
        let mut v: Vec<(CountryId, usize)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cardinalities() {
        let plan = FarmPlan::paper();
        assert_eq!(plan.len(), 221, "221 honeypots");
        assert_eq!(plan.countries().len(), 55, "55 countries");
        assert_eq!(plan.ases().len(), 65, "65 ASes");
    }

    #[test]
    fn no_deployment_in_china() {
        let plan = FarmPlan::paper();
        let cn = country::by_code("CN").unwrap();
        assert!(plan.nodes.iter().all(|n| n.country != cn));
    }

    #[test]
    fn us_and_sg_host_multiple() {
        let plan = FarmPlan::paper();
        let per = plan.nodes_per_country();
        let us = country::by_code("US").unwrap();
        let sg = country::by_code("SG").unwrap();
        let us_n = per.iter().find(|(c, _)| *c == us).unwrap().1;
        let sg_n = per.iter().find(|(c, _)| *c == sg).unwrap().1;
        assert!(us_n > 10);
        assert!(sg_n > 5);
        // Most countries host few nodes.
        assert!(per.iter().filter(|(_, n)| *n <= 2).count() >= 24);
    }

    #[test]
    fn node_ips_unique() {
        let plan = FarmPlan::paper();
        let mut ips: Vec<Ip4> = plan.nodes.iter().map(|n| n.ip).collect();
        ips.sort();
        let before = ips.len();
        ips.dedup();
        assert_eq!(ips.len(), before);
    }

    #[test]
    fn node_ips_unique_over_full_deployable_range() {
        // Regression: the old `(id / 250) as u8` derivation truncated for
        // ids ≥ 63 750, colliding e.g. id 64 000 with id 0.
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..=u16::MAX {
            let ip = node_ip(id);
            assert!(seen.insert(ip), "ip {ip:?} reused at node id {id}");
            // Every address stays inside 198.18.0.0/15 with a host octet
            // in .1 – .250.
            let [a, b, c, d] = ip.octets();
            assert_eq!(a, 198, "id {id}");
            assert!(b == 18 || b == 19, "id {id} escaped /15: {a}.{b}.{c}.{d}");
            assert!((1..=250).contains(&d), "id {id} host octet {d}");
        }
    }

    #[test]
    fn residential_focus() {
        let plan = FarmPlan::paper();
        let res = plan
            .nodes
            .iter()
            .filter(|n| n.class == NetworkClass::Residential)
            .count();
        assert!(res * 10 >= plan.len() * 7, "≥70% residential, got {res}");
    }

    #[test]
    fn every_as_has_a_node_and_one_country() {
        let plan = FarmPlan::paper();
        for asn in plan.ases() {
            let countries: std::collections::BTreeSet<_> = plan
                .nodes
                .iter()
                .filter(|n| n.asn == asn)
                .map(|n| n.country)
                .collect();
            assert_eq!(countries.len(), 1, "AS {asn} must be single-homed");
        }
    }

    #[test]
    fn profiles_deterministic() {
        let plan = FarmPlan::paper();
        assert_eq!(plan.node(7).profile(), plan.node(7).profile());
    }
}
