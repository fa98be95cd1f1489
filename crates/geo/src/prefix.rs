//! IPv4 prefixes and a longest-prefix-match table.
//!
//! This is the synthetic routing table behind the MaxMind-substitute lookups:
//! every AS owns one or more disjoint prefixes, and `PrefixTable::lookup` maps
//! any covered address to its AS. Lookup is a binary search over prefixes
//! sorted by network address; because the allocator only hands out disjoint
//! prefixes, the predecessor prefix is the unique candidate.

use crate::asn::Asn;
use crate::ip::Ip4;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    /// Network address (host bits zero).
    pub net: Ip4,
    /// Prefix length in bits, 0..=32.
    pub len: u8,
}

impl Prefix {
    /// Construct, masking out host bits.
    pub fn new(net: Ip4, len: u8) -> Self {
        assert!(len <= 32);
        Prefix {
            net: Ip4(net.0 & Self::mask(len)),
            len,
        }
    }

    /// Netmask for a prefix length.
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Does this prefix cover `ip`?
    pub fn contains(&self, ip: Ip4) -> bool {
        (ip.0 & Self::mask(self.len)) == self.net.0
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// First address in the prefix.
    pub fn first(&self) -> Ip4 {
        self.net
    }

    /// Last address in the prefix.
    pub fn last(&self) -> Ip4 {
        Ip4(self.net.0 | !Self::mask(self.len))
    }

    /// The `i`-th address within the prefix (0-based). Panics if out of range.
    pub fn addr(&self, i: u64) -> Ip4 {
        assert!(i < self.size());
        Ip4(self.net.0 + i as u32)
    }

    /// Do two prefixes overlap?
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.contains(other.net) || other.contains(self.net)
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.net, self.len)
    }
}

/// A routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The prefix.
    pub prefix: Prefix,
    /// Originating AS.
    pub asn: Asn,
}

/// Longest-prefix-match table over disjoint prefixes.
#[derive(Debug, Clone, Default)]
pub struct PrefixTable {
    /// Routes sorted by network address. Maintained disjoint by `insert`.
    routes: Vec<Route>,
    /// Whether `routes` is currently sorted (lazily re-sorted before lookup).
    sorted: bool,
}

impl PrefixTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a route. Returns `false` (and does not insert) if the prefix
    /// overlaps an existing route — the synthetic allocator never produces
    /// overlaps, so this doubles as an integrity check.
    pub fn insert(&mut self, prefix: Prefix, asn: Asn) -> bool {
        if self.routes.iter().any(|r| r.prefix.overlaps(&prefix)) {
            return false;
        }
        self.routes.push(Route { prefix, asn });
        self.sorted = false;
        true
    }

    /// Bulk insert without the O(n) overlap scan; caller guarantees
    /// disjointness (used by the deterministic allocator). Debug builds still
    /// verify after `freeze`.
    pub fn insert_unchecked(&mut self, prefix: Prefix, asn: Asn) {
        self.routes.push(Route { prefix, asn });
        self.sorted = false;
    }

    /// Sort and (in debug builds) verify disjointness.
    pub fn freeze(&mut self) {
        self.routes.sort_by_key(|r| (r.prefix.net, r.prefix.len));
        self.sorted = true;
        debug_assert!(
            self.routes
                .windows(2)
                .all(|w| !w[0].prefix.overlaps(&w[1].prefix)),
            "overlapping prefixes in table"
        );
    }

    /// Look up the route covering `ip`, if any.
    pub fn lookup(&self, ip: Ip4) -> Option<Route> {
        assert!(self.sorted, "call freeze() before lookup()");
        // Find the last route with net <= ip; disjointness makes it unique.
        let idx = self.routes.partition_point(|r| r.prefix.net.0 <= ip.0);
        if idx == 0 {
            return None;
        }
        let r = self.routes[idx - 1];
        r.prefix.contains(ip).then_some(r)
    }

    /// All routes (sorted if frozen).
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str, len: u8) -> Prefix {
        Prefix::new(Ip4::parse(s).unwrap(), len)
    }

    #[test]
    fn prefix_basics() {
        let pre = p("10.1.2.3", 16);
        assert_eq!(pre.net, Ip4::parse("10.1.0.0").unwrap());
        assert_eq!(pre.size(), 65_536);
        assert_eq!(pre.first(), Ip4::parse("10.1.0.0").unwrap());
        assert_eq!(pre.last(), Ip4::parse("10.1.255.255").unwrap());
        assert!(pre.contains(Ip4::parse("10.1.200.7").unwrap()));
        assert!(!pre.contains(Ip4::parse("10.2.0.0").unwrap()));
        assert_eq!(pre.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn addr_indexing() {
        let pre = p("192.0.2.0", 24);
        assert_eq!(pre.addr(0), Ip4::parse("192.0.2.0").unwrap());
        assert_eq!(pre.addr(255), Ip4::parse("192.0.2.255").unwrap());
    }

    #[test]
    fn overlap_detection() {
        assert!(p("10.0.0.0", 8).overlaps(&p("10.5.0.0", 16)));
        assert!(p("10.5.0.0", 16).overlaps(&p("10.0.0.0", 8)));
        assert!(!p("10.0.0.0", 16).overlaps(&p("10.1.0.0", 16)));
    }

    #[test]
    fn table_lookup() {
        let mut t = PrefixTable::new();
        assert!(t.insert(p("10.0.0.0", 16), Asn(1)));
        assert!(t.insert(p("10.1.0.0", 16), Asn(2)));
        assert!(t.insert(p("172.16.0.0", 12), Asn(3)));
        assert!(
            !t.insert(p("10.0.128.0", 24), Asn(4)),
            "overlap must be rejected"
        );
        t.freeze();
        assert_eq!(
            t.lookup(Ip4::parse("10.0.3.4").unwrap()).unwrap().asn,
            Asn(1)
        );
        assert_eq!(
            t.lookup(Ip4::parse("10.1.255.255").unwrap()).unwrap().asn,
            Asn(2)
        );
        assert_eq!(
            t.lookup(Ip4::parse("172.31.0.1").unwrap()).unwrap().asn,
            Asn(3)
        );
        assert_eq!(t.lookup(Ip4::parse("11.0.0.0").unwrap()), None);
        assert_eq!(t.lookup(Ip4::parse("9.255.255.255").unwrap()), None);
    }

    #[test]
    fn zero_length_prefix_covers_everything() {
        let mut t = PrefixTable::new();
        t.insert(p("0.0.0.0", 0), Asn(9));
        t.freeze();
        assert_eq!(t.lookup(Ip4(0)).unwrap().asn, Asn(9));
        assert_eq!(t.lookup(Ip4(u32::MAX)).unwrap().asn, Asn(9));
    }

    proptest! {
        /// Every address inside an inserted prefix resolves to its AS, for a
        /// deterministic non-overlapping layout of /16s.
        #[test]
        fn prop_lookup_consistent(block in 0u32..256, host in 0u32..65_536) {
            let mut t = PrefixTable::new();
            // 10.0.0.0/16 .. 10.255.0.0/16 owned by ASN = second octet.
            for b in 0..256u32 {
                t.insert_unchecked(
                    Prefix::new(Ip4((10 << 24) | (b << 16)), 16),
                    Asn(b),
                );
            }
            t.freeze();
            let ip = Ip4((10 << 24) | (block << 16) | host);
            prop_assert_eq!(t.lookup(ip).unwrap().asn, Asn(block));
        }
    }
}
