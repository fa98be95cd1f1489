//! Compact IPv4 address type used across the simulation.
//!
//! A `u32` newtype rather than `std::net::Ipv4Addr` because the simulator does
//! arithmetic on addresses (prefix masking, sequential allocation) and stores
//! hundreds of thousands of them in columnar form.

/// An IPv4 address as a big-endian u32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip4(pub u32);

impl Ip4 {
    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ip4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | (d as u32))
    }

    /// Octets in network order.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Parse dotted-quad notation.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('.');
        let mut octs = [0u8; 4];
        for o in octs.iter_mut() {
            let p = parts.next()?;
            // Reject empty / oversized / non-numeric components.
            if p.is_empty() || p.len() > 3 {
                return None;
            }
            *o = p.parse().ok()?;
        }
        if parts.next().is_some() {
            return None;
        }
        Some(Ip4::new(octs[0], octs[1], octs[2], octs[3]))
    }
}

impl From<std::net::Ipv4Addr> for Ip4 {
    fn from(a: std::net::Ipv4Addr) -> Self {
        Ip4(u32::from(a))
    }
}

impl std::fmt::Display for Ip4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn octet_roundtrip() {
        let ip = Ip4::new(192, 0, 2, 17);
        assert_eq!(ip.octets(), [192, 0, 2, 17]);
        assert_eq!(ip.to_string(), "192.0.2.17");
    }

    #[test]
    fn parse_valid() {
        assert_eq!(Ip4::parse("10.0.0.1"), Some(Ip4::new(10, 0, 0, 1)));
        assert_eq!(Ip4::parse("255.255.255.255"), Some(Ip4(0xffff_ffff)));
        assert_eq!(Ip4::parse("0.0.0.0"), Some(Ip4(0)));
    }

    #[test]
    fn parse_invalid() {
        for s in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "a.b.c.d",
            "1..2.3",
            "1.2.3.1234",
        ] {
            assert_eq!(Ip4::parse(s), None, "should reject {s:?}");
        }
    }

    proptest! {
        #[test]
        fn prop_display_parse_roundtrip(v: u32) {
            let ip = Ip4(v);
            prop_assert_eq!(Ip4::parse(&ip.to_string()), Some(ip));
        }
    }
}
