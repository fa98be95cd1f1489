//! Autonomous systems.
//!
//! The paper reports client IPs from ~17.7k ASes and a honeyfarm deployed in
//! 65 ASes "with a focus on residential networks" (Section 4). We model an AS
//! as an anonymized number, a home country, and a coarse network class — the
//! three attributes the paper's analysis actually uses (it explicitly
//! anonymizes AS identities, reporting only counts and network types).

use crate::country::CountryId;

/// Autonomous system number (synthetic, anonymized — matching the paper's
/// ethics posture of never naming networks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u32);

impl std::fmt::Display for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Coarse network class of an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkClass {
    /// Eyeball / residential broadband.
    Residential,
    /// Hosting / datacenter (e.g. the Russian datacenter prefix behind the
    /// paper's NO_CMD surges).
    Datacenter,
    /// Hyperscale cloud.
    Cloud,
    /// Academic / research.
    Academic,
    /// Mobile carrier.
    Mobile,
}

impl NetworkClass {
    /// All classes, for iteration in reports.
    pub const ALL: [NetworkClass; 5] = [
        NetworkClass::Residential,
        NetworkClass::Datacenter,
        NetworkClass::Cloud,
        NetworkClass::Academic,
        NetworkClass::Mobile,
    ];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            NetworkClass::Residential => "residential",
            NetworkClass::Datacenter => "datacenter",
            NetworkClass::Cloud => "cloud",
            NetworkClass::Academic => "academic",
            NetworkClass::Mobile => "mobile",
        }
    }
}

/// Registry record for one AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Country the AS is homed in.
    pub country: CountryId,
    /// Coarse network class.
    pub class: NetworkClass,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        assert_eq!(Asn(64512).to_string(), "AS64512");
    }

    #[test]
    fn class_labels_unique() {
        let mut labels: Vec<&str> = NetworkClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), NetworkClass::ALL.len());
    }
}
