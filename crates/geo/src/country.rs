//! Country and continent catalog.
//!
//! A fixed list of countries (ISO 3166-1 alpha-2 codes) large enough to cover
//! both the honeyfarm deployment (55 countries) and the client-origin mixes
//! the paper reports. Countries are referenced by a dense [`CountryId`] so the
//! analysis can use arrays instead of string maps.

/// Continent, also used as the paper's "region" for regional-diversity
/// analysis (same country / same continent / different continent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Continent {
    Africa,
    Asia,
    Europe,
    NorthAmerica,
    SouthAmerica,
    Oceania,
}

impl Continent {
    /// Short code used in reports.
    pub fn code(self) -> &'static str {
        match self {
            Continent::Africa => "AF",
            Continent::Asia => "AS",
            Continent::Europe => "EU",
            Continent::NorthAmerica => "NA",
            Continent::SouthAmerica => "SA",
            Continent::Oceania => "OC",
        }
    }
}

impl std::fmt::Display for Continent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Dense country index into [`CATALOG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CountryId(pub u16);

/// A catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Country {
    /// ISO 3166-1 alpha-2 code.
    pub code: &'static str,
    /// English short name.
    pub name: &'static str,
    /// Continent / region.
    pub continent: Continent,
}

use Continent::*;

/// The country catalog. Order is stable: `CountryId(i)` indexes this array.
pub const CATALOG: &[Country] = &[
    Country {
        code: "US",
        name: "United States",
        continent: NorthAmerica,
    },
    Country {
        code: "CN",
        name: "China",
        continent: Asia,
    },
    Country {
        code: "IN",
        name: "India",
        continent: Asia,
    },
    Country {
        code: "RU",
        name: "Russia",
        continent: Europe,
    },
    Country {
        code: "BR",
        name: "Brazil",
        continent: SouthAmerica,
    },
    Country {
        code: "TW",
        name: "Taiwan",
        continent: Asia,
    },
    Country {
        code: "MX",
        name: "Mexico",
        continent: NorthAmerica,
    },
    Country {
        code: "IR",
        name: "Iran",
        continent: Asia,
    },
    Country {
        code: "JP",
        name: "Japan",
        continent: Asia,
    },
    Country {
        code: "VN",
        name: "Vietnam",
        continent: Asia,
    },
    Country {
        code: "SG",
        name: "Singapore",
        continent: Asia,
    },
    Country {
        code: "DE",
        name: "Germany",
        continent: Europe,
    },
    Country {
        code: "SE",
        name: "Sweden",
        continent: Europe,
    },
    Country {
        code: "NL",
        name: "Netherlands",
        continent: Europe,
    },
    Country {
        code: "FR",
        name: "France",
        continent: Europe,
    },
    Country {
        code: "BG",
        name: "Bulgaria",
        continent: Europe,
    },
    Country {
        code: "RO",
        name: "Romania",
        continent: Europe,
    },
    Country {
        code: "GB",
        name: "United Kingdom",
        continent: Europe,
    },
    Country {
        code: "IT",
        name: "Italy",
        continent: Europe,
    },
    Country {
        code: "CA",
        name: "Canada",
        continent: NorthAmerica,
    },
    Country {
        code: "CH",
        name: "Switzerland",
        continent: Europe,
    },
    Country {
        code: "LT",
        name: "Lithuania",
        continent: Europe,
    },
    Country {
        code: "KR",
        name: "South Korea",
        continent: Asia,
    },
    Country {
        code: "HK",
        name: "Hong Kong",
        continent: Asia,
    },
    Country {
        code: "ID",
        name: "Indonesia",
        continent: Asia,
    },
    Country {
        code: "TH",
        name: "Thailand",
        continent: Asia,
    },
    Country {
        code: "MY",
        name: "Malaysia",
        continent: Asia,
    },
    Country {
        code: "PH",
        name: "Philippines",
        continent: Asia,
    },
    Country {
        code: "PK",
        name: "Pakistan",
        continent: Asia,
    },
    Country {
        code: "BD",
        name: "Bangladesh",
        continent: Asia,
    },
    Country {
        code: "TR",
        name: "Turkey",
        continent: Asia,
    },
    Country {
        code: "SA",
        name: "Saudi Arabia",
        continent: Asia,
    },
    Country {
        code: "AE",
        name: "United Arab Emirates",
        continent: Asia,
    },
    Country {
        code: "IL",
        name: "Israel",
        continent: Asia,
    },
    Country {
        code: "KZ",
        name: "Kazakhstan",
        continent: Asia,
    },
    Country {
        code: "UA",
        name: "Ukraine",
        continent: Europe,
    },
    Country {
        code: "PL",
        name: "Poland",
        continent: Europe,
    },
    Country {
        code: "CZ",
        name: "Czechia",
        continent: Europe,
    },
    Country {
        code: "AT",
        name: "Austria",
        continent: Europe,
    },
    Country {
        code: "BE",
        name: "Belgium",
        continent: Europe,
    },
    Country {
        code: "ES",
        name: "Spain",
        continent: Europe,
    },
    Country {
        code: "PT",
        name: "Portugal",
        continent: Europe,
    },
    Country {
        code: "GR",
        name: "Greece",
        continent: Europe,
    },
    Country {
        code: "HU",
        name: "Hungary",
        continent: Europe,
    },
    Country {
        code: "SK",
        name: "Slovakia",
        continent: Europe,
    },
    Country {
        code: "SI",
        name: "Slovenia",
        continent: Europe,
    },
    Country {
        code: "HR",
        name: "Croatia",
        continent: Europe,
    },
    Country {
        code: "RS",
        name: "Serbia",
        continent: Europe,
    },
    Country {
        code: "MD",
        name: "Moldova",
        continent: Europe,
    },
    Country {
        code: "LV",
        name: "Latvia",
        continent: Europe,
    },
    Country {
        code: "EE",
        name: "Estonia",
        continent: Europe,
    },
    Country {
        code: "FI",
        name: "Finland",
        continent: Europe,
    },
    Country {
        code: "NO",
        name: "Norway",
        continent: Europe,
    },
    Country {
        code: "DK",
        name: "Denmark",
        continent: Europe,
    },
    Country {
        code: "IE",
        name: "Ireland",
        continent: Europe,
    },
    Country {
        code: "AR",
        name: "Argentina",
        continent: SouthAmerica,
    },
    Country {
        code: "CL",
        name: "Chile",
        continent: SouthAmerica,
    },
    Country {
        code: "CO",
        name: "Colombia",
        continent: SouthAmerica,
    },
    Country {
        code: "PE",
        name: "Peru",
        continent: SouthAmerica,
    },
    Country {
        code: "EC",
        name: "Ecuador",
        continent: SouthAmerica,
    },
    Country {
        code: "VE",
        name: "Venezuela",
        continent: SouthAmerica,
    },
    Country {
        code: "UY",
        name: "Uruguay",
        continent: SouthAmerica,
    },
    Country {
        code: "PA",
        name: "Panama",
        continent: NorthAmerica,
    },
    Country {
        code: "CR",
        name: "Costa Rica",
        continent: NorthAmerica,
    },
    Country {
        code: "GT",
        name: "Guatemala",
        continent: NorthAmerica,
    },
    Country {
        code: "DO",
        name: "Dominican Republic",
        continent: NorthAmerica,
    },
    Country {
        code: "ZA",
        name: "South Africa",
        continent: Africa,
    },
    Country {
        code: "EG",
        name: "Egypt",
        continent: Africa,
    },
    Country {
        code: "NG",
        name: "Nigeria",
        continent: Africa,
    },
    Country {
        code: "KE",
        name: "Kenya",
        continent: Africa,
    },
    Country {
        code: "MA",
        name: "Morocco",
        continent: Africa,
    },
    Country {
        code: "TN",
        name: "Tunisia",
        continent: Africa,
    },
    Country {
        code: "GH",
        name: "Ghana",
        continent: Africa,
    },
    Country {
        code: "SN",
        name: "Senegal",
        continent: Africa,
    },
    Country {
        code: "MU",
        name: "Mauritius",
        continent: Africa,
    },
    Country {
        code: "AU",
        name: "Australia",
        continent: Oceania,
    },
    Country {
        code: "NZ",
        name: "New Zealand",
        continent: Oceania,
    },
    Country {
        code: "FJ",
        name: "Fiji",
        continent: Oceania,
    },
    Country {
        code: "NP",
        name: "Nepal",
        continent: Asia,
    },
    Country {
        code: "LK",
        name: "Sri Lanka",
        continent: Asia,
    },
    Country {
        code: "MM",
        name: "Myanmar",
        continent: Asia,
    },
    Country {
        code: "KH",
        name: "Cambodia",
        continent: Asia,
    },
    Country {
        code: "MN",
        name: "Mongolia",
        continent: Asia,
    },
    Country {
        code: "UZ",
        name: "Uzbekistan",
        continent: Asia,
    },
    Country {
        code: "GE",
        name: "Georgia",
        continent: Asia,
    },
    Country {
        code: "AM",
        name: "Armenia",
        continent: Asia,
    },
    Country {
        code: "AZ",
        name: "Azerbaijan",
        continent: Asia,
    },
    Country {
        code: "QA",
        name: "Qatar",
        continent: Asia,
    },
    Country {
        code: "KW",
        name: "Kuwait",
        continent: Asia,
    },
    Country {
        code: "JO",
        name: "Jordan",
        continent: Asia,
    },
    Country {
        code: "IS",
        name: "Iceland",
        continent: Europe,
    },
    Country {
        code: "LU",
        name: "Luxembourg",
        continent: Europe,
    },
    Country {
        code: "CY",
        name: "Cyprus",
        continent: Europe,
    },
    Country {
        code: "MT",
        name: "Malta",
        continent: Europe,
    },
    Country {
        code: "AL",
        name: "Albania",
        continent: Europe,
    },
    Country {
        code: "MK",
        name: "North Macedonia",
        continent: Europe,
    },
    Country {
        code: "BA",
        name: "Bosnia and Herzegovina",
        continent: Europe,
    },
    Country {
        code: "BY",
        name: "Belarus",
        continent: Europe,
    },
];

/// Number of countries in the catalog.
pub fn count() -> usize {
    CATALOG.len()
}

/// Look up a country by dense id. Panics on out-of-range ids (they can only be
/// produced by corrupting a `CountryId`).
pub fn get(id: CountryId) -> &'static Country {
    &CATALOG[id.0 as usize]
}

/// Find a country id by ISO code.
pub fn by_code(code: &str) -> Option<CountryId> {
    CATALOG
        .iter()
        .position(|c| c.code == code)
        .map(|i| CountryId(i as u16))
}

/// Continent of a country id.
pub fn continent(id: CountryId) -> Continent {
    get(id).continent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<&str> = CATALOG.iter().map(|c| c.code).collect();
        codes.sort();
        let before = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), before, "duplicate ISO code in catalog");
    }

    #[test]
    fn catalog_is_large_enough_for_deployment() {
        // The farm spans 55 countries and the client mixes reference ~30 more.
        assert!(count() >= 90, "catalog has {} countries", count());
    }

    #[test]
    fn lookup_by_code() {
        let cn = by_code("CN").unwrap();
        assert_eq!(get(cn).name, "China");
        assert_eq!(continent(cn), Continent::Asia);
        assert_eq!(by_code("XX"), None);
    }

    #[test]
    fn continent_codes() {
        assert_eq!(Continent::Asia.code(), "AS");
        assert_eq!(Continent::NorthAmerica.to_string(), "NA");
    }

    #[test]
    fn all_continents_present() {
        use std::collections::BTreeSet;
        let set: BTreeSet<&str> = CATALOG.iter().map(|c| c.continent.code()).collect();
        assert_eq!(set.len(), 6);
    }
}
