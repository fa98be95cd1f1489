//! Federated honeyfarms (paper Section 9, "Federated Honeyfarms").
//!
//! The paper argues that since even the best honeypot sees <5% of all hashes,
//! independent honeyfarm operators should share data: federation "will
//! substantially improve the visibility of activities … but also has the
//! potential to identify such activity earlier". This module quantifies that
//! argument over our datasets: given several farms' aggregates, it computes
//! the hash-coverage gain and the detection-latency gain of pooling.

use std::collections::HashMap;

use hf_farm::Dataset;
use hf_hash::Digest;

/// Per-farm view of hash sightings: hash → first-seen day.
#[derive(Debug, Clone, Default)]
pub struct FarmSightings {
    /// Farm label.
    pub name: String,
    /// First day each hash was observed by this farm.
    pub first_seen: HashMap<Digest, u32>,
}

impl FarmSightings {
    /// Extract sightings from a dataset.
    pub fn from_dataset(name: &str, dataset: &Dataset) -> FarmSightings {
        let mut first_seen: HashMap<Digest, u32> = HashMap::new();
        for v in dataset.sessions.iter() {
            let day = v.day();
            for h in v.file_hashes() {
                first_seen
                    .entry(h)
                    .and_modify(|d| *d = (*d).min(day))
                    .or_insert(day);
            }
        }
        FarmSightings {
            name: name.to_string(),
            first_seen,
        }
    }

    /// Number of distinct hashes this farm saw.
    pub fn coverage(&self) -> usize {
        self.first_seen.len()
    }
}

/// Result of federating several farms.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// Per-farm (name, distinct hashes seen).
    pub per_farm: Vec<(String, usize)>,
    /// Distinct hashes in the union.
    pub union_coverage: usize,
    /// Hashes seen by every member (the "easy" intersection).
    pub intersection_coverage: usize,
    /// Coverage gain of the union over the best single farm.
    pub coverage_gain: f64,
    /// Over hashes seen by ≥2 farms: mean days by which the earliest
    /// observer beats the average observer — the early-warning value of
    /// sharing.
    pub mean_detection_lead_days: f64,
    /// Hashes where federation would have warned at least one member ≥7
    /// days before it saw the hash itself.
    pub week_early_warnings: usize,
}

/// Federate any number of farms' sightings.
pub fn federate(farms: &[FarmSightings]) -> FederationReport {
    assert!(!farms.is_empty(), "federation needs at least one farm");
    let per_farm: Vec<(String, usize)> = farms
        .iter()
        .map(|f| (f.name.clone(), f.coverage()))
        .collect();
    // Union and per-hash observation lists.
    let mut sightings: HashMap<Digest, Vec<u32>> = HashMap::new();
    for farm in farms {
        for (&h, &d) in &farm.first_seen {
            sightings.entry(h).or_default().push(d);
        }
    }
    let union_coverage = sightings.len();
    let intersection_coverage = sightings
        .values()
        .filter(|days| days.len() == farms.len())
        .count();
    let best_single = per_farm.iter().map(|(_, c)| *c).max().unwrap_or(0);

    let mut lead_sum = 0.0;
    let mut lead_n = 0u64;
    let mut week_early = 0usize;
    for days in sightings.values() {
        if days.len() < 2 {
            continue;
        }
        let earliest = *days.iter().min().unwrap() as f64;
        let mean = days.iter().map(|&d| d as f64).sum::<f64>() / days.len() as f64;
        lead_sum += mean - earliest;
        lead_n += 1;
        if days.iter().any(|&d| d as f64 - earliest >= 7.0) {
            week_early += 1;
        }
    }
    FederationReport {
        per_farm,
        union_coverage,
        intersection_coverage,
        coverage_gain: if best_single == 0 {
            0.0
        } else {
            union_coverage as f64 / best_single as f64
        },
        mean_detection_lead_days: if lead_n == 0 {
            0.0
        } else {
            lead_sum / lead_n as f64
        },
        week_early_warnings: week_early,
    }
}

impl std::fmt::Display for FederationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, cov) in &self.per_farm {
            writeln!(f, "farm {name:<12} sees {cov:>7} distinct hashes")?;
        }
        writeln!(
            f,
            "union               {:>7} ({:.2}x the best single farm)",
            self.union_coverage, self.coverage_gain
        )?;
        writeln!(f, "seen by all members {:>7}", self.intersection_coverage)?;
        writeln!(
            f,
            "mean detection lead {:>9.1} days on shared hashes; {} hashes with ≥7-day early warning",
            self.mean_detection_lead_days, self.week_early_warnings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_sim::{SimConfig, Simulation};
    use hf_simclock::StudyWindow;

    fn farm(seed: u64) -> FarmSightings {
        let out = Simulation::run(SimConfig {
            seed,
            scale: hf_agents::Scale::tiny(),
            window: StudyWindow::first_days(25),
            ..SimConfig::default()
        });
        FarmSightings::from_dataset(&format!("farm-{seed}"), &out.dataset)
    }

    #[test]
    fn union_exceeds_best_single_farm() {
        let a = farm(1);
        let b = farm(2);
        let rep = federate(&[a.clone(), b.clone()]);
        assert_eq!(rep.per_farm.len(), 2);
        assert!(rep.union_coverage >= a.coverage().max(b.coverage()));
        // Different seeds → mostly different tail campaigns → real gain.
        assert!(
            rep.coverage_gain > 1.3,
            "federation gain {} (a {}, b {}, union {})",
            rep.coverage_gain,
            a.coverage(),
            b.coverage(),
            rep.union_coverage
        );
    }

    #[test]
    fn intersection_bounded_by_members() {
        let a = farm(3);
        let b = farm(4);
        let rep = federate(&[a.clone(), b.clone()]);
        assert!(rep.intersection_coverage <= a.coverage().min(b.coverage()));
    }

    #[test]
    fn single_farm_is_identity() {
        let a = farm(5);
        let rep = federate(std::slice::from_ref(&a));
        assert_eq!(rep.union_coverage, a.coverage());
        assert!((rep.coverage_gain - 1.0).abs() < 1e-12);
        assert_eq!(rep.mean_detection_lead_days, 0.0);
        let _ = rep.to_string();
    }

    #[test]
    fn detection_lead_nonnegative() {
        let rep = federate(&[farm(6), farm(7), farm(8)]);
        assert!(rep.mean_detection_lead_days >= 0.0);
    }
}
