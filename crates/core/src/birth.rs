//! "The Birth of a Honeyfarm" (paper Section 9).
//!
//! The farm went live on previously unused addresses, so the paper can watch
//! the Internet *discover* it: intrusion activity arrives essentially from
//! day one, scouting ramps up after about a month, scanning after about two,
//! and activity never drops off — attackers never bothered blacklisting the
//! honeypots. This module computes that discovery timeline from a dataset.

use crate::aggregates::Aggregates;
use crate::classify::BehaviorClass;

/// Weekly activity by behaviour class.
#[derive(Debug, Clone, PartialEq)]
pub struct BirthWeek {
    /// Week index since farm launch (0-based).
    pub week: u32,
    /// Scanning (NO_CRED) sessions.
    pub scanning: u64,
    /// Scouting (FAIL_LOG) sessions.
    pub scouting: u64,
    /// Intrusion (NO_CMD/CMD/CMD+URI) sessions.
    pub intrusion: u64,
}

impl BirthWeek {
    /// Total sessions in the week.
    pub fn total(&self) -> u64 {
        self.scanning + self.scouting + self.intrusion
    }
}

/// The discovery timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BirthReport {
    /// One row per week.
    pub weeks: Vec<BirthWeek>,
    /// First week in which scouting exceeds its first-week level by ≥50%
    /// (the paper: "more than a month until the level of scouting increases").
    pub scouting_rampup_week: Option<u32>,
    /// Same for scanning (paper: "more than 6 months for scanning" in IP
    /// terms; session volume ramps after ~2 months).
    pub scanning_rampup_week: Option<u32>,
    /// Ratio of the last month's total activity to the peak month — close to
    /// 1.0 means no drop-off ("attackers did not bother blacklisting").
    pub final_month_vs_peak: f64,
}

/// Compute the birth timeline.
pub fn birth_report(agg: &Aggregates) -> BirthReport {
    let n_weeks = agg.n_days.div_ceil(7);
    let mut weeks: Vec<BirthWeek> = (0..n_weeks)
        .map(|week| BirthWeek {
            week,
            scanning: 0,
            scouting: 0,
            intrusion: 0,
        })
        .collect();
    for day in 0..agg.n_days as usize {
        let w = day / 7;
        for ci in 0..5 {
            let count = agg.day_by_cat[ci][day];
            let class = crate::classify::Category::from_index(ci).behavior();
            match class {
                BehaviorClass::Scanning => weeks[w].scanning += count,
                BehaviorClass::Scouting => weeks[w].scouting += count,
                BehaviorClass::Intrusion => weeks[w].intrusion += count,
            }
        }
    }

    let rampup = |get: fn(&BirthWeek) -> u64| -> Option<u32> {
        let base = weeks.first().map(get)?;
        weeks
            .iter()
            .find(|w| get(w) as f64 >= base as f64 * 1.5)
            .map(|w| w.week)
    };

    // Monthly totals for the drop-off check.
    let monthly: Vec<u64> = weeks
        .chunks(4)
        .map(|c| c.iter().map(|w| w.total()).sum())
        .collect();
    let peak = monthly.iter().copied().max().unwrap_or(0);
    // Last *complete* month (a trailing partial chunk underestimates).
    let last_full = if weeks.len().is_multiple_of(4) || monthly.len() < 2 {
        monthly.last().copied().unwrap_or(0)
    } else {
        monthly[monthly.len() - 2]
    };

    BirthReport {
        scouting_rampup_week: rampup(|w| w.scouting),
        scanning_rampup_week: rampup(|w| w.scanning),
        final_month_vs_peak: if peak == 0 {
            0.0
        } else {
            last_full as f64 / peak as f64
        },
        weeks,
    }
}

impl std::fmt::Display for BirthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>5} {:>12} {:>12} {:>12}",
            "week", "scanning", "scouting", "intrusion"
        )?;
        for w in self.weeks.iter().take(12) {
            writeln!(
                f,
                "{:>5} {:>12} {:>12} {:>12}",
                w.week, w.scanning, w.scouting, w.intrusion
            )?;
        }
        if self.weeks.len() > 12 {
            writeln!(f, "  ... ({} weeks total)", self.weeks.len())?;
        }
        writeln!(
            f,
            "scouting ramp-up: week {:?}; scanning ramp-up: week {:?}; final/peak month: {:.2}",
            self.scouting_rampup_week, self.scanning_rampup_week, self.final_month_vs_peak
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_sim::{SimConfig, Simulation};
    use hf_simclock::StudyWindow;

    #[test]
    fn birth_timeline_shapes() {
        let out = Simulation::run(SimConfig {
            seed: 9,
            scale: hf_agents::Scale::of(0.001),
            window: StudyWindow::first_days(140),
            ..SimConfig::default()
        });
        let agg = Aggregates::compute(&out.dataset);
        let rep = birth_report(&agg);
        assert_eq!(rep.weeks.len(), 20);
        // Intrusion present from week 0 (the paper's "from day one").
        assert!(rep.weeks[0].intrusion > 0);
        // Scouting ramps up after some weeks, scanning later/likewise.
        let scout = rep.scouting_rampup_week.expect("scouting ramps");
        assert!(scout >= 2, "scouting ramp at week {scout}");
        let scan = rep.scanning_rampup_week.expect("scanning ramps");
        assert!(scan >= 6, "scanning ramp at week {scan}");
        // Weekly totals consistent with the aggregate total.
        let total: u64 = rep.weeks.iter().map(|w| w.total()).sum();
        assert_eq!(total, agg.total_sessions);
        let _ = rep.to_string();
    }

    #[test]
    fn no_drop_off_at_the_end() {
        let out = Simulation::run(SimConfig {
            seed: 10,
            scale: hf_agents::Scale::tiny(),
            window: StudyWindow::first_days(100),
            ..SimConfig::default()
        });
        let agg = Aggregates::compute(&out.dataset);
        let rep = birth_report(&agg);
        assert!(
            rep.final_month_vs_peak > 0.4,
            "activity should not collapse: {}",
            rep.final_month_vs_peak
        );
    }
}
