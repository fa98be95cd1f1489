//! Per-table and per-figure reproducers.
//!
//! Every table (T1–T6) and figure (F1–F24) of the paper has a builder here
//! returning typed rows/series; [`Report::build_with_tags`] assembles them
//! all and [`Report::write_dir`] dumps TSV files plus a human-readable
//! summary — the "same rows/series the paper reports".

pub mod figures;
pub mod render;
pub mod tables;

use std::io::{BufWriter, Write};
use std::path::Path;

use hf_farm::{Dataset, TagDb};

use crate::aggregates::Aggregates;

pub use figures::*;
pub use render::Tsv;
pub use tables::*;

/// The full reproduction report.
pub struct Report {
    /// Table 1: session percentages per category and protocol.
    pub table1: Table1,
    /// Table 2: top successful passwords.
    pub table2: Table2,
    /// Table 3: top command lines.
    pub table3: Table3,
    /// Table 4: top hashes by sessions.
    pub table4: HashTable,
    /// Table 5: top hashes by client IPs.
    pub table5: HashTable,
    /// Table 6: top hashes by active days.
    pub table6: HashTable,
    /// Figure 1: honeypots per country.
    pub fig1: Fig1,
    /// Figure 2: sessions per honeypot, ranked.
    pub fig2: Fig2,
    /// Figure 3: daily bands, top-5% honeypots.
    pub fig3: FigBands,
    /// Figure 4: daily bands, all honeypots.
    pub fig4: FigBands,
    /// Figure 5: classification flow counts.
    pub fig5: Fig5,
    /// Figure 6: category fractions over time.
    pub fig6: Fig6,
    /// Figure 7: session-duration ECDFs per category.
    pub fig7: Fig7,
    /// Figure 8: per-category daily bands, all honeypots.
    pub fig8: FigCatBands,
    /// Figure 9: per-category daily bands, top-5% honeypots.
    pub fig9: FigCatBands,
    /// Figure 10 (and 23): client IPs per country, overall and per category.
    pub fig10: Fig10,
    /// Figure 11: daily unique client IPs per category.
    pub fig11: Fig11,
    /// Figure 12: ECDF of honeypots contacted per client.
    pub fig12: FigClientEcdf,
    /// Figure 13: ECDF of active days per client.
    pub fig13: FigClientEcdf,
    /// Figure 14: clients per honeypot, ranked, with session overlay.
    pub fig14: Fig14,
    /// Figure 15: daily clients per category combination.
    pub fig15: Fig15,
    /// Figure 16 (and 24): regional diversity over time.
    pub fig16: Fig16,
    /// Figure 17: daily unique hashes and freshness.
    pub fig17: Fig17,
    /// Figure 18/19: hashes per honeypot with client/session overlays.
    pub fig18: Fig18,
    /// Figure 20: clients per hash, ranked.
    pub fig20: FigRank,
    /// Figure 21: hashes per client, ranked.
    pub fig21: FigRank,
    /// Figure 22: campaign-length ECDFs by tag.
    pub fig22: Fig22,
}

impl Report {
    /// Build every table and figure from the aggregates.
    ///
    /// Fused scans: the top-5% honeypot selection is computed once and
    /// shared by Figs. 3/4/8/9, and Figs. 12/13 come from one pass over
    /// the client map ([`figures::client_ecdfs`]). The three expensive
    /// groups (matrix quantiles, hash-table sorts, client-map passes) each
    /// time themselves under their own span.
    pub fn build_with_tags(dataset: &Dataset, agg: &Aggregates, tags: &TagDb) -> Report {
        let _span = hf_obs::span!("report.build");
        let (fig3, fig4, fig8, fig9) = {
            let _g = hf_obs::span!("report.bands");
            let sel = figures::top5pct_honeypots(agg);
            (
                figures::fig_bands_with(agg, Some(&sel)),
                figures::fig_bands_with(agg, None),
                figures::fig_cat_bands_with(agg, None),
                figures::fig_cat_bands_with(agg, Some(&sel)),
            )
        };
        let (table4, table5, table6, fig18, fig20, fig22) = {
            let _g = hf_obs::span!("report.hashes");
            (
                tables::hash_table(dataset, agg, tags, HashSortKey::Sessions, 20),
                tables::hash_table(dataset, agg, tags, HashSortKey::Clients, 20),
                tables::hash_table(dataset, agg, tags, HashSortKey::Days, 20),
                figures::fig18(agg),
                figures::fig20(agg),
                figures::fig22(dataset, agg, tags),
            )
        };
        let ((fig12, fig13), fig10, fig14, fig21) = {
            let _g = hf_obs::span!("report.clients");
            (
                figures::client_ecdfs(agg),
                figures::fig10(agg),
                figures::fig14(agg),
                figures::fig21(agg),
            )
        };

        Report {
            table1: tables::table1(agg),
            table2: tables::table2(dataset, agg),
            table3: tables::table3(dataset, agg),
            table4,
            table5,
            table6,
            fig1: figures::fig1(dataset),
            fig2: figures::fig2(agg),
            fig3,
            fig4,
            fig5: figures::fig5(agg),
            fig6: figures::fig6(agg),
            fig7: figures::fig7(agg),
            fig8,
            fig9,
            fig10,
            fig11: figures::fig11(agg),
            fig12,
            fig13,
            fig14,
            fig15: figures::fig15(agg),
            fig16: figures::fig16(agg),
            fig17: figures::fig17(agg),
            fig18,
            fig20,
            fig21,
            fig22,
        }
    }

    /// The 27 TSV artifacts — file name and renderer — in output order.
    /// The one list `write_dir`, the report oracle and the golden tests
    /// iterate.
    pub fn artifacts(&self) -> [(&'static str, &dyn Tsv); 27] {
        [
            ("table1.tsv", &self.table1),
            ("table2.tsv", &self.table2),
            ("table3.tsv", &self.table3),
            ("table4.tsv", &self.table4),
            ("table5.tsv", &self.table5),
            ("table6.tsv", &self.table6),
            ("fig01_deployment.tsv", &self.fig1),
            ("fig02_sessions_per_honeypot.tsv", &self.fig2),
            ("fig03_bands_top5.tsv", &self.fig3),
            ("fig04_bands_all.tsv", &self.fig4),
            ("fig05_flow.tsv", &self.fig5),
            ("fig06_category_timeseries.tsv", &self.fig6),
            ("fig07_duration_ecdf.tsv", &self.fig7),
            ("fig08_category_bands_all.tsv", &self.fig8),
            ("fig09_category_bands_top5.tsv", &self.fig9),
            ("fig10_23_client_countries.tsv", &self.fig10),
            ("fig11_daily_ips.tsv", &self.fig11),
            ("fig12_spread_ecdf.tsv", &self.fig12),
            ("fig13_days_ecdf.tsv", &self.fig13),
            ("fig14_clients_per_honeypot.tsv", &self.fig14),
            ("fig15_multirole.tsv", &self.fig15),
            ("fig16_24_regional.tsv", &self.fig16),
            ("fig17_freshness.tsv", &self.fig17),
            ("fig18_19_hashes_per_honeypot.tsv", &self.fig18),
            ("fig20_clients_per_hash.tsv", &self.fig20),
            ("fig21_hashes_per_client.tsv", &self.fig21),
            ("fig22_campaign_length.tsv", &self.fig22),
        ]
    }

    /// Write every artifact as TSV plus `summary.md` into a directory,
    /// each streamed through a `BufWriter` — no intermediate per-file
    /// `String`.
    pub fn write_dir(&self, dir: &Path) -> std::io::Result<()> {
        let _span = hf_obs::span!("report.render");
        std::fs::create_dir_all(dir)?;
        let write = |name: &str,
                     render: &dyn Fn(&mut dyn Write) -> std::io::Result<()>|
         -> std::io::Result<()> {
            let mut w = BufWriter::new(std::fs::File::create(dir.join(name))?);
            render(&mut w)?;
            w.flush()?;
            hf_obs::counter!("report.artifacts_written", 1);
            Ok(())
        };
        for (name, art) in self.artifacts() {
            write(name, &|w| art.write_tsv(w))?;
        }
        write("summary.md", &|w| w.write_all(self.summary().as_bytes()))
    }

    /// Human-readable summary of the headline tables.
    pub fn summary(&self) -> String {
        format!(
            "# Honeyfarm reproduction report\n\n## Table 1\n{}\n## Table 2\n{}\n## Table 4 (top hashes by sessions)\n{}\n## Fig. 2\n{}\n",
            self.table1, self.table2, self.table4, self.fig2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_sim::{SimConfig, Simulation};
    use std::collections::BTreeSet;

    #[test]
    fn artifacts_are_the_27_files_write_dir_leaves() {
        let out = Simulation::run(SimConfig::test(3));
        let agg = Aggregates::compute(&out.dataset);
        let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);

        let listed: BTreeSet<String> = report
            .artifacts()
            .iter()
            .map(|(name, _)| name.to_string())
            .collect();
        assert_eq!(listed.len(), 27, "file names are distinct");

        let dir = std::env::temp_dir().join(format!("hf_report_artifacts_{}", std::process::id()));
        report.write_dir(&dir).expect("write_dir");
        let mut written: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert!(written.remove("summary.md"));
        assert_eq!(written, listed);
    }
}
