//! Per-table and per-figure reproducers.
//!
//! Every table (T1–T6) and figure (F1–F24) of the paper has a builder here
//! returning typed rows/series; [`Report::build_with_tags`] assembles them
//! all and [`Report::write_dir`] dumps TSV files plus a human-readable
//! summary — the "same rows/series the paper reports".

pub mod figures;
pub mod render;
pub mod tables;

use std::io::{BufWriter, Write as _};
use std::path::Path;

use hf_farm::{Dataset, TagDb};

use crate::aggregates::Aggregates;

pub use figures::*;
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
    /// Build every table and figure from the aggregates, serially.
    ///
    /// Fused scans: the top-5% honeypot selection is computed once and
    /// shared by Figs. 3/4/8/9, and Figs. 12/13 come from one pass over
    /// the client map ([`figures::client_ecdfs`]).
    pub fn build_with_tags(dataset: &Dataset, agg: &Aggregates, tags: &TagDb) -> Report {
        Self::build_with_tags_threaded(dataset, agg, tags, 1)
    }

    /// Build the report, running independent builder groups concurrently.
    ///
    /// Every builder consumes the shared immutable [`Aggregates`], so the
    /// groups are data-independent; results are assembled into the struct
    /// in a fixed order, making the output identical for any `threads`.
    /// `threads <= 1` runs everything on the calling thread.
    pub fn build_with_tags_threaded(
        dataset: &Dataset,
        agg: &Aggregates,
        tags: &TagDb,
        threads: usize,
    ) -> Report {
        let _span = hf_obs::span!("report.build");
        // The three expensive groups (matrix quantiles, hash-table sorts,
        // client-map passes) and the cheap remainder. Each group times
        // itself and, when run on a scoped worker, flushes its metrics
        // buffer before the thread exits; an extra flush on the calling
        // thread (threads <= 1) is harmless.
        let bands = || {
            let out = {
                let _g = hf_obs::span!("report.bands");
                let sel = figures::top5pct_honeypots(agg);
                (
                    figures::fig_bands_with(agg, Some(&sel)),
                    figures::fig_bands_with(agg, None),
                    figures::fig_cat_bands_with(agg, None),
                    figures::fig_cat_bands_with(agg, Some(&sel)),
                )
            };
            hf_obs::flush();
            out
        };
        let hashes = || {
            let out = {
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
            hf_obs::flush();
            out
        };
        let clients = || {
            let out = {
                let _g = hf_obs::span!("report.clients");
                (
                    figures::client_ecdfs(agg),
                    figures::fig10(agg),
                    figures::fig14(agg),
                    figures::fig21(agg),
                )
            };
            hf_obs::flush();
            out
        };

        let (
            (fig3, fig4, fig8, fig9),
            (table4, table5, table6, fig18, fig20, fig22),
            ((fig12, fig13), fig10, fig14, fig21),
        ) = if threads <= 1 {
            (bands(), hashes(), clients())
        } else {
            std::thread::scope(|scope| {
                let hb = scope.spawn(bands);
                let hh = scope.spawn(hashes);
                let hc = scope.spawn(clients);
                (
                    hb.join().expect("bands builder panicked"),
                    hh.join().expect("hash builder panicked"),
                    hc.join().expect("client builder panicked"),
                )
            })
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

    /// Write every table/figure as TSV plus `summary.md` into a directory.
    ///
    /// Artifacts stream through a `BufWriter` via their `write_tsv`
    /// methods — no intermediate per-file `String`.
    pub fn write_dir(&self, dir: &Path) -> std::io::Result<()> {
        let _span = hf_obs::span!("report.render");
        std::fs::create_dir_all(dir)?;
        let write = |name: &str,
                     f: &dyn Fn(&mut BufWriter<std::fs::File>) -> std::io::Result<()>|
         -> std::io::Result<()> {
            let mut w = BufWriter::new(std::fs::File::create(dir.join(name))?);
            f(&mut w)?;
            w.flush()?;
            hf_obs::counter!("report.artifacts_written", 1);
            Ok(())
        };
        write("table1.tsv", &|w| self.table1.write_tsv(w))?;
        write("table2.tsv", &|w| self.table2.write_tsv(w))?;
        write("table3.tsv", &|w| self.table3.write_tsv(w))?;
        write("table4.tsv", &|w| self.table4.write_tsv(w))?;
        write("table5.tsv", &|w| self.table5.write_tsv(w))?;
        write("table6.tsv", &|w| self.table6.write_tsv(w))?;
        write("fig01_deployment.tsv", &|w| self.fig1.write_tsv(w))?;
        write("fig02_sessions_per_honeypot.tsv", &|w| {
            self.fig2.write_tsv(w)
        })?;
        write("fig03_bands_top5.tsv", &|w| self.fig3.write_tsv(w))?;
        write("fig04_bands_all.tsv", &|w| self.fig4.write_tsv(w))?;
        write("fig05_flow.tsv", &|w| self.fig5.write_tsv(w))?;
        write("fig06_category_timeseries.tsv", &|w| self.fig6.write_tsv(w))?;
        write("fig07_duration_ecdf.tsv", &|w| self.fig7.write_tsv(w))?;
        write("fig08_category_bands_all.tsv", &|w| self.fig8.write_tsv(w))?;
        write("fig09_category_bands_top5.tsv", &|w| self.fig9.write_tsv(w))?;
        write("fig10_23_client_countries.tsv", &|w| {
            self.fig10.write_tsv(w)
        })?;
        write("fig11_daily_ips.tsv", &|w| self.fig11.write_tsv(w))?;
        write("fig12_spread_ecdf.tsv", &|w| self.fig12.write_tsv(w))?;
        write("fig13_days_ecdf.tsv", &|w| self.fig13.write_tsv(w))?;
        write("fig14_clients_per_honeypot.tsv", &|w| {
            self.fig14.write_tsv(w)
        })?;
        write("fig15_multirole.tsv", &|w| self.fig15.write_tsv(w))?;
        write("fig16_24_regional.tsv", &|w| self.fig16.write_tsv(w))?;
        write("fig17_freshness.tsv", &|w| self.fig17.write_tsv(w))?;
        write("fig18_19_hashes_per_honeypot.tsv", &|w| {
            self.fig18.write_tsv(w)
        })?;
        write("fig20_clients_per_hash.tsv", &|w| self.fig20.write_tsv(w))?;
        write("fig21_hashes_per_client.tsv", &|w| self.fig21.write_tsv(w))?;
        write("fig22_campaign_length.tsv", &|w| self.fig22.write_tsv(w))?;
        write("summary.md", &|w| w.write_all(self.summary().as_bytes()))?;
        Ok(())
    }

    /// Human-readable summary of the headline tables.
    pub fn summary(&self) -> String {
        format!(
            "# Honeyfarm reproduction report\n\n## Table 1\n{}\n## Table 2\n{}\n## Table 4 (top hashes by sessions)\n{}\n## Fig. 2\n{}\n",
            self.table1, self.table2, self.table4, self.fig2
        )
    }
}
