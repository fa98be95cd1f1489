//! Figures 1–24.
//!
//! Every figure consumes the one shared [`Aggregates`] pass; none re-scans
//! session rows. Builders that used to duplicate work are fused
//! ([`fig_bands_with`] / [`fig_cat_bands_with`] share one top-5% selection,
//! [`client_ecdfs`] builds Figs. 12 and 13 in a single pass over clients)
//! which `Report::build_with_tags` uses. Every artifact renders through
//! its [`Tsv`] impl.

use std::io;

use hf_farm::{Dataset, TagDb};
use hf_geo::country;

use crate::aggregates::{bit_count, Aggregates};
use crate::classify::Category;
use crate::metrics::bands::BandSeries;
use crate::metrics::ecdf::Ecdf;
use crate::metrics::freshness::FreshnessPoint;
use crate::metrics::ranks::{self, rank_series};
use crate::report::render::{pct, write_header, Tsv};

/// Top-5% honeypots by total sessions (the selection of Figs. 3 and 9).
pub fn top5pct_honeypots(agg: &Aggregates) -> Vec<u16> {
    let mut idx: Vec<u16> = (0..agg.n_honeypots as u16).collect();
    idx.sort_by(|&a, &b| agg.hp_sessions[b as usize].cmp(&agg.hp_sessions[a as usize]));
    let k = (agg.n_honeypots as f64 * 0.05).ceil().max(1.0) as usize;
    idx.truncate(k);
    idx
}

// ---------------------------------------------------------------------------

/// Figure 1: honeypots per country.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// (ISO code, honeypot count) descending.
    pub rows: Vec<(String, usize)>,
}

/// Build Fig. 1.
pub fn fig1(dataset: &Dataset) -> Fig1 {
    Fig1 {
        rows: dataset
            .plan
            .nodes_per_country()
            .into_iter()
            .map(|(c, n)| (country::get(c).code.to_string(), n))
            .collect(),
    }
}

impl Tsv for Fig1 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["country", "honeypots"])?;
        for (c, n) in &self.rows {
            writeln!(w, "{c}\t{n}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 2: sessions per honeypot, ranked.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// (rank, sessions) descending.
    pub series: Vec<(u32, u64)>,
    /// Share of all sessions on the top-10 honeypots (paper: 14%).
    pub top10_share: f64,
    /// Max/min session ratio (paper: >30×).
    pub max_min_ratio: f64,
}

/// Build Fig. 2.
pub fn fig2(agg: &Aggregates) -> Fig2 {
    let series = rank_series(agg.hp_sessions.iter().copied());
    Fig2 {
        top10_share: ranks::top_k_share(&series, 10),
        max_min_ratio: ranks::max_min_ratio(&series).unwrap_or(0.0),
        series,
    }
}

impl Tsv for Fig2 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["rank", "sessions"])?;
        for (r, s) in &self.series {
            writeln!(w, "{r}\t{s}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Fig2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "top10 share {}, max/min {:.1}x, max {} min {}",
            pct(self.top10_share),
            self.max_min_ratio,
            self.series.first().map(|&(_, s)| s).unwrap_or(0),
            self.series.last().map(|&(_, s)| s).unwrap_or(0)
        )
    }
}

// ---------------------------------------------------------------------------

/// Figures 3/4: daily session bands per honeypot.
#[derive(Debug, Clone, PartialEq)]
pub struct FigBands {
    /// Whether restricted to the top-5% honeypots.
    pub top5_only: bool,
    /// The bands.
    pub bands: BandSeries,
}

/// Build Fig. 3 (`sel` = the [`top5pct_honeypots`]) or Fig. 4 (`None` =
/// all honeypots); callers share one selection sort across figures.
pub fn fig_bands_with(agg: &Aggregates, sel: Option<&[u16]>) -> FigBands {
    FigBands {
        top5_only: sel.is_some(),
        bands: BandSeries::from_matrix(&agg.day_hp_sessions, agg.n_days, agg.n_honeypots, sel),
    }
}

impl Tsv for FigBands {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["day", "p5", "q25", "median", "q75", "p95"])?;
        for p in &self.bands.points {
            writeln!(
                w,
                "{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
                p.day, p.p5, p.q25, p.median, p.q75, p.p95
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 5: classification-flow edge counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig5 {
    /// All sessions.
    pub total: u64,
    /// Sessions that offered credentials.
    pub with_creds: u64,
    /// Sessions with a successful login.
    pub login_ok: u64,
    /// Sessions that executed commands.
    pub with_cmds: u64,
    /// Sessions that referenced a URI.
    pub with_uri: u64,
}

/// Build Fig. 5.
pub fn fig5(agg: &Aggregates) -> Fig5 {
    let c = &agg.cat_totals;
    Fig5 {
        total: c.iter().sum(),
        with_creds: c[1] + c[2] + c[3] + c[4],
        login_ok: c[2] + c[3] + c[4],
        with_cmds: c[3] + c[4],
        with_uri: c[4],
    }
}

impl Tsv for Fig5 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["edge", "sessions"])?;
        for (e, n) in [
            ("total", self.total),
            ("with_creds", self.with_creds),
            ("login_ok", self.login_ok),
            ("with_cmds", self.with_cmds),
            ("with_uri", self.with_uri),
        ] {
            writeln!(w, "{e}\t{n}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 6: per-day category fractions plus total sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// Per-day fraction per category (indexed by Category::index()).
    pub fractions: Vec<[f64; 5]>,
    /// Per-day total sessions (the black line).
    pub totals: Vec<u64>,
}

/// Build Fig. 6.
pub fn fig6(agg: &Aggregates) -> Fig6 {
    let mut fractions = Vec::with_capacity(agg.n_days as usize);
    for d in 0..agg.n_days as usize {
        let total = agg.day_total[d].max(1) as f64;
        fractions.push(std::array::from_fn(|ci| {
            agg.day_by_cat[ci][d] as f64 / total
        }));
    }
    Fig6 {
        fractions,
        totals: agg.day_total.clone(),
    }
}

impl Tsv for Fig6 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(
            w,
            &[
                "day", "no_cred", "fail_log", "no_cmd", "cmd", "cmd_uri", "total",
            ],
        )?;
        for (d, fr) in self.fractions.iter().enumerate() {
            write!(w, "{d}")?;
            for x in fr {
                write!(w, "\t{x:.4}")?;
            }
            writeln!(w, "\t{}", self.totals[d])?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 7: duration ECDF per category.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// One ECDF per category.
    pub ecdfs: Vec<(Category, Ecdf)>,
}

/// Build Fig. 7.
pub fn fig7(agg: &Aggregates) -> Fig7 {
    Fig7 {
        ecdfs: Category::ALL
            .iter()
            .map(|&c| {
                let hist = agg.dur_hist[c.index()]
                    .iter()
                    .enumerate()
                    .map(|(sec, &n)| (sec as u64, n));
                (c, Ecdf::from_histogram(hist))
            })
            .collect(),
    }
}

impl Tsv for Fig7 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["category", "duration_s", "F"])?;
        for (c, e) in &self.ecdfs {
            for (v, fr) in e.points(100) {
                writeln!(w, "{}\t{v}\t{fr:.4}", c.label())?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figures 8/9: per-category daily bands.
#[derive(Debug, Clone, PartialEq)]
pub struct FigCatBands {
    /// Whether restricted to top-5% honeypots.
    pub top5_only: bool,
    /// One band series per category.
    pub bands: Vec<(Category, BandSeries)>,
}

/// Build Fig. 8 (`None` = all honeypots) or Fig. 9 (`sel` = the
/// [`top5pct_honeypots`]).
pub fn fig_cat_bands_with(agg: &Aggregates, sel: Option<&[u16]>) -> FigCatBands {
    FigCatBands {
        top5_only: sel.is_some(),
        bands: Category::ALL
            .iter()
            .map(|&c| {
                (
                    c,
                    BandSeries::from_matrix(
                        &agg.day_hp_by_cat[c.index()],
                        agg.n_days,
                        agg.n_honeypots,
                        sel,
                    ),
                )
            })
            .collect(),
    }
}

impl Tsv for FigCatBands {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["category", "day", "p5", "q25", "median", "q75", "p95"])?;
        for (c, series) in &self.bands {
            for p in &series.points {
                writeln!(
                    w,
                    "{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
                    c.label(),
                    p.day,
                    p.p5,
                    p.q25,
                    p.median,
                    p.q75,
                    p.p95
                )?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figures 10 & 23: client IPs per country, overall and per category.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// (ISO code, clients) overall, descending.
    pub overall: Vec<(String, u64)>,
    /// Per category.
    pub per_category: Vec<(Category, Vec<(String, u64)>)>,
}

/// Build Figs. 10/23 from per-client aggregates.
pub fn fig10(agg: &Aggregates) -> Fig10 {
    let n = country::count();
    let mut overall = vec![0u64; n];
    let mut per_cat = vec![vec![0u64; n]; 5];
    for c in agg.clients.values() {
        if c.country == u16::MAX {
            continue;
        }
        let ci = c.country as usize;
        if ci >= n {
            continue;
        }
        overall[ci] += 1;
        for (cat, counts) in per_cat.iter_mut().enumerate() {
            if c.cats & (1 << cat) != 0 {
                counts[ci] += 1;
            }
        }
    }
    let to_rows = |v: &[u64]| {
        let mut rows: Vec<(String, u64)> = v
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                (
                    country::get(hf_geo::CountryId(i as u16)).code.to_string(),
                    n,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    };
    Fig10 {
        overall: to_rows(&overall),
        per_category: Category::ALL
            .iter()
            .map(|&c| (c, to_rows(&per_cat[c.index()])))
            .collect(),
    }
}

impl Tsv for Fig10 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["category", "country", "clients"])?;
        for (c, n) in &self.overall {
            writeln!(w, "ALL\t{c}\t{n}")?;
        }
        for (cat, list) in &self.per_category {
            for (c, n) in list {
                writeln!(w, "{}\t{c}\t{n}", cat.label())?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 11: daily unique client IPs per category.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// Per-day `[cat0..cat4, overall]`.
    pub daily: Vec<[u32; 6]>,
}

/// Build Fig. 11.
pub fn fig11(agg: &Aggregates) -> Fig11 {
    Fig11 {
        daily: agg.day_unique_ips.clone(),
    }
}

impl Tsv for Fig11 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(
            w,
            &[
                "day", "no_cred", "fail_log", "no_cmd", "cmd", "cmd_uri", "all",
            ],
        )?;
        for (d, row) in self.daily.iter().enumerate() {
            write!(w, "{d}")?;
            for x in row {
                write!(w, "\t{x}")?;
            }
            writeln!(w)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figures 12/13: per-client ECDFs (honeypots contacted / active days),
/// overall and per category.
#[derive(Debug, Clone, PartialEq)]
pub struct FigClientEcdf {
    /// What is measured ("honeypots" or "days").
    pub metric: &'static str,
    /// Overall ECDF.
    pub overall: Ecdf,
    /// Per-category ECDFs.
    pub per_category: Vec<(Category, Ecdf)>,
}

/// Build Figs. 12 and 13 together in ONE pass over the client map (the
/// per-client filtering dominates both builders; `Report::build_with_tags`
/// uses this fused form). `Ecdf::from_samples` sorts, so sample order is
/// irrelevant.
pub fn client_ecdfs(agg: &Aggregates) -> (FigClientEcdf, FigClientEcdf) {
    let n = agg.clients.len();
    let mut hp_overall = Vec::with_capacity(n);
    let mut day_overall = Vec::with_capacity(n);
    let mut hp_cat: [Vec<u64>; 5] = Default::default();
    let mut day_cat: [Vec<u64>; 5] = Default::default();
    for c in agg.clients.values() {
        hp_overall.push(bit_count(&c.honeypots) as u64);
        day_overall.push(c.days as u64);
        for ci in 0..5 {
            if c.cats & (1 << ci) != 0 {
                hp_cat[ci].push(bit_count(&c.honeypots_by_cat[ci]) as u64);
                day_cat[ci].push(c.days_by_cat[ci] as u64);
            }
        }
    }
    let per_cat = |mut samples: [Vec<u64>; 5]| -> Vec<(Category, Ecdf)> {
        Category::ALL
            .iter()
            .map(|&cat| {
                (
                    cat,
                    Ecdf::from_samples(std::mem::take(&mut samples[cat.index()])),
                )
            })
            .collect()
    };
    (
        FigClientEcdf {
            metric: "honeypots",
            overall: Ecdf::from_samples(hp_overall),
            per_category: per_cat(hp_cat),
        },
        FigClientEcdf {
            metric: "days",
            overall: Ecdf::from_samples(day_overall),
            per_category: per_cat(day_cat),
        },
    )
}

/// Build Fig. 12 (honeypots contacted per client).
pub fn fig12(agg: &Aggregates) -> FigClientEcdf {
    client_ecdfs(agg).0
}

/// Build Fig. 13 (active days per client).
pub fn fig13(agg: &Aggregates) -> FigClientEcdf {
    client_ecdfs(agg).1
}

impl Tsv for FigClientEcdf {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["category", self.metric, "F"])?;
        for (v, fr) in self.overall.points(200) {
            writeln!(w, "ALL\t{v}\t{fr:.4}")?;
        }
        for (c, e) in &self.per_category {
            for (v, fr) in e.points(200) {
                writeln!(w, "{}\t{v}\t{fr:.4}", c.label())?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 14: clients per honeypot ranked, with sessions overlay and
/// per-category client counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14 {
    /// Honeypot ids sorted by client count descending.
    pub order: Vec<u16>,
    /// Client counts in that order.
    pub clients: Vec<u64>,
    /// Session counts in the same order (right axis of the figure).
    pub sessions: Vec<u64>,
    /// Per-category client counts in the same order.
    pub per_category: Vec<(Category, Vec<u64>)>,
}

/// Build Fig. 14.
pub fn fig14(agg: &Aggregates) -> Fig14 {
    let mut order: Vec<u16> = (0..agg.n_honeypots as u16).collect();
    order.sort_by(|&a, &b| {
        agg.hp_clients[b as usize]
            .len()
            .cmp(&agg.hp_clients[a as usize].len())
    });
    let clients = order
        .iter()
        .map(|&h| agg.hp_clients[h as usize].len() as u64)
        .collect();
    let sessions = order.iter().map(|&h| agg.hp_sessions[h as usize]).collect();
    let per_category = Category::ALL
        .iter()
        .map(|&c| {
            (
                c,
                order
                    .iter()
                    .map(|&h| agg.hp_clients_by_cat[h as usize][c.index()].len() as u64)
                    .collect(),
            )
        })
        .collect();
    Fig14 {
        order,
        clients,
        sessions,
        per_category,
    }
}

impl Tsv for Fig14 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(
            w,
            &[
                "rank", "honeypot", "clients", "sessions", "no_cred", "fail_log", "no_cmd", "cmd",
                "cmd_uri",
            ],
        )?;
        for i in 0..self.order.len() {
            write!(
                w,
                "{}\t{}\t{}\t{}",
                i + 1,
                self.order[i],
                self.clients[i],
                self.sessions[i]
            )?;
            for (_, v) in &self.per_category {
                write!(w, "\t{}", v[i])?;
            }
            writeln!(w)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 15: daily clients per category combination over
/// {NO_CRED, FAIL_LOG, CMD}.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15 {
    /// Per-day combo counts; index = bitmask (1=NO_CRED, 2=FAIL_LOG, 4=CMD).
    pub daily: Vec<[u32; 8]>,
}

/// Human label for a combo bitmask.
pub fn combo_label(mask: u8) -> &'static str {
    match mask {
        1 => "scan only",
        2 => "faillog only",
        3 => "scan+faillog",
        4 => "cmd only",
        5 => "scan+cmd",
        6 => "faillog+cmd",
        7 => "scan+faillog+cmd",
        _ => "none",
    }
}

/// Build Fig. 15.
pub fn fig15(agg: &Aggregates) -> Fig15 {
    Fig15 {
        daily: agg.day_combo_clients.clone(),
    }
}

impl Tsv for Fig15 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(
            w,
            &[
                "day",
                "scan",
                "faillog",
                "scan+faillog",
                "cmd",
                "scan+cmd",
                "faillog+cmd",
                "all3",
            ],
        )?;
        for (d, row) in self.daily.iter().enumerate() {
            write!(w, "{d}")?;
            for n in &row[1..8] {
                write!(w, "\t{n}")?;
            }
            writeln!(w)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figures 16 & 24: regional diversity of client/honeypot interactions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16 {
    /// Per-day relation-combo counts for overall (index 0) and each
    /// category (1..=5). Mask bits: 1=in-country, 2=in-continent,
    /// 4=out-of-continent.
    pub daily: Vec<[[u32; 8]; 6]>,
}

/// Build Figs. 16/24.
pub fn fig16(agg: &Aggregates) -> Fig16 {
    Fig16 {
        daily: agg.day_region_combos.clone(),
    }
}

impl Fig16 {
    /// Fraction of clients whose interactions that day were exclusively
    /// out-of-continent, averaged over days, for a slot (0=overall, 1..=5 by
    /// category index + 1).
    pub fn mean_out_of_continent_only(&self, slot: usize) -> f64 {
        let mut num = 0u64;
        let mut den = 0u64;
        for day in &self.daily {
            let combos = &day[slot];
            let total: u32 = combos[1..].iter().sum();
            num += combos[4] as u64;
            den += total as u64;
        }
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// Mean fraction of clients with any in-country or in-continent contact.
    pub fn mean_local_touch(&self, slot: usize) -> f64 {
        let mut num = 0u64;
        let mut den = 0u64;
        for day in &self.daily {
            let combos = &day[slot];
            let total: u32 = combos[1..].iter().sum();
            let local: u32 = [1usize, 2, 3, 5, 6, 7].iter().map(|&m| combos[m]).sum();
            num += local as u64;
            den += total as u64;
        }
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }
}

impl Tsv for Fig16 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        let slots = ["ALL", "NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD+URI"];
        write_header(
            w,
            &[
                "day",
                "slot",
                "in_country",
                "in_continent",
                "out",
                "mixed",
                "clients",
            ],
        )?;
        for (d, day) in self.daily.iter().enumerate() {
            for (s, combos) in day.iter().enumerate() {
                let total: u32 = combos[1..].iter().sum();
                if total == 0 {
                    continue;
                }
                writeln!(
                    w,
                    "{d}\t{}\t{}\t{}\t{}\t{}\t{total}",
                    slots[s],
                    combos[1],                                     // in-country only
                    combos[2],                                     // in-continent only
                    combos[4],                                     // out only
                    combos[3] + combos[5] + combos[6] + combos[7], // mixed
                )?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 17: daily unique hashes and freshness fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig17 {
    /// Per-day freshness points.
    pub points: Vec<FreshnessPoint>,
}

/// Build Fig. 17.
pub fn fig17(agg: &Aggregates) -> Fig17 {
    Fig17 {
        points: agg.freshness.clone(),
    }
}

impl Tsv for Fig17 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["day", "unique", "fresh_ever", "fresh_30d", "fresh_7d"])?;
        for p in &self.points {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                p.day, p.unique, p.fresh_ever, p.fresh_30d, p.fresh_7d
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figures 18/19: distinct hashes per honeypot, ranked, with client and
/// session overlays.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig18 {
    /// Honeypots sorted by hash count descending.
    pub order: Vec<u16>,
    /// Hash counts in that order.
    pub hashes: Vec<u64>,
    /// Clients per honeypot, same order (Fig. 18's grey line).
    pub clients: Vec<u64>,
    /// Sessions per honeypot, same order (Fig. 19's grey line).
    pub sessions: Vec<u64>,
    /// First-seen (fresh) hash counts, same order.
    pub first_seen: Vec<u64>,
    /// Share of all hashes seen by the top honeypot (paper: <5%).
    pub top1_share: f64,
    /// Share seen by the top-10 honeypots (paper: <15%).
    pub top10_share: f64,
}

/// Build Figs. 18/19.
pub fn fig18(agg: &Aggregates) -> Fig18 {
    let mut order: Vec<u16> = (0..agg.n_honeypots as u16).collect();
    order.sort_by(|&a, &b| {
        agg.hp_hashes[b as usize]
            .len()
            .cmp(&agg.hp_hashes[a as usize].len())
    });
    let hashes: Vec<u64> = order
        .iter()
        .map(|&h| agg.hp_hashes[h as usize].len() as u64)
        .collect();
    let total_hashes = agg.n_hashes().max(1) as f64;
    // Union of the top-10 honeypots' hash sets (the paper's "top 10 see less
    // than 15% of all hashes" is about coverage, not summed counts).
    let mut union: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for &h in order.iter().take(10) {
        union.extend(agg.hp_hashes[h as usize].iter().copied());
    }
    Fig18 {
        top1_share: hashes.first().copied().unwrap_or(0) as f64 / total_hashes,
        top10_share: union.len() as f64 / total_hashes,
        clients: order
            .iter()
            .map(|&h| agg.hp_clients[h as usize].len() as u64)
            .collect(),
        sessions: order.iter().map(|&h| agg.hp_sessions[h as usize]).collect(),
        first_seen: order
            .iter()
            .map(|&h| agg.hp_first_hashes[h as usize] as u64)
            .collect(),
        hashes,
        order,
    }
}

impl Tsv for Fig18 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(
            w,
            &[
                "rank",
                "honeypot",
                "hashes",
                "first_seen",
                "clients",
                "sessions",
            ],
        )?;
        for i in 0..self.order.len() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                self.order[i],
                self.hashes[i],
                self.first_seen[i],
                self.clients[i],
                self.sessions[i]
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figures 20/21: rank series (log-log long tails).
#[derive(Debug, Clone, PartialEq)]
pub struct FigRank {
    /// What the values count.
    pub metric: &'static str,
    /// (rank, value) descending.
    pub series: Vec<(u32, u64)>,
}

/// Build Fig. 20 (clients per hash).
pub fn fig20(agg: &Aggregates) -> FigRank {
    FigRank {
        metric: "clients_per_hash",
        series: rank_series(
            agg.hashes
                .iter()
                .filter(|h| h.sessions > 0)
                .map(|h| h.clients.len() as u64),
        ),
    }
}

/// Build Fig. 21 (hashes per client, over clients with ≥1 hash).
pub fn fig21(agg: &Aggregates) -> FigRank {
    FigRank {
        metric: "hashes_per_client",
        series: rank_series(
            agg.clients
                .values()
                .filter(|c| !c.hashes.is_empty())
                .map(|c| c.hashes.len() as u64),
        ),
    }
}

impl Tsv for FigRank {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["rank", self.metric])?;
        for (r, v) in &self.series {
            writeln!(w, "{r}\t{v}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Figure 22: campaign-length ECDF by tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig22 {
    /// ECDF over all hashes' active-day counts.
    pub all: Ecdf,
    /// Per-tag ECDFs.
    pub per_tag: Vec<(String, Ecdf)>,
}

/// Build Fig. 22.
pub fn fig22(dataset: &Dataset, agg: &Aggregates, tags: &TagDb) -> Fig22 {
    let mut by_tag: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    let mut all = Vec::new();
    for (hid, h) in agg.hashes.iter().enumerate() {
        if h.sessions == 0 {
            continue;
        }
        all.push(h.days as u64);
        let digest = dataset.sessions.digests.get(hid as u32);
        let tag = tags.tag(&digest).unwrap_or("unknown").to_string();
        by_tag.entry(tag).or_default().push(h.days as u64);
    }
    Fig22 {
        all: Ecdf::from_samples(all),
        per_tag: by_tag
            .into_iter()
            .map(|(t, v)| (t, Ecdf::from_samples(v)))
            .collect(),
    }
}

impl Tsv for Fig22 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["tag", "days", "F"])?;
        for (v, fr) in self.all.points(100) {
            writeln!(w, "ALL\t{v}\t{fr:.4}")?;
        }
        for (t, e) in &self.per_tag {
            for (v, fr) in e.points(100) {
                writeln!(w, "{t}\t{v}\t{fr:.4}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_farm::TagDb;
    use hf_sim::{SimConfig, Simulation};
    use std::sync::OnceLock;

    struct Fx {
        ds: hf_farm::Dataset,
        tags: TagDb,
        agg: Aggregates,
    }

    static FX: OnceLock<Fx> = OnceLock::new();

    fn fx() -> &'static Fx {
        FX.get_or_init(|| {
            let out = Simulation::run(SimConfig::test(14));
            let agg = Aggregates::compute(&out.dataset);
            Fx {
                ds: out.dataset,
                tags: out.tags,
                agg,
            }
        })
    }

    #[test]
    fn top5pct_selection_size_and_order() {
        let f = fx();
        let top = top5pct_honeypots(&f.agg);
        assert_eq!(top.len(), 12, "ceil(221 * 0.05)");
        // Every selected honeypot has at least as many sessions as any
        // non-selected one.
        let min_sel = top
            .iter()
            .map(|&h| f.agg.hp_sessions[h as usize])
            .min()
            .unwrap();
        let max_rest = (0..221u16)
            .filter(|h| !top.contains(h))
            .map(|h| f.agg.hp_sessions[h as usize])
            .max()
            .unwrap();
        assert!(min_sel >= max_rest);
    }

    #[test]
    fn fig1_covers_the_deployment() {
        let f = fx();
        let fig = fig1(&f.ds);
        assert_eq!(fig.rows.len(), 55);
        assert_eq!(fig.rows.iter().map(|(_, n)| n).sum::<usize>(), 221);
        assert!(fig.to_tsv().contains("US\t"));
    }

    #[test]
    fn fig5_flow_is_monotone_and_total() {
        let f = fx();
        let flow = fig5(&f.agg);
        assert_eq!(flow.total, f.agg.total_sessions);
        assert!(flow.total >= flow.with_creds);
        assert!(flow.with_creds >= flow.login_ok);
        assert!(flow.login_ok >= flow.with_cmds);
        assert!(flow.with_cmds >= flow.with_uri);
    }

    #[test]
    fn fig6_fractions_sum_to_one_on_active_days() {
        let f = fx();
        let fig = fig6(&f.agg);
        for (d, fr) in fig.fractions.iter().enumerate() {
            if fig.totals[d] > 0 {
                let sum: f64 = fr.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "day {d}: {sum}");
            }
        }
    }

    #[test]
    fn fig12_per_category_bounded_by_overall() {
        let f = fx();
        let fig = fig12(&f.agg);
        assert!(!fig.overall.is_empty());
        for (_, e) in &fig.per_category {
            assert!(e.total() <= fig.overall.total());
        }
    }

    #[test]
    fn fused_client_ecdfs_match_individual_builders() {
        let f = fx();
        let (f12, f13) = client_ecdfs(&f.agg);
        assert_eq!(f12.metric, "honeypots");
        assert_eq!(f13.metric, "days");
        assert_eq!(f12.overall.total(), f.agg.n_clients() as u64);
        assert_eq!(f13.overall.total(), f.agg.n_clients() as u64);
        assert_eq!(f12.to_tsv(), fig12(&f.agg).to_tsv());
        assert_eq!(f13.to_tsv(), fig13(&f.agg).to_tsv());
    }

    #[test]
    fn fig14_order_is_by_clients_desc() {
        let f = fx();
        let fig = fig14(&f.agg);
        assert!(fig.clients.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(fig.order.len(), f.agg.n_honeypots);
        // Per-category counts never exceed the overall client count.
        for (_, v) in &fig.per_category {
            for (i, &n) in v.iter().enumerate() {
                assert!(n <= fig.clients[i]);
            }
        }
    }

    #[test]
    fn combo_labels_cover_all_masks() {
        let labels: std::collections::BTreeSet<&str> = (1u8..8).map(combo_label).collect();
        assert_eq!(labels.len(), 7, "each mask distinct");
        assert_eq!(combo_label(0), "none");
    }

    #[test]
    fn fig18_shares_are_fractions() {
        let f = fx();
        let fig = fig18(&f.agg);
        assert!((0.0..=1.0).contains(&fig.top1_share));
        assert!((0.0..=1.0).contains(&fig.top10_share));
        assert!(fig.top1_share <= fig.top10_share);
        assert!(fig.hashes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn fig22_grouped_by_tag() {
        let f = fx();
        let fig = fig22(&f.ds, &f.agg, &f.tags);
        assert!(!fig.all.is_empty());
        let total: u64 = fig.per_tag.iter().map(|(_, e)| e.total()).sum();
        assert_eq!(total, fig.all.total(), "tags partition the hash set");
    }

    #[test]
    fn tsv_outputs_are_nonempty() {
        let f = fx();
        assert!(fig2(&f.agg).to_tsv().lines().count() > 100);
        assert!(fig7(&f.agg).to_tsv().lines().count() > 10);
        assert!(fig11(&f.agg).to_tsv().lines().count() > 10);
        assert!(fig17(&f.agg).to_tsv().lines().count() > 2);
        assert!(fig16(&f.agg).to_tsv().lines().count() > 2);
    }
}
