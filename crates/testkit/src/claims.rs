//! Declarative paper-claims oracle.
//!
//! Every headline number the reproduction asserts against the paper — the
//! Table 1 category mix, the hash tables, the figure shapes — lives here as
//! one [`ClaimSpec`] row: a stable id, the paper source, an [`Expectation`]
//! (paper value + tolerance, range, or bound), and an accessor that pulls
//! the measured value out of a [`ClaimCtx`]. The test suite
//! (`tests/paper_claims.rs`) and the `hfarm verify --claims` report both
//! evaluate this same table, so a tolerance can never drift between the
//! two.

use hf_core::report::{figures, tables, HashSortKey};
use hf_core::report::{Fig10, Fig16, Fig2, Fig7, HashTable, Table2, Table3};
use hf_core::{Aggregates, Category, Claims};
use hf_farm::{Dataset, TagDb};
use hf_sim::SimOutput;
use hf_simclock::{Date, StudyWindow};

/// Everything a claim accessor may need, computed once per evaluation.
pub struct ClaimCtx<'a> {
    /// The dataset under test. May be row-free (streaming fold): every
    /// claim reads the aggregates or the dataset's pools/plan, never rows.
    pub dataset: &'a Dataset,
    /// Tag/campaign associations for the dataset's hashes.
    pub tags: &'a TagDb,
    /// Aggregates over the dataset.
    pub agg: Aggregates,
    /// The repo's derived claim metrics.
    pub claims: Claims,
    /// Attacker clustering over the dataset's rows, `None` on a row-free
    /// (streaming-fold) dataset — the cluster claims, like the absolute-day
    /// figure claims, only run on materialized full-window fixtures.
    pub clusters: Option<hf_cluster::ClusterOutput>,
    fig2: Fig2,
    fig7: Fig7,
    fig10: Fig10,
    fig16: Fig16,
    t2: Table2,
    t3: Table3,
    t4: HashTable,
    t6: HashTable,
    t6_full: HashTable,
}

impl<'a> ClaimCtx<'a> {
    /// Compute aggregates, claims, and the figures/tables the claim table
    /// reads from.
    pub fn new(out: &'a SimOutput) -> ClaimCtx<'a> {
        ClaimCtx::from_parts(&out.dataset, &out.tags, Aggregates::compute(&out.dataset))
    }

    /// Build a context from already-computed aggregates — the entry point
    /// for the streaming fold path, where the dataset carries no session
    /// rows and the aggregates came from [`hf_core::StreamingFold`].
    pub fn from_parts(dataset: &'a Dataset, tags: &'a TagDb, agg: Aggregates) -> ClaimCtx<'a> {
        let claims = Claims::compute(&agg);
        // A dataset with aggregated sessions but no rows is the streaming
        // fold: feature extraction needs rows, so the cluster claims are
        // skipped there. The streaming feature folds are checked against
        // the reference on their own (`tests/cluster_invariance.rs`,
        // `tests/streaming_analysis.rs`).
        let clusters = if dataset.sessions.is_empty() && claims.total_sessions > 0 {
            None
        } else {
            let run =
                hf_cluster::ClusterRun::over(dataset, 1, &hf_cluster::KMeansConfig::default());
            Some(run.output)
        };
        ClaimCtx {
            clusters,
            fig2: figures::fig2(&agg),
            fig7: figures::fig7(&agg),
            fig10: figures::fig10(&agg),
            fig16: figures::fig16(&agg),
            t2: tables::table2(dataset, &agg),
            t3: tables::table3(dataset, &agg),
            t4: tables::hash_table(dataset, &agg, tags, HashSortKey::Sessions, 20),
            t6: tables::hash_table(dataset, &agg, tags, HashSortKey::Days, 20),
            t6_full: tables::hash_table(dataset, &agg, tags, HashSortKey::Days, 5000),
            dataset,
            tags,
            agg,
            claims,
        }
    }

    fn share(&self, c: Category) -> f64 {
        self.agg.cat_totals[c.index()] as f64 / self.claims.total_sessions.max(1) as f64
    }

    fn ssh_within(&self, c: Category) -> f64 {
        self.agg.cat_ssh[c.index()] as f64 / self.agg.cat_totals[c.index()].max(1) as f64
    }

    fn ecdf(&self, c: Category) -> &hf_core::metrics::Ecdf {
        &self
            .fig7
            .ecdfs
            .iter()
            .find(|(cat, _)| *cat == c)
            .expect("fig7 covers every category")
            .1
    }

    fn mean_day_by_cat(&self, c: Category, r: std::ops::Range<usize>) -> f64 {
        let n = r.len() as f64;
        r.map(|d| self.agg.day_by_cat[c.index()][d] as f64)
            .sum::<f64>()
            / n
    }

    fn mean_day_ips(&self, c: Category, r: std::ops::Range<usize>) -> f64 {
        let n = r.len() as f64;
        r.map(|d| self.agg.day_unique_ips[d][c.index()] as f64)
            .sum::<f64>()
            / n
    }

    fn no_cmd_share(&self, r: std::ops::Range<usize>) -> f64 {
        let cat: u64 = r
            .clone()
            .map(|d| self.agg.day_by_cat[Category::NoCmd.index()][d])
            .sum();
        let tot: u64 = r.map(|d| self.agg.day_total[d]).sum();
        cat as f64 / tot.max(1) as f64
    }

    fn as_breadth(&self) -> f64 {
        // The aggregates' ASN set is proven row-equivalent by the hf-core
        // suite; reading it here keeps the claim evaluable on a row-free
        // (streaming) dataset.
        self.agg.asns.len() as f64
    }
}

/// How a measured value is judged against the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expectation {
    /// `|measured - paper| < tol`.
    Within {
        /// The paper's reported value.
        paper: f64,
        /// Absolute tolerance.
        tol: f64,
    },
    /// `lo <= measured < hi`.
    Range {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// `measured >= x`.
    AtLeast(f64),
    /// `measured <= x`.
    AtMost(f64),
    /// Structural predicate: measured is 1.0 when the claim holds.
    Holds,
}

impl Expectation {
    /// Does `measured` satisfy this expectation?
    pub fn check(&self, measured: f64) -> bool {
        match *self {
            Expectation::Within { paper, tol } => (measured - paper).abs() < tol,
            Expectation::Range { lo, hi } => measured >= lo && measured < hi,
            Expectation::AtLeast(x) => measured >= x,
            Expectation::AtMost(x) => measured <= x,
            Expectation::Holds => measured == 1.0,
        }
    }

    /// Human rendering of the acceptance region.
    pub fn describe(&self) -> String {
        match *self {
            Expectation::Within { paper, tol } => format!("{paper} ± {tol}"),
            Expectation::Range { lo, hi } => format!("[{lo}, {hi})"),
            Expectation::AtLeast(x) => format!("≥ {x}"),
            Expectation::AtMost(x) => format!("≤ {x}"),
            Expectation::Holds => "holds".to_string(),
        }
    }
}

/// One paper claim: where it comes from, what the paper says, how we
/// measure it.
pub struct ClaimSpec {
    /// Stable identifier, e.g. `table1.no_cred_share`.
    pub id: &'static str,
    /// Paper source, e.g. `Table 1` or `Fig. 7`.
    pub source: &'static str,
    /// What the claim says, in words.
    pub description: &'static str,
    /// Acceptance region.
    pub expectation: Expectation,
    /// Accessor for the measured value.
    pub measure: fn(&ClaimCtx) -> f64,
}

/// Outcome of evaluating one claim.
pub struct ClaimResult {
    /// The spec that was evaluated.
    pub spec: &'static ClaimSpec,
    /// The measured value.
    pub measured: f64,
    /// Whether the expectation held.
    pub pass: bool,
}

fn b(v: bool) -> f64 {
    if v {
        1.0
    } else {
        0.0
    }
}

/// The full claim table. Order follows the paper's sections.
pub fn claim_specs() -> &'static [ClaimSpec] {
    use Expectation::*;
    const PAPER_PASSWORDS: [&str; 10] = [
        "admin",
        "1234",
        "3245gs5662d34",
        "dreambox",
        "vertex25ektks123",
        "12345",
        "h3c",
        "1qaz2wsx3edc",
        "passw0rd",
        "GM8182",
    ];
    static SPECS: &[ClaimSpec] = &[
        // ----- Table 1: session taxonomy -----
        ClaimSpec {
            id: "table1.no_cred_share",
            source: "Table 1",
            description: "NO_CRED share of all sessions",
            expectation: Within {
                paper: 0.277,
                tol: 0.02,
            },
            measure: |c| c.share(Category::NoCred),
        },
        ClaimSpec {
            id: "table1.fail_log_share",
            source: "Table 1",
            description: "FAIL_LOG share of all sessions",
            expectation: Within {
                paper: 0.42,
                tol: 0.02,
            },
            measure: |c| c.share(Category::FailLog),
        },
        ClaimSpec {
            id: "table1.no_cmd_share",
            source: "Table 1",
            description: "NO_CMD share of all sessions",
            expectation: Within {
                paper: 0.116,
                tol: 0.02,
            },
            measure: |c| c.share(Category::NoCmd),
        },
        ClaimSpec {
            id: "table1.cmd_share",
            source: "Table 1",
            description: "CMD share of all sessions",
            expectation: Within {
                paper: 0.18,
                tol: 0.02,
            },
            measure: |c| c.share(Category::Cmd),
        },
        ClaimSpec {
            id: "table1.cmd_uri_share",
            source: "Table 1",
            description: "CMD+URI share of all sessions",
            expectation: Within {
                paper: 0.007,
                tol: 0.005,
            },
            measure: |c| c.share(Category::CmdUri),
        },
        ClaimSpec {
            id: "table1.ssh_share",
            source: "Table 1",
            description: "SSH share of all sessions",
            expectation: Within {
                paper: 0.7584,
                tol: 0.03,
            },
            measure: |c| c.claims.ssh_share,
        },
        ClaimSpec {
            id: "table1.ssh_within_no_cred",
            source: "Table 1",
            description: "SSH share within NO_CRED (Telnet-dominated)",
            expectation: Within {
                paper: 0.2182,
                tol: 0.03,
            },
            measure: |c| c.ssh_within(Category::NoCred),
        },
        ClaimSpec {
            id: "table1.ssh_within_fail_log",
            source: "Table 1",
            description: "SSH share within FAIL_LOG",
            expectation: AtLeast(0.97),
            measure: |c| c.ssh_within(Category::FailLog),
        },
        ClaimSpec {
            id: "table1.ssh_within_no_cmd",
            source: "Table 1",
            description: "SSH share within NO_CMD",
            expectation: AtLeast(0.95),
            measure: |c| c.ssh_within(Category::NoCmd),
        },
        ClaimSpec {
            id: "table1.ssh_within_cmd",
            source: "Table 1",
            description: "SSH share within CMD",
            expectation: AtLeast(0.90),
            measure: |c| c.ssh_within(Category::Cmd),
        },
        ClaimSpec {
            id: "table1.ssh_within_cmd_uri",
            source: "Table 1",
            description: "SSH share within CMD+URI (mixed)",
            expectation: Within {
                paper: 0.6245,
                tol: 0.08,
            },
            measure: |c| c.ssh_within(Category::CmdUri),
        },
        // ----- Fig. 2: honeypot popularity -----
        ClaimSpec {
            id: "fig2.top10_session_share",
            source: "Fig. 2",
            description: "share of sessions on the 10 busiest honeypots",
            expectation: Within {
                paper: 0.14,
                tol: 0.035,
            },
            measure: |c| c.claims.top10_session_share,
        },
        ClaimSpec {
            id: "fig2.session_spread",
            source: "Fig. 2",
            description: "max/min sessions-per-honeypot spread",
            expectation: AtLeast(25.0),
            measure: |c| c.claims.session_spread,
        },
        ClaimSpec {
            id: "fig2.min_sessions",
            source: "Fig. 2",
            description: "least-targeted honeypot still sees traffic (scaled 360k)",
            expectation: AtLeast(360_000.0 * 0.002 * 0.5),
            measure: |c| c.fig2.series.last().map(|&(_, n)| n as f64).unwrap_or(0.0),
        },
        // ----- Table 2: successful passwords -----
        ClaimSpec {
            id: "table2.paper_passwords_present",
            source: "Table 2",
            description: "paper's top-10 successful passwords all reproduced",
            expectation: AtLeast(10.0),
            measure: |c| {
                PAPER_PASSWORDS
                    .iter()
                    .filter(|p| c.t2.rows.iter().any(|(q, _)| q == *p))
                    .count() as f64
            },
        },
        // ----- Table 3: commands -----
        ClaimSpec {
            id: "table3.trojan_key_present",
            source: "Table 3",
            description: "H1 trojan authorized_keys command in the top-20",
            expectation: Holds,
            measure: |c| {
                b(c.t3
                    .rows
                    .iter()
                    .any(|(cmd, n)| cmd.contains("authorized_keys") && *n > 0))
            },
        },
        ClaimSpec {
            id: "table3.recon_commands_present",
            source: "Table 3",
            description: "classic recon commands (uname, free, cpuinfo) in the top-20",
            expectation: AtLeast(3.0),
            measure: |c| {
                ["uname", "free", "cpuinfo"]
                    .iter()
                    .filter(|needle| c.t3.rows.iter().any(|(cmd, _)| cmd.contains(**needle)))
                    .count() as f64
            },
        },
        // ----- Tables 4–6: headline hashes -----
        ClaimSpec {
            id: "table4.top_is_h1_trojan",
            source: "Table 4",
            description: "top hash by sessions is campaign H1, tagged trojan",
            expectation: Holds,
            measure: |c| {
                let top = &c.t4.rows[0];
                b(top.campaign == "H1" && top.tag == "trojan")
            },
        },
        ClaimSpec {
            id: "table4.h1_honeypots",
            source: "Table 4",
            description: "H1 observed at most of the farm",
            expectation: AtLeast(201.0),
            measure: |c| c.t4.rows[0].honeypots as f64,
        },
        ClaimSpec {
            id: "table4.h1_days",
            source: "Table 4",
            description: "H1 active almost the whole window",
            expectation: AtLeast(441.0),
            measure: |c| c.t4.rows[0].days as f64,
        },
        ClaimSpec {
            id: "table4.h1_dominance",
            source: "Table 4",
            description: "H1 sessions vs runner-up (paper: >20×)",
            expectation: AtLeast(10.0),
            measure: |c| c.t4.rows[0].sessions as f64 / c.t4.rows[1].sessions.max(1) as f64,
        },
        ClaimSpec {
            id: "table4.tag_mix",
            source: "Table 4",
            description: "mirai, trojan, malicious, miner tags all in top-20",
            expectation: AtLeast(4.0),
            measure: |c| {
                ["mirai", "trojan", "malicious", "miner"]
                    .iter()
                    .filter(|t| c.t4.rows.iter().any(|r| r.tag == **t))
                    .count() as f64
            },
        },
        ClaimSpec {
            id: "table6.structure",
            source: "Table 6",
            description:
                "days table sorted descending, mirai present, mirai-77 family ≤ 77 honeypots",
            expectation: Holds,
            measure: |c| {
                let sorted = c.t6.rows.windows(2).all(|w| w[0].days >= w[1].days);
                let mirai = c.t6.rows.iter().any(|r| r.tag == "mirai");
                let capped = ["H24", "H25", "H32"].iter().all(|name| {
                    c.t6_full
                        .rows
                        .iter()
                        .find(|r| r.campaign == *name)
                        .map(|r| r.honeypots <= 77)
                        .unwrap_or(true)
                });
                b(sorted && mirai && capped)
            },
        },
        // ----- Section 7.1: client population -----
        ClaimSpec {
            id: "clients.total",
            source: "§7.1",
            description: "distinct client IPs (2.1M scaled by 0.002 ≈ 4200)",
            expectation: Range {
                lo: 2_000.0,
                hi: 12_000.0,
            },
            measure: |c| c.claims.total_clients as f64,
        },
        ClaimSpec {
            id: "clients.as_breadth",
            source: "§7.1",
            description: "distinct ASes observed",
            expectation: AtLeast(501.0),
            measure: |c| c.as_breadth(),
        },
        // ----- Figs. 12/13: client spread and lifetime -----
        ClaimSpec {
            id: "fig12.single_honeypot",
            source: "Fig. 12",
            description: "clients contacting exactly one honeypot",
            expectation: Range { lo: 0.2, hi: 0.5 },
            measure: |c| c.claims.clients_single_honeypot,
        },
        ClaimSpec {
            id: "fig12.gt10_honeypots",
            source: "Fig. 12",
            description: "clients contacting more than 10 honeypots",
            expectation: Range { lo: 0.10, hi: 0.35 },
            measure: |c| c.claims.clients_gt10_honeypots,
        },
        ClaimSpec {
            id: "fig12.gt_half_farm",
            source: "Fig. 12",
            description: "clients contacting more than half the farm",
            expectation: AtMost(0.05),
            measure: |c| c.claims.clients_gt_half,
        },
        ClaimSpec {
            id: "fig13.single_day",
            source: "Fig. 13",
            description: "clients active exactly one day",
            expectation: Range { lo: 0.30, hi: 0.65 },
            measure: |c| c.claims.clients_single_day,
        },
        ClaimSpec {
            id: "fig13.almost_daily",
            source: "Fig. 13",
            description: "IPs active on >90% of days",
            expectation: AtLeast(100.0),
            measure: |c| c.claims.clients_almost_daily as f64,
        },
        // ----- Section 9: roles -----
        ClaimSpec {
            id: "roles.multi_role_share",
            source: "§9",
            description: "client IPs appearing in more than one category",
            expectation: AtLeast(0.2),
            measure: |c| c.claims.multi_role_share,
        },
        // ----- Section 8.4: hash coverage -----
        ClaimSpec {
            id: "hashes.single_honeypot",
            source: "§8.4",
            description: "hashes seen at exactly one honeypot",
            expectation: AtLeast(0.6),
            measure: |c| c.claims.hashes_single_honeypot,
        },
        ClaimSpec {
            id: "hashes.top_honeypot_share",
            source: "§8.4",
            description: "share of all hashes on the hash-richest honeypot",
            expectation: AtMost(0.05),
            measure: |c| c.claims.top_honeypot_hash_share,
        },
        ClaimSpec {
            id: "hashes.top10_differs_from_sessions",
            source: "§8.4",
            description: "hash-richest honeypots are not the session-richest",
            expectation: Holds,
            measure: |c| b(!c.claims.hash_top10_equals_session_top10),
        },
        ClaimSpec {
            id: "hashes.early_observers",
            source: "§8.4",
            description: "hash-rich honeypots see hashes first",
            expectation: Holds,
            measure: |c| b(c.claims.hash_rich_are_early_observers),
        },
        ClaimSpec {
            id: "hashes.gt_half_farm",
            source: "§8.4",
            description: "hashes seen by more than half the farm (scaled)",
            expectation: AtLeast(4.0),
            measure: |c| c.claims.hashes_gt_half as f64,
        },
        // ----- Fig. 7: duration shapes -----
        ClaimSpec {
            id: "fig7.no_cred_under_minute",
            source: "Fig. 7",
            description: "NO_CRED sessions ending within 59 s",
            expectation: AtLeast(0.85),
            measure: |c| c.ecdf(Category::NoCred).fraction_le(59),
        },
        ClaimSpec {
            id: "fig7.fail_log_under_minute",
            source: "Fig. 7",
            description: "FAIL_LOG sessions ending within 59 s",
            expectation: AtLeast(0.85),
            measure: |c| c.ecdf(Category::FailLog).fraction_le(59),
        },
        ClaimSpec {
            id: "fig7.no_cmd_reaches_timeout",
            source: "Fig. 7",
            description: "NO_CMD sessions ending before the 180 s idle timeout",
            expectation: AtMost(0.10),
            measure: |c| c.ecdf(Category::NoCmd).fraction_le(179),
        },
        ClaimSpec {
            id: "fig7.cmd_uri_outlives_timeout",
            source: "Fig. 7",
            description: "CMD+URI sessions outliving 180 s (downloads reset the timer)",
            expectation: AtLeast(0.01),
            measure: |c| c.ecdf(Category::CmdUri).fraction_gt(180),
        },
        ClaimSpec {
            id: "fig7.no_cmd_timeout_end_reason",
            source: "Fig. 7",
            description: "NO_CMD sessions whose end reason is the timeout",
            expectation: AtLeast(0.85),
            measure: |c| {
                c.agg.cat_end_reasons[Category::NoCmd.index()][1] as f64
                    / c.agg.cat_totals[Category::NoCmd.index()].max(1) as f64
            },
        },
        // ----- Fig. 16: locality -----
        ClaimSpec {
            id: "fig16.cmd_uri_locality",
            source: "Fig. 16",
            description: "CMD+URI out-of-continent-only share vs overall (ratio)",
            expectation: AtMost(0.7),
            measure: |c| {
                c.fig16.mean_out_of_continent_only(5)
                    / c.fig16.mean_out_of_continent_only(0).max(f64::MIN_POSITIVE)
            },
        },
        ClaimSpec {
            id: "fig16.cmd_uri_local_touch",
            source: "Fig. 16",
            description: "CMD+URI interactions touching the local continent",
            expectation: AtLeast(0.5),
            measure: |c| c.fig16.mean_local_touch(5),
        },
        // ----- Fig. 17: freshness -----
        ClaimSpec {
            id: "fig17.active_days",
            source: "Fig. 17",
            description: "days with hash activity",
            expectation: AtLeast(401.0),
            measure: |c| c.agg.freshness.len() as f64,
        },
        ClaimSpec {
            id: "fig17.memory_monotone",
            source: "Fig. 17",
            description: "shorter memories are always fresher (7d ≥ 30d ≥ ever)",
            expectation: Holds,
            measure: |c| {
                b(c.agg
                    .freshness
                    .iter()
                    .all(|p| p.fresh_7d >= p.fresh_30d && p.fresh_30d >= p.fresh_ever))
            },
        },
        ClaimSpec {
            id: "fig17.min_fresh_share",
            source: "Fig. 17",
            description: "minimum daily fresh-hash share (paper: dips to 2%)",
            expectation: AtMost(0.15),
            measure: |c| {
                c.agg
                    .freshness
                    .iter()
                    .skip(10)
                    .map(|p| p.frac_ever())
                    .fold(1.0, f64::min)
            },
        },
        ClaimSpec {
            id: "fig17.max_fresh_share",
            source: "Fig. 17",
            description: "maximum daily fresh-hash share (paper: peaks at 60%)",
            expectation: AtLeast(0.4),
            measure: |c| {
                c.agg
                    .freshness
                    .iter()
                    .skip(10)
                    .map(|p| p.frac_ever())
                    .fold(0.0, f64::max)
            },
        },
        // ----- Fig. 10: geography -----
        ClaimSpec {
            id: "fig10.overall_top_cn",
            source: "Fig. 10",
            description: "China leads the overall client-origin mix",
            expectation: Holds,
            measure: |c| {
                b(c.fig10
                    .overall
                    .first()
                    .map(|(cc, _)| cc == "CN")
                    .unwrap_or(false))
            },
        },
        ClaimSpec {
            id: "fig10.cmd_uri_top_us",
            source: "Figs. 10/23",
            description: "the US leads the CMD+URI client-origin mix",
            expectation: Holds,
            measure: |c| {
                b(c.fig10
                    .per_category
                    .iter()
                    .find(|(cat, _)| *cat == Category::CmdUri)
                    .and_then(|(_, v)| v.first())
                    .map(|(cc, _)| cc == "US")
                    .unwrap_or(false))
            },
        },
        // ----- Fig. 11: scanning ramp-up -----
        ClaimSpec {
            id: "fig11.session_rampup",
            source: "Fig. 11",
            description: "NO_CRED sessions/day ramp, days 100–130 vs 10–40",
            expectation: AtLeast(1.6),
            measure: |c| {
                c.mean_day_by_cat(Category::NoCred, 100..130)
                    / c.mean_day_by_cat(Category::NoCred, 10..40)
                        .max(f64::MIN_POSITIVE)
            },
        },
        ClaimSpec {
            id: "fig11.ip_rampup",
            source: "Fig. 11",
            description: "NO_CRED unique IPs/day ramp (muted at reduced scale)",
            expectation: AtLeast(1.05),
            measure: |c| {
                c.mean_day_ips(Category::NoCred, 100..130)
                    / c.mean_day_ips(Category::NoCred, 10..40)
                        .max(f64::MIN_POSITIVE)
            },
        },
        // ----- Dated anomalies (Figs. 5/6) -----
        ClaimSpec {
            id: "anomaly.sep5_fail_log_spike",
            source: "Fig. 5",
            description: "2022-09-05 FAIL_LOG spike vs 10-day baseline (ratio)",
            expectation: AtLeast(3.0),
            measure: |c| {
                let sep5 = StudyWindow::paper()
                    .day_index(Date {
                        year: 2022,
                        month: 9,
                        day: 5,
                    })
                    .expect("2022-09-05 inside the paper window")
                    as usize;
                let fail = &c.agg.day_by_cat[Category::FailLog.index()];
                let baseline: f64 = (sep5 - 10..sep5).map(|d| fail[d] as f64).sum::<f64>() / 10.0;
                fail[sep5] as f64 / baseline.max(f64::MIN_POSITIVE)
            },
        },
        ClaimSpec {
            id: "anomaly.no_cmd_start_vs_middle",
            source: "Fig. 6",
            description: "NO_CMD share, window start (days 0–60) vs middle (ratio)",
            expectation: AtLeast(3.0),
            measure: |c| c.no_cmd_share(0..60) / c.no_cmd_share(200..260).max(f64::MIN_POSITIVE),
        },
        ClaimSpec {
            id: "anomaly.no_cmd_end_vs_middle",
            source: "Fig. 6",
            description: "NO_CMD share, window end (days 420–480) vs middle (ratio)",
            expectation: AtLeast(3.0),
            measure: |c| c.no_cmd_share(420..480) / c.no_cmd_share(200..260).max(f64::MIN_POSITIVE),
        },
        ClaimSpec {
            id: "anomaly.no_cmd_start_share",
            source: "Fig. 6",
            description: "NO_CMD share in the first two months",
            expectation: AtLeast(0.15),
            measure: |c| c.no_cmd_share(0..60),
        },
        // ----- Attacker clustering (PAPERS.md clustering methodology) -----
        ClaimSpec {
            id: "cluster.count",
            source: "Clustering",
            description: "silhouette sweep lands on a small attacker-cluster count",
            expectation: Range { lo: 2.0, hi: 9.0 },
            measure: |c| c.clusters.as_ref().map_or(f64::NAN, |o| o.k as f64),
        },
        ClaimSpec {
            id: "cluster.coverage",
            source: "Clustering",
            description: "every distinct client lands in exactly one non-empty cluster",
            expectation: Holds,
            measure: |c| {
                let Some(o) = c.clusters.as_ref() else {
                    return f64::NAN;
                };
                let total: u64 = o.sizes.iter().sum();
                b(o.assignments.len() == c.agg.clients.len()
                    && total == o.assignments.len() as u64
                    && o.sizes.iter().all(|&s| s > 0))
            },
        },
        ClaimSpec {
            id: "cluster.largest_share",
            source: "Clustering",
            description: "largest cluster's share of clients (no single-blob collapse)",
            expectation: AtMost(0.90),
            measure: |c| {
                c.clusters.as_ref().map_or(f64::NAN, |o| {
                    let total: u64 = o.sizes.iter().sum();
                    o.sizes.first().copied().unwrap_or(0) as f64 / total.max(1) as f64
                })
            },
        },
        ClaimSpec {
            id: "cluster.silhouette",
            source: "Clustering",
            description: "chosen k separates clients with a positive silhouette",
            expectation: AtLeast(0.05),
            measure: |c| c.clusters.as_ref().map_or(f64::NAN, |o| o.silhouette),
        },
        ClaimSpec {
            id: "cluster.size_distribution",
            source: "Clustering",
            description: "canonical labelling: cluster sizes are non-increasing",
            expectation: Holds,
            measure: |c| {
                let Some(o) = c.clusters.as_ref() else {
                    return f64::NAN;
                };
                b(o.sizes.windows(2).all(|w| w[0] >= w[1]))
            },
        },
    ];
    SPECS
}

/// Evaluate every claim in the table against one context.
pub fn evaluate(ctx: &ClaimCtx) -> Vec<ClaimResult> {
    claim_specs()
        .iter()
        .map(|spec| {
            let measured = (spec.measure)(ctx);
            ClaimResult {
                spec,
                measured,
                pass: spec.expectation.check(measured),
            }
        })
        .collect()
}

/// Plain-text report: one line per claim, failures marked.
pub fn render_text(results: &[ClaimResult]) -> String {
    let mut out = String::new();
    let failed = results.iter().filter(|r| !r.pass).count();
    out.push_str(&format!(
        "paper claims: {}/{} pass\n",
        results.len() - failed,
        results.len()
    ));
    for r in results {
        out.push_str(&format!(
            "  [{}] {:<36} {:<10} expect {:<18} measured {:.4}\n",
            if r.pass { "ok" } else { "FAIL" },
            r.spec.id,
            r.spec.source,
            r.spec.expectation.describe(),
            r.measured,
        ));
    }
    out
}

/// Markdown table for EXPERIMENTS.md.
pub fn render_markdown(results: &[ClaimResult]) -> String {
    let mut out = String::new();
    out.push_str("| Claim | Source | Expectation | Measured | Status |\n");
    out.push_str("|---|---|---|---|---|\n");
    for r in results {
        out.push_str(&format!(
            "| `{}` — {} | {} | {} | {:.4} | {} |\n",
            r.spec.id,
            r.spec.description,
            r.spec.source,
            r.spec.expectation.describe(),
            r.measured,
            if r.pass { "✅" } else { "❌" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_check_boundaries() {
        assert!(Expectation::Within {
            paper: 0.5,
            tol: 0.1
        }
        .check(0.55));
        assert!(!Expectation::Within {
            paper: 0.5,
            tol: 0.1
        }
        .check(0.61));
        assert!(Expectation::Range { lo: 1.0, hi: 2.0 }.check(1.0));
        assert!(!Expectation::Range { lo: 1.0, hi: 2.0 }.check(2.0));
        assert!(Expectation::AtLeast(3.0).check(3.0));
        assert!(!Expectation::AtLeast(3.0).check(2.9));
        assert!(Expectation::AtMost(0.05).check(0.05));
        assert!(!Expectation::AtMost(0.05).check(0.06));
        assert!(Expectation::Holds.check(1.0));
        assert!(!Expectation::Holds.check(0.0));
    }

    #[test]
    fn claim_table_is_well_formed() {
        let specs = claim_specs();
        assert!(specs.len() >= 40, "claim table unexpectedly small");
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate claim ids");
        for s in specs {
            assert!(s.id.contains('.'), "claim id {} should be namespaced", s.id);
            assert!(!s.description.is_empty());
        }
    }

    #[test]
    fn renderers_include_every_claim() {
        // Fabricate results without running a simulation.
        let results: Vec<ClaimResult> = claim_specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| ClaimResult {
                spec,
                measured: i as f64,
                pass: i % 2 == 0,
            })
            .collect();
        let text = render_text(&results);
        let md = render_markdown(&results);
        for spec in claim_specs() {
            assert!(text.contains(spec.id), "text missing {}", spec.id);
            assert!(md.contains(spec.id), "markdown missing {}", spec.id);
        }
        assert!(text.contains("FAIL"));
        assert!(md.contains("❌") && md.contains("✅"));
    }
}
