//! Differential oracles: typed, field-level comparisons that name the
//! diverging field instead of asserting on an opaque blob.
//!
//! Two kinds of comparison live here.
//!
//! * **Against the reference.** Every quantity the paper's tables and
//!   figures read is checked once, against an independent computation:
//!   [`project`] turns a fold's output (the [`Dataset`]'s pools, the
//!   [`Aggregates`], the figures built from them, [`Claims`]' F18 factor,
//!   the birth timeline and the cluster [`FeatureMatrix`]) into the owned
//!   form of [`crate::reference::Measures`], and [`diff_reference`]
//!   compares the two field by field. The projection is the only test code
//!   that resolves interned ids. [`records_of`] rebuilds the records a
//!   kept run stored, so a simulation can be measured by the reference too.
//! * **Run against run,** where two runs must agree bit for bit and no
//!   definition is involved: two runs of one seed, a metrics-off and a
//!   metrics-on run, a simulation and its snapshot reload, the simulator
//!   and the live wire farm. [`diff_sim_outputs`] walks every observable
//!   surface of a [`SimOutput`] — rows in order (plan order is part of the
//!   determinism contract), digest universes as sorted sets (pool intern
//!   order is an implementation detail), artifact metadata per digest and
//!   tag associations per hash — and [`diff_reports`] and
//!   [`diff_manifests`] do the same for rendered reports and run manifests.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use hf_agents::{Ecosystem, EcosystemConfig};
use hf_cluster::FeatureMatrix;
use hf_core::aggregates::HpBitset;
use hf_core::idhash::{IdMap, IdSet};
use hf_core::metrics::BandSeries;
use hf_core::report::figures;
use hf_core::{birth_report, Aggregates, Claims, FederationReport};
use hf_farm::store::Row;
use hf_farm::{Dataset, SessionStore, StringPool, TagDb};
use hf_geo::Ip4;
use hf_honeypot::{LoginAttempt, SessionRecord};
use hf_obs::{Histogram, RunManifest};
use hf_proto::creds::Credentials;
use hf_shell::CommandRecord;
use hf_sim::{SimConfig, SimOutput};

use crate::reference::{Birth, ClientMeasures, Federation, HashMeasures, Measures, LEAVES};

/// Cap on per-section mismatch detail; beyond this only a count is kept.
pub(crate) const MAX_DETAIL: usize = 8;

/// One field-level divergence between two outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Dotted path of the diverging field, e.g. `rows[17].client_ip`.
    pub field: String,
    /// Human-readable left-vs-right detail.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.detail)
    }
}

/// The outcome of a differential comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Label of the left-hand run (e.g. `"threads=1"`).
    pub left: String,
    /// Label of the right-hand run.
    pub right: String,
    /// Field-level mismatches, up to `MAX_DETAIL` per section.
    pub mismatches: Vec<Mismatch>,
    /// Mismatches beyond the per-section detail cap.
    pub suppressed: usize,
}

impl DiffReport {
    pub(crate) fn new(left: &str, right: &str) -> Self {
        DiffReport {
            left: left.to_string(),
            right: right.to_string(),
            mismatches: Vec::new(),
            suppressed: 0,
        }
    }

    pub(crate) fn push(&mut self, field: impl Into<String>, detail: impl Into<String>) {
        self.mismatches.push(Mismatch {
            field: field.into(),
            detail: detail.into(),
        });
    }

    /// Push a mismatch while `budget` lasts; past it, only count it as
    /// suppressed.
    pub(crate) fn capped(
        &mut self,
        budget: &mut usize,
        field: impl Into<String>,
        detail: impl Into<String>,
    ) {
        if *budget == 0 {
            self.suppressed += 1;
        } else {
            *budget -= 1;
            self.push(field, detail);
        }
    }

    /// Did the two outputs agree on every compared surface?
    pub fn is_identical(&self) -> bool {
        self.mismatches.is_empty() && self.suppressed == 0
    }

    /// Render the report for humans (empty string when identical).
    pub fn render(&self) -> String {
        if self.is_identical() {
            return String::new();
        }
        let mut s = format!(
            "{} vs {}: {} field-level mismatch(es)",
            self.left,
            self.right,
            self.mismatches.len() + self.suppressed
        );
        for m in &self.mismatches {
            s.push_str("\n  ");
            s.push_str(&m.to_string());
        }
        if self.suppressed > 0 {
            s.push_str(&format!("\n  … and {} more", self.suppressed));
        }
        s
    }

    /// Panic with the rendered report unless the outputs were identical.
    #[track_caller]
    pub fn assert_identical(&self) {
        assert!(self.is_identical(), "{}", self.render());
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identical() {
            write!(f, "{} vs {}: identical", self.left, self.right)
        } else {
            f.write_str(&self.render())
        }
    }
}

/// Compare every field of two session rows, reporting each divergence.
fn diff_row(report: &mut DiffReport, i: usize, a: &Row, b: &Row, budget: &mut usize) {
    macro_rules! field {
        ($name:ident) => {
            if a.$name != b.$name {
                report.capped(
                    budget,
                    format!("rows[{i}].{}", stringify!($name)),
                    format!("{:?} != {:?}", a.$name, b.$name),
                );
            }
        };
    }
    field!(start_secs);
    field!(duration_secs);
    field!(honeypot);
    field!(client_port);
    field!(client_ip);
    field!(client_asn);
    field!(client_country);
    field!(protocol);
    field!(end_reason);
    field!(ssh_version_id);
    field!(login_list_id);
    field!(cmd_list_id);
    field!(uri_list_id);
    field!(hash_list_id);
    field!(dl_list_id);
}

/// Diff two datasets: rows in order, digest universe as a sorted set,
/// artifact metadata per digest, and the deployment plan.
pub fn diff_datasets(left: &str, a: &Dataset, right: &str, b: &Dataset) -> DiffReport {
    let mut report = DiffReport::new(left, right);

    // Session rows: identical content in identical (plan) order.
    if a.len() != b.len() {
        report.push("sessions.len", format!("{} != {}", a.len(), b.len()));
    }
    let mut budget = MAX_DETAIL;
    for (i, (x, y)) in a.sessions.rows().iter().zip(b.sessions.rows()).enumerate() {
        if x != y {
            diff_row(&mut report, i, x, y, &mut budget);
        }
    }

    // Digest universe: the *set* of hashes is the invariant; the pool's
    // intern order is an implementation detail of the store.
    let digests = |d: &Dataset| {
        let mut v: Vec<_> = d.sessions.digests.iter().map(|(_, dg)| dg).collect();
        v.sort();
        v
    };
    let (da, db) = (digests(a), digests(b));
    if da != db {
        let mut budget = MAX_DETAIL;
        for d in da.iter().filter(|d| !db.contains(d)) {
            report.capped(
                &mut budget,
                "digests",
                format!("{} only in {left}", d.short()),
            );
        }
        for d in db.iter().filter(|d| !da.contains(d)) {
            report.capped(
                &mut budget,
                "digests",
                format!("{} only in {right}", d.short()),
            );
        }
        if budget == MAX_DETAIL {
            // Same set cardinality but different multiplicity layout.
            report.push("digests.len", format!("{} != {}", da.len(), db.len()));
        }
    }

    // Artifact metadata, including ingest-order-sensitive first_seen.
    if a.artifacts.len() != b.artifacts.len() {
        report.push(
            "artifacts.len",
            format!("{} != {}", a.artifacts.len(), b.artifacts.len()),
        );
    }
    let mut budget = MAX_DETAIL;
    for (_, d) in a.sessions.digests.iter() {
        let (ma, mb) = (a.artifacts.get(&d), b.artifacts.get(&d));
        match (ma, mb) {
            (Some(ma), Some(mb)) => {
                for (name, va, vb) in [
                    ("first_seen", ma.first_seen.0, mb.first_seen.0),
                    ("last_seen", ma.last_seen.0, mb.last_seen.0),
                    ("occurrences", ma.occurrences, mb.occurrences),
                ] {
                    if va != vb {
                        report.capped(
                            &mut budget,
                            format!("artifacts[{}].{name}", d.short()),
                            format!("{va} != {vb}"),
                        );
                    }
                }
            }
            (Some(_), None) => {
                report.push(
                    format!("artifacts[{}]", d.short()),
                    format!("present in {left}, missing in {right}"),
                );
            }
            (None, _) => {
                report.push(
                    format!("artifacts[{}]", d.short()),
                    format!("missing in {left}"),
                );
            }
        }
    }

    if a.plan != b.plan {
        report.push("plan", "deployment plans differ".to_string());
    }
    report
}

/// Diff two tag databases: same cardinality and, per hash, the same
/// first-wins tag/campaign association.
pub fn diff_tagdbs(left: &str, a: &TagDb, right: &str, b: &TagDb) -> DiffReport {
    let mut report = DiffReport::new(left, right);
    if a.len() != b.len() {
        report.push("tags.len", format!("{} != {}", a.len(), b.len()));
    }
    let mut budget = MAX_DETAIL;
    for (h, e) in a.iter() {
        let (tag_b, camp_b) = (b.tag(h), b.campaign(h));
        if tag_b != Some(e.tag.as_str()) || camp_b != Some(e.campaign.as_str()) {
            report.capped(
                &mut budget,
                format!("tags[{}]", h.short()),
                format!(
                    "{left}: {}/{} vs {right}: {}/{}",
                    e.tag,
                    e.campaign,
                    tag_b.unwrap_or("<absent>"),
                    camp_b.unwrap_or("<absent>"),
                ),
            );
        }
    }
    report
}

/// Diff two complete simulation outputs across every observable surface.
pub fn diff_sim_outputs(left: &str, a: &SimOutput, right: &str, b: &SimOutput) -> DiffReport {
    let mut report = diff_datasets(left, &a.dataset, right, &b.dataset);
    if a.n_clients != b.n_clients {
        report.push("n_clients", format!("{} != {}", a.n_clients, b.n_clients));
    }
    let tags = diff_tagdbs(left, &a.tags, right, &b.tags);
    report.mismatches.extend(tags.mismatches);
    report.suppressed += tags.suppressed;
    report
}

/// Assert two outputs are identical, panicking with the field-level report.
#[track_caller]
pub fn assert_outputs_identical(left: &str, a: &SimOutput, right: &str, b: &SimOutput) {
    diff_sim_outputs(left, a, right, b).assert_identical();
}

/// The records a store holds, rebuilt from its views in row order: every
/// field the collector stores, so a kept run's rows can feed
/// [`Measures::of`] (`tests/store_roundtrip.rs` holds the rebuild
/// lossless). The geolocation the collector added is dropped; the
/// reference resolves addresses itself.
pub fn records_of(store: &SessionStore) -> Vec<SessionRecord> {
    store
        .iter()
        .map(|v| SessionRecord {
            honeypot: v.honeypot(),
            protocol: v.protocol(),
            client_ip: v.client_ip(),
            client_port: v.raw().client_port,
            start: v.start(),
            duration_secs: v.duration_secs(),
            ended_by: v.ended_by(),
            ssh_client_version: v.ssh_version().map(str::to_string),
            logins: v
                .logins()
                .map(|(user, pass, accepted)| LoginAttempt {
                    creds: Credentials::new(user, pass),
                    accepted,
                })
                .collect(),
            commands: v
                .commands()
                .map(|(input, known)| CommandRecord {
                    input: input.to_string(),
                    known,
                })
                .collect(),
            uris: v.uris().map(str::to_string).collect(),
            file_hashes: v.file_hashes().collect(),
            download_hashes: v
                .download_hash_ids()
                .iter()
                .map(|&id| store.digests.get(id))
                .collect(),
        })
        .collect()
}

/// The reference's measures of a kept simulation run: its stored records,
/// with clients resolved in the world its ecosystem built from `config`.
pub fn measure_run(config: &SimConfig, out: &SimOutput) -> Measures {
    let world = Ecosystem::new(EcosystemConfig {
        seed: config.seed,
        scale: config.scale,
        window: config.window,
    })
    .world;
    Measures::of(
        &records_of(&out.dataset.sessions),
        &world,
        &out.dataset.plan,
    )
}

/// The honeypots set in a farm bitset.
fn honeypots(bits: &HpBitset) -> BTreeSet<u16> {
    (0..256u16)
        .filter(|&i| bits[(i >> 6) as usize] >> (i & 63) & 1 == 1)
        .collect()
}

/// A fold's output in the reference's owned form: every interned id
/// resolved against `dataset`'s pools, and the figures, the F18 factor and
/// the birth timeline taken from the library's own builders over `agg`.
/// `features` is the cluster matrix of the same rows. [`diff_reference`]
/// compares the result with [`Measures::of`]. `federation` is left empty.
pub fn project(dataset: &Dataset, agg: &Aggregates, features: &FeatureMatrix) -> Measures {
    let pools = &dataset.sessions;
    let digests = |ids: &IdSet| ids.iter().map(|&id| pools.digests.get(id)).collect();
    let ips = |ids: &IdSet| ids.iter().map(|&ip| Ip4(ip)).collect();
    let names = |ids: &IdMap<u64>, pool: &StringPool| {
        ids.iter()
            .map(|(&id, &n)| (pool.get(id).to_string(), n))
            .collect()
    };

    let top5 = figures::top5pct_honeypots(agg);
    let mut bands = BTreeMap::new();
    let mut put = |fig: String, series: &BandSeries| {
        for p in &series.points {
            let band = [p.p5, p.q25, p.median, p.q75, p.p95];
            bands.insert((fig.clone(), p.day), band);
        }
    };
    put(
        "fig3".into(),
        &figures::fig_bands_with(agg, Some(&top5)).bands,
    );
    put("fig4".into(), &figures::fig_bands_with(agg, None).bands);
    for (fig, sel) in [("fig8", None), ("fig9", Some(&top5[..]))] {
        for (cat, series) in figures::fig_cat_bands_with(agg, sel).bands {
            put(format!("{fig}.{}", cat.label()), &series);
        }
    }
    let birth = birth_report(agg);

    Measures {
        n_days: agg.n_days,
        n_honeypots: agg.n_honeypots,
        sessions: agg.total_sessions,
        leaf_sessions: agg.cat_totals,
        leaf_ssh: agg.cat_ssh,
        leaf_end_reasons: agg.cat_end_reasons,
        file_sessions: [
            agg.file_sessions.0,
            agg.file_sessions.1,
            agg.file_sessions.2,
        ],
        day_sessions: agg.day_total.clone(),
        day_leaf_sessions: agg.day_by_cat.clone(),
        day_hp_sessions: agg.day_hp_sessions.clone(),
        day_hp_leaf_sessions: agg.day_hp_by_cat.clone(),
        day_clients: agg.day_unique_ips.clone(),
        day_combos: agg.day_combo_clients.clone(),
        day_regions: agg.day_region_combos.clone(),
        durations: agg.dur_hist.clone(),
        hp_sessions: agg.hp_sessions.clone(),
        hp_clients: agg.hp_clients.iter().map(ips).collect(),
        hp_leaf_clients: agg
            .hp_clients_by_cat
            .iter()
            .map(|by_leaf| by_leaf.each_ref().map(ips))
            .collect(),
        hp_hashes: agg.hp_hashes.iter().map(digests).collect(),
        hp_first_hashes: agg.hp_first_hashes.clone(),
        top5,
        bands,
        clients: agg
            .clients
            .iter()
            .map(|(&ip, c)| {
                let client = ClientMeasures {
                    honeypots: honeypots(&c.honeypots),
                    leaf_honeypots: c.honeypots_by_cat.each_ref().map(honeypots),
                    days: c.days,
                    leaf_days: c.days_by_cat,
                    leaves: (0..5).filter(|l| c.cats >> l & 1 == 1).collect(),
                    sessions: c.sessions,
                    hashes: digests(&c.hashes),
                    country: (c.country != u16::MAX).then_some(c.country),
                };
                (Ip4(ip), client)
            })
            .collect(),
        hashes: (agg.hashes.iter().enumerate())
            .filter(|(_, h)| h.sessions > 0)
            .map(|(id, h)| {
                let hash = HashMeasures {
                    sessions: h.sessions,
                    clients: ips(&h.clients),
                    days: h.days,
                    first_day: h.first_day,
                    first_honeypot: h.first_honeypot,
                    honeypots: honeypots(&h.honeypots),
                };
                (pools.digests.get(id as u32), hash)
            })
            .collect(),
        passwords: (agg.password_counts.iter())
            .map(|(&id, &n)| {
                let (user, pass) = pools.creds.get(id).split_once('\0').expect("user\\0pass");
                ((user.to_string(), pass.to_string()), n)
            })
            .collect(),
        commands: names(&agg.command_counts, &pools.commands),
        ssh_versions: names(&agg.ssh_version_counts, &pools.ssh_versions),
        asns: agg.asns.iter().copied().collect(),
        freshness: (agg.freshness.iter())
            .map(|p| [p.day, p.unique, p.fresh_ever, p.fresh_30d, p.fresh_7d])
            .collect(),
        f18_share: Claims::compute(agg).top_honeypot_hash_share,
        birth: Birth {
            weeks: (birth.weeks.iter())
                .map(|w| [w.scanning, w.scouting, w.intrusion])
                .collect(),
            scouting_rampup_week: birth.scouting_rampup_week,
            scanning_rampup_week: birth.scanning_rampup_week,
            final_month_vs_peak: birth.final_month_vs_peak,
        },
        federation: None,
        features: (0..features.len())
            .map(|i| {
                let row = features.row(i).try_into().expect("24 features");
                (Ip4(features.clients[i]), row)
            })
            .collect(),
    }
}

/// A federation report in the reference's owned form.
pub fn project_federation(f: &FederationReport) -> Federation {
    Federation {
        per_farm: f.per_farm.iter().map(|&(_, n)| n).collect(),
        union: f.union_coverage,
        intersection: f.intersection_coverage,
        coverage_gain: f.coverage_gain,
        mean_detection_lead_days: f.mean_detection_lead_days,
        week_early_warnings: f.week_early_warnings,
    }
}

/// Report every key of two keyed sequences whose values differ or that
/// only one side has, the rendered values cut short so each mismatch stays
/// one line.
fn diff_keyed<K: Ord + fmt::Debug, V: PartialEq + fmt::Debug>(
    report: &mut DiffReport,
    budget: &mut usize,
    name: &str,
    reference: impl IntoIterator<Item = (K, V)>,
    fold: impl IntoIterator<Item = (K, V)>,
) {
    let brief = |v: Option<&V>| {
        let s = v.map_or("missing".to_string(), |v| format!("{v:?}"));
        match s.char_indices().nth(200) {
            Some((i, _)) => format!("{}…", &s[..i]),
            None => s,
        }
    };
    let reference: BTreeMap<K, V> = reference.into_iter().collect();
    let fold: BTreeMap<K, V> = fold.into_iter().collect();
    let keys: BTreeSet<&K> = reference.keys().chain(fold.keys()).collect();
    for k in keys {
        let (want, got) = (reference.get(k), fold.get(k));
        if want != got {
            let detail = format!("{} != {}", brief(want), brief(got));
            report.capped(budget, format!("{name}[{k:?}]"), detail);
        }
    }
}

/// A whole value, as one keyed entry.
fn whole<T>(v: &T) -> [((), &T); 1] {
    [((), v)]
}

/// A sequence's entries keyed by index.
fn indexed<T>(v: &[T]) -> impl Iterator<Item = (usize, &T)> {
    v.iter().enumerate()
}

/// A per-leaf family of sequences, keyed by (leaf, index).
fn by_leaf<T>(v: &[Vec<T>; 5]) -> impl Iterator<Item = ((&str, usize), &T)> {
    (0..5).flat_map(move |l| {
        v[l].iter()
            .enumerate()
            .map(move |(i, x)| ((LEAVES[l], i), x))
    })
}

/// Compare the reference's measures with a fold's projection field by
/// field, naming the diverging key: `clients[Ip4(..)]: … != …`. Values must
/// be equal, floats included: the reference scales its own counts with the
/// library's expressions. Only federation's mean lead, a sum over hashes
/// whose order the library does not fix, is compared to nine decimals.
pub fn diff_reference(reference: &Measures, fold: &Measures) -> DiffReport {
    let mut report = DiffReport::new("reference", "fold");
    let mut budget = MAX_DETAIL;
    let (r, f) = (reference, fold);
    macro_rules! compare {
        ($entries:expr => $($field:ident),*) => {$(
            if r.$field != f.$field {
                let (a, b) = ($entries(&r.$field), $entries(&f.$field));
                diff_keyed(&mut report, &mut budget, stringify!($field), a, b);
            }
        )*};
    }
    compare!(whole => n_days, n_honeypots, sessions, leaf_sessions, leaf_ssh, leaf_end_reasons);
    compare!(whole => file_sessions, top5, asns, f18_share, birth);
    compare!(indexed => day_sessions, day_clients, day_combos, day_regions, day_hp_sessions);
    compare!(indexed => freshness, hp_sessions, hp_clients, hp_leaf_clients, hp_hashes);
    compare!(indexed => hp_first_hashes);
    compare!(by_leaf => day_leaf_sessions, day_hp_leaf_sessions, durations);
    compare!(BTreeMap::iter => bands, clients, hashes, passwords, commands, ssh_versions);
    compare!(BTreeMap::iter => features);

    let rounded = |m: &Measures| {
        m.federation.clone().map(|mut fed| {
            fed.mean_detection_lead_days = (fed.mean_detection_lead_days * 1e9).round();
            fed
        })
    };
    let (a, b) = (rounded(r), rounded(f));
    diff_keyed(&mut report, &mut budget, "federation", whole(&a), whole(&b));
    report
}

/// Diff two built [`Report`](hf_core::Report)s artifact by artifact, comparing each one's
/// rendered TSV byte-for-byte and naming the first diverging line.
pub fn diff_reports(
    left: &str,
    a: &hf_core::report::Report,
    right: &str,
    b: &hf_core::report::Report,
) -> DiffReport {
    let mut report = DiffReport::new(left, right);
    let mut budget = MAX_DETAIL;
    for ((name, art_a), (_, art_b)) in a.artifacts().into_iter().zip(b.artifacts()) {
        let (ta, tb) = (art_a.to_tsv(), art_b.to_tsv());
        if ta == tb {
            continue;
        }
        let line = ta
            .lines()
            .zip(tb.lines())
            .position(|(x, y)| x != y)
            .map(|i| format!("first diverging line {}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: {} != {}",
                    ta.lines().count(),
                    tb.lines().count()
                )
            });
        report.capped(&mut budget, format!("report.{name}"), line);
    }
    report
}

/// Diff two [`RunManifest`]s field by field.
///
/// Counters, gauges, histograms, and spans are compared as name-keyed maps
/// (a name present on only one side is a mismatch); histograms additionally
/// report the first diverging bucket. Used by the obs invariance suite to
/// prove deterministic counters are thread-count invariant, after both
/// sides are restricted with [`hf_obs::RunManifest::filtered`].
pub fn diff_manifests(left: &str, a: &RunManifest, right: &str, b: &RunManifest) -> DiffReport {
    let mut report = DiffReport::new(left, right);
    if a.schema_version != b.schema_version {
        report.push(
            "schema_version",
            format!("{} != {}", a.schema_version, b.schema_version),
        );
    }
    if a.tool != b.tool {
        report.push("tool", format!("{:?} != {:?}", a.tool, b.tool));
    }
    let mut budget = MAX_DETAIL;
    diff_metric_map(
        &mut report,
        "counters",
        &a.counters,
        &b.counters,
        &mut budget,
        |x, y| (x != y).then(|| format!("{x} != {y}")),
    );
    diff_metric_map(
        &mut report,
        "gauges",
        &a.gauges,
        &b.gauges,
        &mut budget,
        |x, y| (x != y).then(|| format!("{x} != {y}")),
    );
    diff_metric_map(
        &mut report,
        "histograms",
        &a.histograms,
        &b.histograms,
        &mut budget,
        |x, y| {
            if x == y {
                return None;
            }
            if (x.count, x.sum, x.min, x.max) != (y.count, y.sum, y.min, y.max) {
                return Some(format!(
                    "count/sum/min/max {}/{}/{}/{} != {}/{}/{}/{}",
                    x.count, x.sum, x.min, x.max, y.count, y.sum, y.min, y.max
                ));
            }
            let i = (0..hf_obs::N_BUCKETS)
                .find(|&i| x.buckets[i] != y.buckets[i])
                .expect("unequal histograms with equal aggregates must differ in a bucket");
            Some(format!(
                "bucket[{i}] (lo {}): {} != {}",
                Histogram::bucket_lo(i),
                x.buckets[i],
                y.buckets[i]
            ))
        },
    );
    diff_metric_map(
        &mut report,
        "spans",
        &a.spans,
        &b.spans,
        &mut budget,
        |x, y| {
            (x != y).then(|| {
                format!(
                    "count/wall/cpu/max {}/{}/{}/{} != {}/{}/{}/{}",
                    x.count,
                    x.wall_ns,
                    x.cpu_ns,
                    x.max_wall_ns,
                    y.count,
                    y.wall_ns,
                    y.cpu_ns,
                    y.max_wall_ns
                )
            })
        },
    );
    report
}

/// Walk the key union of two name-keyed metric maps, pushing one mismatch
/// per diverging or one-sided entry (subject to the shared detail budget).
fn diff_metric_map<T>(
    report: &mut DiffReport,
    section: &str,
    a: &std::collections::BTreeMap<String, T>,
    b: &std::collections::BTreeMap<String, T>,
    budget: &mut usize,
    diff_value: impl Fn(&T, &T) -> Option<String>,
) {
    let names: std::collections::BTreeSet<&str> =
        a.keys().chain(b.keys()).map(String::as_str).collect();
    for name in names {
        let detail = match (a.get(name), b.get(name)) {
            (Some(x), Some(y)) => match diff_value(x, y) {
                Some(d) => d,
                None => continue,
            },
            (Some(_), None) => format!("present in {} only", report.left),
            (None, Some(_)) => format!("present in {} only", report.right),
            (None, None) => unreachable!("name came from one of the maps"),
        };
        report.capped(budget, format!("{section}[{name}]"), detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_farm::{Collector, FarmPlan};
    use hf_geo::{Ip4, World, WorldConfig};
    use hf_hash::Sha256;
    use hf_honeypot::{EndReason, SessionRecord};
    use hf_proto::Protocol;
    use hf_simclock::SimInstant;

    fn rec(ip: Ip4, day: u32, port: u16) -> SessionRecord {
        SessionRecord {
            honeypot: 0,
            protocol: Protocol::Ssh,
            client_ip: ip,
            client_port: port,
            start: SimInstant::from_day_and_secs(day, 0),
            duration_secs: 5,
            ended_by: EndReason::ClientClose,
            ssh_client_version: None,
            logins: vec![],
            commands: vec![],
            uris: vec![],
            file_hashes: vec![Sha256::digest(b"oracle-artifact")],
            download_hashes: vec![],
        }
    }

    fn dataset(records: &[SessionRecord]) -> Dataset {
        let world = World::build(1, &WorldConfig::tiny());
        let mut col = Collector::new(&world, FarmPlan::paper());
        col.ingest_batch(records);
        col.finish()
    }

    fn output(records: &[SessionRecord], tags: TagDb, n_clients: usize) -> SimOutput {
        SimOutput {
            dataset: dataset(records),
            tags,
            n_clients,
        }
    }

    #[test]
    fn identical_outputs_produce_empty_report() {
        let recs = vec![
            rec(Ip4::new(1, 2, 3, 4), 0, 1),
            rec(Ip4::new(5, 6, 7, 8), 1, 2),
        ];
        let a = output(&recs, TagDb::new(), 2);
        let b = output(&recs, TagDb::new(), 2);
        let d = diff_sim_outputs("a", &a, "b", &b);
        assert!(d.is_identical(), "{}", d.render());
        assert_eq!(d.render(), "");
    }

    /// The deliberately-broken case: the oracle itself must localize a
    /// single-field divergence down to the exact row and field name.
    #[test]
    fn broken_row_field_is_named() {
        let recs_a = vec![
            rec(Ip4::new(1, 2, 3, 4), 0, 1),
            rec(Ip4::new(5, 6, 7, 8), 1, 2),
        ];
        let mut recs_b = recs_a.clone();
        recs_b[1].client_port = 999; // the deliberate breakage
        let a = output(&recs_a, TagDb::new(), 2);
        let b = output(&recs_b, TagDb::new(), 2);
        let d = diff_sim_outputs("left", &a, "right", &b);
        assert!(!d.is_identical());
        let rendered = d.render();
        assert!(
            rendered.contains("rows[1].client_port"),
            "report must name the exact field: {rendered}"
        );
        assert!(rendered.contains("2 != 999"), "{rendered}");
        // And only that field — no collateral noise from identical fields.
        assert_eq!(d.mismatches.len(), 1, "{rendered}");
    }

    /// A client count, a tag association and an artifact's first sighting
    /// that differ are each named.
    #[test]
    fn broken_run_fields_are_named() {
        let h = Sha256::digest(b"oracle-artifact");
        let (mut ta, mut tb) = (TagDb::new(), TagDb::new());
        ta.record(h, "mirai", "H24");
        tb.record(h, "trojan", "H1");
        let a = output(&[rec(Ip4::new(1, 1, 1, 1), 5, 1)], ta, 1);
        let b = output(&[rec(Ip4::new(1, 1, 1, 1), 3, 1)], tb, 2);
        let rendered = diff_sim_outputs("x", &a, "y", &b).render();
        let tag = format!("tags[{}]", h.short());
        for field in [
            "n_clients",
            &tag,
            "mirai/H24",
            "rows[0].start_secs",
            "first_seen",
        ] {
            assert!(rendered.contains(field), "{field} not named: {rendered}");
        }
    }

    #[test]
    fn detail_cap_suppresses_but_counts() {
        let recs_a: Vec<SessionRecord> = (0..40)
            .map(|i| rec(Ip4::new(1, 1, 1, i as u8), 0, i))
            .collect();
        let recs_b: Vec<SessionRecord> = (0..40)
            .map(|i| rec(Ip4::new(1, 1, 1, i as u8), 0, i + 1000))
            .collect();
        let a = output(&recs_a, TagDb::new(), 40);
        let b = output(&recs_b, TagDb::new(), 40);
        let d = diff_sim_outputs("x", &a, "y", &b);
        assert!(!d.is_identical());
        // 40 diverging ports: the first MAX_DETAIL are detailed, the rest
        // only counted, and the header totals both.
        assert_eq!(d.mismatches.len(), MAX_DETAIL, "{}", d.render());
        assert_eq!(d.suppressed, 40 - MAX_DETAIL);
        let mut want = String::from("x vs y: 40 field-level mismatch(es)");
        for i in 0..MAX_DETAIL {
            want.push_str(&format!("\n  rows[{i}].client_port: {i} != {}", i + 1000));
        }
        want.push_str("\n  … and 32 more");
        assert_eq!(d.render(), want);
    }

    #[test]
    #[should_panic(expected = "rows[1].client_port")]
    fn assert_identical_panics_with_field_name() {
        let recs_a = vec![
            rec(Ip4::new(1, 2, 3, 4), 0, 1),
            rec(Ip4::new(5, 6, 7, 8), 1, 2),
        ];
        let mut recs_b = recs_a.clone();
        recs_b[1].client_port = 31337;
        let a = output(&recs_a, TagDb::new(), 2);
        let b = output(&recs_b, TagDb::new(), 2);
        assert_outputs_identical("a", &a, "b", &b);
    }

    /// Merging per-shard tag databases in shard order must equal serial
    /// recording, for any shard-boundary split of the same record stream.
    #[test]
    fn tagdb_merge_boundary_invariance() {
        let assoc: Vec<(hf_hash::Digest, &str, &str)> = (0..20)
            .map(|i| {
                (
                    Sha256::digest(format!("h{}", i % 7).as_bytes()),
                    if i % 2 == 0 { "mirai" } else { "trojan" },
                    if i % 3 == 0 { "H1" } else { "H24" },
                )
            })
            .collect();
        let mut serial = TagDb::new();
        for (h, t, c) in &assoc {
            serial.record(*h, t, c);
        }
        for split in [1usize, 2, 5, 19] {
            let mut merged = TagDb::new();
            for chunk in assoc.chunks(split) {
                let mut shard = TagDb::new();
                for (h, t, c) in chunk {
                    shard.record(*h, t, c);
                }
                merged.merge(shard);
            }
            diff_tagdbs("serial", &serial, &format!("chunks={split}"), &merged).assert_identical();
        }
    }

    /// The manifest oracle names the exact counter, histogram bucket, or
    /// one-sided metric that diverged.
    #[test]
    fn manifest_diff_names_diverging_fields() {
        let base = RunManifest {
            schema_version: hf_obs::SCHEMA_VERSION,
            tool: "test".to_string(),
            counters: Default::default(),
            gauges: Default::default(),
            histograms: Default::default(),
            spans: Default::default(),
        };
        let mut a = base.clone();
        let mut b = base.clone();
        diff_manifests("a", &a, "b", &b).assert_identical();

        a.counters.insert("sim.days_executed".into(), 10);
        b.counters.insert("sim.days_executed".into(), 12);
        a.counters.insert("only.left".into(), 1);
        let mut ha = Histogram::new();
        ha.record(5);
        let mut hb = Histogram::new();
        hb.record(6); // same count/sum-class bucket fields differ
        a.histograms.insert("h".into(), ha);
        b.histograms.insert("h".into(), hb);
        let d = diff_manifests("a", &a, "b", &b);
        assert!(!d.is_identical());
        let fields: Vec<&str> = d.mismatches.iter().map(|m| m.field.as_str()).collect();
        assert!(
            fields.contains(&"counters[sim.days_executed]"),
            "{}",
            d.render()
        );
        assert!(fields.contains(&"counters[only.left]"), "{}", d.render());
        assert!(fields.contains(&"histograms[h]"), "{}", d.render());
    }
}
