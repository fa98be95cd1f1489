//! Differential oracles: typed, field-level comparison of simulation
//! outputs.
//!
//! Several pairs of runs must agree bit-for-bit: two runs of one seed, a
//! plain run and a metrics-on run, a simulation and its snapshot reload,
//! the simulator and the live wire farm. Each used to be guarded by a
//! bespoke pile of `assert_eq!`s; this module replaces them with one
//! reusable comparison that walks every observable surface of a
//! [`SimOutput`] and reports *which field* of *which row* diverged,
//! instead of a bare `assertion failed: rows_equal`.
//!
//! The oracle is deliberately conservative: it compares rows in order
//! (plan order is part of the determinism contract), digest universes as
//! sorted sets (pool intern order is an implementation detail), artifact
//! metadata per digest, and tag associations per hash.

use std::fmt;

use hf_farm::store::Row;
use hf_farm::{Dataset, TagDb};
use hf_obs::{Histogram, RunManifest};
use hf_sim::SimOutput;

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
    /// Field-level mismatches, up to [`MAX_DETAIL`] per section.
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

/// Diff two [`Aggregates`] across every public field — the oracle behind
/// the guarantee that the one analysis fold gives the same result however
/// its rows arrive: a day at a time from the simulator, a chunk at a time
/// from a snapshot, or cut anywhere, against `Aggregates::compute`.
///
/// Scalars and per-day/per-honeypot vectors are compared elementwise with
/// the first diverging index named; per-client and per-hash states are
/// compared entry by entry including the fold-internal `last_day` markers.
pub fn diff_aggregates(
    left: &str,
    a: &hf_core::aggregates::Aggregates,
    right: &str,
    b: &hf_core::aggregates::Aggregates,
) -> DiffReport {
    let mut report = DiffReport::new(left, right);
    let mut budget = MAX_DETAIL;

    macro_rules! scalar {
        ($field:expr, $name:expr) => {
            let (va, vb) = $field;
            if va != vb {
                report.capped(&mut budget, $name, format!("{va:?} != {vb:?}"));
            }
        };
    }
    macro_rules! seq {
        ($fa:expr, $fb:expr, $name:expr) => {
            if $fa.len() != $fb.len() {
                report.push(
                    format!("{}.len", $name),
                    format!("{} != {}", $fa.len(), $fb.len()),
                );
            } else if let Some(i) = $fa.iter().zip($fb.iter()).position(|(x, y)| x != y) {
                report.capped(
                    &mut budget,
                    format!("{}[{i}]", $name),
                    format!("{:?} != {:?}", $fa[i], $fb[i]),
                );
            }
        };
    }

    scalar!((a.n_days, b.n_days), "n_days");
    scalar!((a.n_honeypots, b.n_honeypots), "n_honeypots");
    scalar!((a.total_sessions, b.total_sessions), "total_sessions");
    scalar!((a.file_sessions, b.file_sessions), "file_sessions");
    seq!(a.day_hp_sessions, b.day_hp_sessions, "day_hp_sessions");
    seq!(a.day_total, b.day_total, "day_total");
    seq!(a.day_unique_ips, b.day_unique_ips, "day_unique_ips");
    seq!(
        a.day_combo_clients,
        b.day_combo_clients,
        "day_combo_clients"
    );
    seq!(
        a.day_region_combos,
        b.day_region_combos,
        "day_region_combos"
    );
    scalar!((a.cat_totals, b.cat_totals), "cat_totals");
    scalar!((a.cat_ssh, b.cat_ssh), "cat_ssh");
    scalar!((a.cat_end_reasons, b.cat_end_reasons), "cat_end_reasons");
    seq!(a.hp_sessions, b.hp_sessions, "hp_sessions");
    seq!(a.hp_clients, b.hp_clients, "hp_clients");
    seq!(a.hp_hashes, b.hp_hashes, "hp_hashes");
    seq!(a.hp_first_hashes, b.hp_first_hashes, "hp_first_hashes");
    seq!(a.freshness, b.freshness, "freshness");
    for ci in 0..5 {
        seq!(
            a.day_hp_by_cat[ci],
            b.day_hp_by_cat[ci],
            format!("day_hp_by_cat[{ci}]")
        );
        seq!(
            a.day_by_cat[ci],
            b.day_by_cat[ci],
            format!("day_by_cat[{ci}]")
        );
        seq!(a.dur_hist[ci], b.dur_hist[ci], format!("dur_hist[{ci}]"));
    }
    for (hp, (x, y)) in a
        .hp_clients_by_cat
        .iter()
        .zip(b.hp_clients_by_cat.iter())
        .enumerate()
    {
        if x != y {
            report.capped(
                &mut budget,
                format!("hp_clients_by_cat[{hp}]"),
                "sets differ",
            );
        }
    }

    // Per-client state, including the fold-internal last-day markers.
    if a.clients.len() != b.clients.len() {
        report.push(
            "clients.len",
            format!("{} != {}", a.clients.len(), b.clients.len()),
        );
    }
    for (ip, ca) in a.clients.iter() {
        let Some(cb) = b.clients.get(ip) else {
            report.capped(
                &mut budget,
                format!("clients[{ip}]"),
                format!("missing in {right}"),
            );
            continue;
        };
        for (name, ok) in [
            ("honeypots", ca.honeypots == cb.honeypots),
            (
                "honeypots_by_cat",
                ca.honeypots_by_cat == cb.honeypots_by_cat,
            ),
            ("days", ca.days == cb.days),
            ("days_by_cat", ca.days_by_cat == cb.days_by_cat),
            ("last_day", ca.last_day == cb.last_day),
            ("last_day_by_cat", ca.last_day_by_cat == cb.last_day_by_cat),
            ("cats", ca.cats == cb.cats),
            ("sessions", ca.sessions == cb.sessions),
            ("hashes", ca.hashes == cb.hashes),
            ("country", ca.country == cb.country),
        ] {
            if !ok {
                report.capped(&mut budget, format!("clients[{ip}].{name}"), "differs");
            }
        }
    }

    // Per-hash state.
    let live = |v: &[hf_core::aggregates::HashAgg]| v.iter().filter(|h| h.sessions > 0).count();
    if live(&a.hashes) != live(&b.hashes) {
        report.push(
            "hashes.len",
            format!("{} != {}", live(&a.hashes), live(&b.hashes)),
        );
    }
    for (hid, ha) in a.hashes.iter().enumerate() {
        let hb = match b.hashes.get(hid) {
            Some(h) => h,
            None if ha.sessions == 0 => continue,
            None => {
                report.push(format!("hashes[{hid}]"), format!("missing in {right}"));
                continue;
            }
        };
        for (name, ok) in [
            ("sessions", ha.sessions == hb.sessions),
            ("clients", ha.clients == hb.clients),
            ("days", ha.days == hb.days),
            ("last_day", ha.last_day == hb.last_day),
            ("first_day", ha.first_day == hb.first_day),
            ("first_honeypot", ha.first_honeypot == hb.first_honeypot),
            ("honeypots", ha.honeypots == hb.honeypots),
        ] {
            if !ok {
                report.capped(&mut budget, format!("hashes[{hid}].{name}"), "differs");
            }
        }
    }

    scalar!((&a.password_counts, &b.password_counts), "password_counts");
    scalar!((&a.command_counts, &b.command_counts), "command_counts");
    scalar!(
        (&a.ssh_version_counts, &b.ssh_version_counts),
        "ssh_version_counts"
    );
    if a.asns != b.asns {
        report.push(
            "asns",
            format!(
                "ASN sets differ: {} vs {} entries",
                a.asns.len(),
                b.asns.len()
            ),
        );
    }
    report
}

/// Diff two built [`Report`]s artifact by artifact, comparing each one's
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

    #[test]
    fn broken_n_clients_is_named() {
        let recs = vec![rec(Ip4::new(9, 9, 9, 9), 0, 7)];
        let a = output(&recs, TagDb::new(), 1);
        let b = output(&recs, TagDb::new(), 2);
        let d = diff_sim_outputs("x", &a, "y", &b);
        assert!(d.render().contains("n_clients"), "{}", d.render());
    }

    #[test]
    fn broken_tag_association_is_named() {
        let recs = vec![rec(Ip4::new(9, 9, 9, 9), 0, 7)];
        let h = Sha256::digest(b"oracle-artifact");
        let mut ta = TagDb::new();
        ta.record(h, "mirai", "H24");
        let mut tb = TagDb::new();
        tb.record(h, "trojan", "H1");
        let a = output(&recs, ta, 1);
        let b = output(&recs, tb, 1);
        let d = diff_sim_outputs("x", &a, "y", &b);
        let rendered = d.render();
        assert!(
            rendered.contains(&format!("tags[{}]", h.short())),
            "{rendered}"
        );
        assert!(rendered.contains("mirai/H24"), "{rendered}");
    }

    #[test]
    fn broken_artifact_first_seen_is_named() {
        let a = output(&[rec(Ip4::new(1, 1, 1, 1), 5, 1)], TagDb::new(), 1);
        let b = output(&[rec(Ip4::new(1, 1, 1, 1), 3, 1)], TagDb::new(), 1);
        // Row start differs AND artifact first_seen differs; both named.
        let d = diff_sim_outputs("x", &a, "y", &b);
        let rendered = d.render();
        assert!(rendered.contains("rows[0].start_secs"), "{rendered}");
        assert!(rendered.contains("first_seen"), "{rendered}");
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

    /// Ingesting one-by-one, as a single batch, or as arbitrarily split
    /// batches must produce identical datasets (batch boundaries are not
    /// observable).
    #[test]
    fn collector_batch_boundary_invariance() {
        let recs: Vec<SessionRecord> = (0..17)
            .map(|i| rec(Ip4::new(2, 2, 2, i as u8), (i % 5) as u32, i))
            .collect();
        let world = World::build(1, &WorldConfig::tiny());

        let mut one_by_one = Collector::new(&world, FarmPlan::paper());
        for r in &recs {
            one_by_one.ingest(r);
        }
        let one_by_one = one_by_one.finish();

        for split in [1usize, 2, 3, 7, 16] {
            let mut batched = Collector::new(&world, FarmPlan::paper());
            for chunk in recs.chunks(split) {
                batched.ingest_batch(chunk);
            }
            let batched = batched.finish();
            diff_datasets(
                "one-by-one",
                &one_by_one,
                &format!("chunks={split}"),
                &batched,
            )
            .assert_identical();
        }
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
