//! Per-client feature extraction.
//!
//! One pass over the session store turns every client IP into a fixed
//! vector of behavioural features: credential patterns, command-head
//! n-grams (from the shell's arena lexer views), inter-session timing,
//! client ident strings, geography relative to the contacted honeypots,
//! and the Section 6 taxonomy mix.
//!
//! # Determinism
//!
//! Everything accumulated during the pass is an integer, a bitset, or an
//! id-set — all of which merge exactly (addition, union, min/max). Floats
//! only appear in [`ClientFeatures::matrix`], computed per client from the
//! *final* integer state with a fixed expression. Shard boundaries can
//! therefore never change a feature bit: the same store produces the same
//! matrix for any thread count, for streaming chunk-at-a-time ingest, and
//! after a snapshot round-trip. `tests/cluster_invariance.rs` holds this
//! with field-level oracles.

use std::collections::{HashMap, HashSet};

use hf_core::aggregates::{bit_count, bit_set, bit_union, HpBitset};
use hf_core::classify::classify;
use hf_core::idhash::{BuildIdHasher, IdMap, IdSet};
use hf_farm::{Dataset, FarmPlan, SessionView, StringPool};
use hf_geo::{CountryId, RegionRelation, World};
use hf_proto::Protocol;
use hf_shell::lexer::{for_each_command_head, LineBuf};

/// Number of features per client. Keep in sync with [`FEATURE_NAMES`].
pub const N_FEATURES: usize = 24;

/// Feature names, in column order. The schema is documented in
/// DESIGN.md §15; golden TSVs pin both the names and the values.
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "sessions_log",
    "honeypots_frac",
    "days_log",
    "duration_mean",
    "gap_log",
    "logins_per_session",
    "cred_uniq",
    "login_success",
    "cmds_per_session",
    "cmd_vocab",
    "head_vocab",
    "bigram_vocab",
    "ssh_frac",
    "ident_vocab",
    "uri_frac",
    "hash_vocab",
    "cat_no_cred",
    "cat_fail_log",
    "cat_no_cmd",
    "cat_cmd",
    "cat_cmd_uri",
    "geo_same_country",
    "geo_same_continent",
    "geo_diff_continent",
];

/// Clamp to the unit interval, mapping non-finite input to `0.0`. Every
/// feature column passes through this guard, so a degenerate client (zero
/// sessions, zero login attempts) can never leak a NaN into the distance
/// math.
pub fn unit01(x: f64) -> f64 {
    if x.is_finite() {
        x.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// `ln(1 + n) / ln(1 + cap)`, clamped to the unit interval — the fixed
/// log-compression used for every count feature. `cap` is a documented
/// constant per column, never a data-dependent maximum, so adding rows to
/// the store can only move that client's own coordinate.
fn log_unit(n: u64, cap: f64) -> f64 {
    unit01((1.0 + n as f64).ln() / (1.0 + cap).ln())
}

/// Lazily-built map from interned command id to the head words (command
/// names) the shell lexer finds in that line. Head ids are assigned in
/// command-id order, so the numbering is a pure function of the pool —
/// identical across thread counts and across materialized vs streaming
/// ingest (pools grow append-only; see `SnapshotReader::fold_chunks`).
#[derive(Default)]
pub struct HeadMap {
    /// Per command id: span into `ids`.
    spans: Vec<(u32, u32)>,
    /// Flattened head ids, one run per command line.
    ids: Vec<u32>,
    /// Head word → head id, first-appearance numbering.
    intern: HashMap<String, u32>,
    /// Reused lexer arena.
    buf: LineBuf,
}

impl HeadMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extend the map to cover every command currently in `commands`.
    /// Already-covered ids are never re-lexed, so streaming callers can
    /// sync once per chunk at amortized zero cost.
    pub fn sync(&mut self, commands: &StringPool) {
        let HeadMap {
            spans,
            ids,
            intern,
            buf,
        } = self;
        while spans.len() < commands.len() {
            let cmd_id = spans.len() as u32;
            let start = ids.len() as u32;
            for_each_command_head(buf, commands.get(cmd_id), |head| {
                let hid = match intern.get(head) {
                    Some(&h) => h,
                    None => {
                        let h = intern.len() as u32;
                        intern.insert(head.to_string(), h);
                        h
                    }
                };
                ids.push(hid);
            });
            spans.push((start, ids.len() as u32));
        }
    }

    /// Head ids of one command line.
    pub fn heads(&self, cmd_id: u32) -> &[u32] {
        let (s, e) = self.spans[cmd_id as usize];
        &self.ids[s as usize..e as usize]
    }
}

/// Integer accumulator for one client. All fields merge exactly — see the
/// module docs for why that is the whole determinism argument.
#[derive(Clone)]
pub struct ClientAcc {
    /// Sessions by this client.
    pub sessions: u64,
    /// Earliest session start (secs since epoch); `u32::MAX` = none yet.
    pub first_start: u32,
    /// Latest session start.
    pub last_start: u32,
    /// Sum of session durations, seconds.
    pub total_duration: u64,
    /// Honeypots contacted.
    pub honeypots: HpBitset,
    /// Distinct active days.
    pub days: u32,
    /// Last day counted (`u32::MAX` = none yet) — fold internal, public so
    /// the differential oracles can compare it.
    pub last_day: u32,
    /// Sessions per taxonomy category.
    pub cat_sessions: [u64; 5],
    /// Login attempts / successes.
    pub login_attempts: u64,
    /// Accepted logins.
    pub login_successes: u64,
    /// Distinct credential ids offered.
    pub cred_ids: IdSet,
    /// Total command lines run.
    pub commands: u64,
    /// Distinct command-line ids.
    pub cmd_ids: IdSet,
    /// Distinct command-head ids (from [`HeadMap`]).
    pub head_ids: IdSet,
    /// Distinct head bigrams, packed `(a << 32) | b` over the session's
    /// head sequence.
    pub bigrams: HashSet<u64, BuildIdHasher>,
    /// SSH sessions (the rest are Telnet).
    pub ssh_sessions: u64,
    /// Distinct SSH client ident string ids.
    pub ident_ids: IdSet,
    /// Sessions that referenced an external URI.
    pub uri_sessions: u64,
    /// Distinct file-hash ids produced.
    pub hash_ids: IdSet,
    /// Sessions by honeypot-relative client location:
    /// `[same country, same continent, different continent, unknown]`.
    pub geo: [u64; 4],
}

impl Default for ClientAcc {
    fn default() -> Self {
        ClientAcc {
            sessions: 0,
            first_start: u32::MAX,
            last_start: 0,
            total_duration: 0,
            honeypots: HpBitset::default(),
            days: 0,
            last_day: u32::MAX,
            cat_sessions: [0; 5],
            login_attempts: 0,
            login_successes: 0,
            cred_ids: IdSet::default(),
            commands: 0,
            cmd_ids: IdSet::default(),
            head_ids: IdSet::default(),
            bigrams: HashSet::default(),
            ssh_sessions: 0,
            ident_ids: IdSet::default(),
            uri_sessions: 0,
            hash_ids: IdSet::default(),
            geo: [0; 4],
        }
    }
}

impl ClientAcc {
    /// Fold one session. Rows must arrive day-ordered within a shard (the
    /// distinct-day count relies on it), exactly like `ClientAgg`.
    fn ingest(&mut self, plan: &FarmPlan, heads: &HeadMap, v: &SessionView<'_>) {
        let row = v.raw();
        self.sessions += 1;
        self.first_start = self.first_start.min(row.start_secs);
        self.last_start = self.last_start.max(row.start_secs);
        self.total_duration += row.duration_secs as u64;
        bit_set(&mut self.honeypots, row.honeypot);
        let day = v.day();
        if self.last_day == u32::MAX || self.last_day != day {
            self.days += 1;
            self.last_day = day;
        }
        self.cat_sessions[classify(v).index()] += 1;
        for &packed in v.login_packed() {
            self.login_attempts += 1;
            self.login_successes += (packed & 1) as u64;
            self.cred_ids.insert(packed >> 1);
        }
        let mut prev_head: Option<u32> = None;
        for &packed in v.command_packed() {
            self.commands += 1;
            let cmd_id = packed >> 1;
            self.cmd_ids.insert(cmd_id);
            for &h in heads.heads(cmd_id) {
                self.head_ids.insert(h);
                if let Some(p) = prev_head {
                    self.bigrams.insert(((p as u64) << 32) | h as u64);
                }
                prev_head = Some(h);
            }
        }
        if v.protocol() == Protocol::Ssh {
            self.ssh_sessions += 1;
        }
        if v.ssh_version().is_some() {
            self.ident_ids.insert(row.ssh_version_id);
        }
        if v.has_uri() {
            self.uri_sessions += 1;
        }
        for &h in v.hash_ids() {
            self.hash_ids.insert(h);
        }
        let geo_idx = if row.client_country == u16::MAX {
            3
        } else {
            let rel = World::region_relation(
                CountryId(row.client_country),
                plan.node(row.honeypot).country,
            );
            match rel {
                RegionRelation::SameCountry => 0,
                RegionRelation::SameContinent => 1,
                RegionRelation::DifferentContinent => 2,
            }
        };
        self.geo[geo_idx] += 1;
    }

    /// Merge `other` into `self`. Contract (same as the aggregates fold):
    /// `other` covers strictly later day-aligned rows, so the two distinct
    /// day sets are disjoint and the counts add.
    fn merge(&mut self, other: &ClientAcc) {
        self.sessions += other.sessions;
        self.first_start = self.first_start.min(other.first_start);
        self.last_start = self.last_start.max(other.last_start);
        self.total_duration += other.total_duration;
        bit_union(&mut self.honeypots, &other.honeypots);
        self.days += other.days;
        if other.last_day != u32::MAX {
            self.last_day = other.last_day;
        }
        for (a, b) in self.cat_sessions.iter_mut().zip(&other.cat_sessions) {
            *a += b;
        }
        self.login_attempts += other.login_attempts;
        self.login_successes += other.login_successes;
        self.cred_ids.extend(&other.cred_ids);
        self.commands += other.commands;
        self.cmd_ids.extend(&other.cmd_ids);
        self.head_ids.extend(&other.head_ids);
        self.bigrams.extend(&other.bigrams);
        self.ssh_sessions += other.ssh_sessions;
        self.ident_ids.extend(&other.ident_ids);
        self.uri_sessions += other.uri_sessions;
        self.hash_ids.extend(&other.hash_ids);
        for (a, b) in self.geo.iter_mut().zip(&other.geo) {
            *a += b;
        }
    }
}

/// Streaming per-shard fold: ingest day-ordered rows, merge shards in day
/// order, finish into [`ClientFeatures`]. The same type serves the serial,
/// threaded, and chunk-at-a-time paths.
#[derive(Default)]
pub struct FeatureFold {
    clients: IdMap<ClientAcc>,
}

impl FeatureFold {
    /// Empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one session into its client's accumulator.
    pub fn ingest(&mut self, plan: &FarmPlan, heads: &HeadMap, v: &SessionView<'_>) {
        self.clients
            .entry(v.raw().client_ip)
            .or_default()
            .ingest(plan, heads, v);
    }

    /// Merge a later shard into this one. `other` must cover strictly
    /// later day-aligned rows (the `day_aligned_ranges` contract).
    pub fn merge(&mut self, other: FeatureFold) {
        for (ip, acc) in other.clients {
            match self.clients.entry(ip) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(&acc),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(acc);
                }
            }
        }
    }

    /// Clients folded so far.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Has nothing been folded?
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Finish: sort clients by IP and freeze. `n_honeypots` fixes the
    /// denominator of the farm-coverage feature.
    pub fn finish(self, n_honeypots: usize) -> ClientFeatures {
        let mut clients: Vec<(u32, ClientAcc)> = self.clients.into_iter().collect();
        clients.sort_unstable_by_key(|&(ip, _)| ip);
        ClientFeatures {
            n_honeypots,
            clients,
        }
    }
}

/// Finished extraction: one integer accumulator per client, sorted by
/// client IP (the global tie-break order for everything downstream).
pub struct ClientFeatures {
    /// Honeypots in the deployment (feature denominator).
    pub n_honeypots: usize,
    /// `(client_ip, accumulator)`, ascending by IP.
    pub clients: Vec<(u32, ClientAcc)>,
}

/// Fixed scaling caps (see DESIGN.md §15). Counts compress through
/// `ln(1+n)/ln(1+cap)`; rates and mixes are plain fractions in `[0,1]`.
mod caps {
    /// Sessions per client.
    pub const SESSIONS: f64 = 1_000_000.0;
    /// Distinct active days (the paper window is 486 days).
    pub const DAYS: f64 = 486.0;
    /// Mean session duration, seconds.
    pub const DURATION: f64 = 600.0;
    /// Mean gap between session starts, seconds (the whole window).
    pub const GAP: f64 = 486.0 * 86_400.0;
    /// Login attempts per session.
    pub const LOGINS_PER_SESSION: f64 = 32.0;
    /// Command lines per session.
    pub const CMDS_PER_SESSION: f64 = 64.0;
    /// Distinct command lines.
    pub const CMD_VOCAB: f64 = 4096.0;
    /// Distinct command heads.
    pub const HEAD_VOCAB: f64 = 512.0;
    /// Distinct head bigrams.
    pub const BIGRAM_VOCAB: f64 = 4096.0;
    /// Distinct SSH ident strings.
    pub const IDENT_VOCAB: f64 = 64.0;
    /// Distinct file hashes.
    pub const HASH_VOCAB: f64 = 512.0;
}

impl ClientFeatures {
    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// No clients?
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Normalize into the `n × N_FEATURES` row-major matrix. Pure function
    /// of the accumulators: fixed scaling, no data-dependent statistics,
    /// every cell through the [`unit01`] NaN guard.
    pub fn matrix(&self) -> FeatureMatrix {
        let mut data = Vec::with_capacity(self.clients.len() * N_FEATURES);
        for (_, a) in &self.clients {
            let n = a.sessions as f64;
            let gap = if a.sessions > 1 {
                (a.last_start - a.first_start) as f64 / (a.sessions - 1) as f64
            } else {
                0.0
            };
            data.push(log_unit(a.sessions, caps::SESSIONS));
            data.push(unit01(
                bit_count(&a.honeypots) as f64 / self.n_honeypots as f64,
            ));
            data.push(log_unit(a.days as u64, caps::DAYS));
            data.push(unit01(a.total_duration as f64 / n / caps::DURATION));
            data.push(unit01((1.0 + gap).ln() / (1.0 + caps::GAP).ln()));
            data.push(unit01(
                a.login_attempts as f64 / n / caps::LOGINS_PER_SESSION,
            ));
            data.push(unit01(a.cred_ids.len() as f64 / a.login_attempts as f64));
            data.push(unit01(a.login_successes as f64 / a.login_attempts as f64));
            data.push(unit01(a.commands as f64 / n / caps::CMDS_PER_SESSION));
            data.push(log_unit(a.cmd_ids.len() as u64, caps::CMD_VOCAB));
            data.push(log_unit(a.head_ids.len() as u64, caps::HEAD_VOCAB));
            data.push(log_unit(a.bigrams.len() as u64, caps::BIGRAM_VOCAB));
            data.push(unit01(a.ssh_sessions as f64 / n));
            data.push(log_unit(a.ident_ids.len() as u64, caps::IDENT_VOCAB));
            data.push(unit01(a.uri_sessions as f64 / n));
            data.push(log_unit(a.hash_ids.len() as u64, caps::HASH_VOCAB));
            for cat in 0..5 {
                data.push(unit01(a.cat_sessions[cat] as f64 / n));
            }
            for g in 0..3 {
                data.push(unit01(a.geo[g] as f64 / n));
            }
        }
        FeatureMatrix {
            clients: self.clients.iter().map(|&(ip, _)| ip).collect(),
            data,
        }
    }
}

/// The normalized feature matrix: `clients.len()` rows of [`N_FEATURES`]
/// unit-interval columns, rows ascending by client IP.
#[derive(Clone, PartialEq)]
pub struct FeatureMatrix {
    /// Row keys: client IPs, ascending.
    pub clients: Vec<u32>,
    /// Row-major cells, `clients.len() * N_FEATURES` long.
    pub data: Vec<f64>,
}

impl FeatureMatrix {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// No rows?
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// One client's feature row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * N_FEATURES..(i + 1) * N_FEATURES]
    }
}

/// Serial extraction over a materialized dataset.
pub fn extract(dataset: &Dataset) -> ClientFeatures {
    extract_threaded(dataset, 1)
}

/// Threaded extraction: a per-shard [`FeatureFold`] through
/// `SessionStore::map_day_shards`, merged in shard (= day) order — so the
/// result is bit-identical for any `threads`, exactly like
/// `Aggregates::compute_threaded`.
pub fn extract_threaded(dataset: &Dataset, threads: usize) -> ClientFeatures {
    let _span = hf_obs::span!("cluster.extract");
    let store = &dataset.sessions;
    let mut heads = HeadMap::new();
    heads.sync(&store.commands);

    let shards = store.map_day_shards(threads, |rows| {
        hf_obs::counter!("cluster.rows_folded", rows.len() as u64);
        let mut fold = FeatureFold::new();
        for row in rows {
            fold.ingest(&dataset.plan, &heads, &store.view_row(row));
        }
        fold
    });
    let mut merged = FeatureFold::new();
    for shard in shards {
        merged.merge(shard);
    }
    hf_obs::counter!("cluster.clients", merged.len() as u64);
    merged.finish(dataset.plan.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit01_guards_degenerate_values() {
        assert_eq!(unit01(f64::NAN), 0.0);
        assert_eq!(unit01(f64::INFINITY), 0.0);
        assert_eq!(unit01(f64::NEG_INFINITY), 0.0);
        assert_eq!(unit01(-0.5), 0.0);
        assert_eq!(unit01(1.5), 1.0);
        assert_eq!(unit01(0.25), 0.25);
    }

    #[test]
    fn zero_session_acc_produces_finite_features() {
        // Unreachable through ingest (a client exists only once a session
        // does), but the NaN guard must hold even for a default acc.
        let feats = ClientFeatures {
            n_honeypots: 221,
            clients: vec![(1, ClientAcc::default())],
        };
        let m = feats.matrix();
        assert!(m.row(0).iter().all(|x| x.is_finite()));
        assert!(m.row(0).iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn merge_is_exact_on_disjoint_days() {
        let mut a = ClientAcc {
            sessions: 2,
            first_start: 100,
            last_start: 90_000,
            days: 2,
            last_day: 1,
            ..ClientAcc::default()
        };
        a.cred_ids.insert(7);
        let mut b = ClientAcc {
            sessions: 1,
            first_start: 200_000,
            last_start: 200_000,
            days: 1,
            last_day: 2,
            ..ClientAcc::default()
        };
        b.cred_ids.insert(7);
        b.cred_ids.insert(9);
        a.merge(&b);
        assert_eq!(a.sessions, 3);
        assert_eq!(a.days, 3);
        assert_eq!(a.last_day, 2);
        assert_eq!(a.first_start, 100);
        assert_eq!(a.last_start, 200_000);
        assert_eq!(a.cred_ids.len(), 2);
    }

    #[test]
    fn head_map_numbers_heads_in_command_id_order() {
        let mut pool = StringPool::new();
        let a = pool.intern("wget http://x/a");
        let b = pool.intern("cd /tmp && wget http://x/b");
        let mut heads = HeadMap::new();
        heads.sync(&pool);
        assert_eq!(heads.heads(a), &[0]); // wget
        assert_eq!(heads.heads(b), &[1, 0]); // cd, wget

        // Syncing again is a no-op; ids are stable.
        heads.sync(&pool);
        assert_eq!(heads.heads(b), &[1, 0]);
    }
}
