//! One streaming pass over the session store computing every grouping the
//! paper's tables and figures need.
//!
//! The dataset can hold millions of sessions, so the pass is engineered to
//! touch each row once, keep per-entity state in dense arrays keyed by
//! interned ids, and process day-grouped state (daily unique clients,
//! freshness, regional diversity) with a flush at each day boundary.
//!
//! A row costs one hash lookup, its client's. The client's entry in the
//! current day's buffer (a `Vec`, not a map) is reached through the slot
//! index kept in its [`ClientAgg`]. The per-honeypot client and hash sets
//! are not touched per row: [`StreamingFold::finish`] builds them from the
//! honeypot bitsets each [`ClientAgg`] and [`HashAgg`] already holds.
//!
//! # One fold
//!
//! [`StreamingFold`] is the only fold. It takes day-ordered rows in any
//! number of [`StreamingFold::ingest_rows`] calls — one per finished
//! simulated day (the sim runner's day hook), one per verified snapshot
//! chunk, or one over a whole materialized store ([`Aggregates::compute`])
//! — and where the calls cut the rows never reaches the result:
//!
//! * day-grouped state is flushed when the first row of a *later* day
//!   arrives, not at the end of a call, so a cut inside a day leaves that
//!   day's buffers open for the next call;
//! * every hash sighting goes straight into the serial [`FreshnessSeries`],
//!   in row order, and the series dedupes within a day on its own, so a
//!   call boundary never reaches it.
//!
//! Every cut therefore produces the state and the observation sequence of
//! a single call (DESIGN.md §9 has the full argument). Rows must be
//! day-ordered across all calls; `compute` takes them from
//! `SessionStore::day_ordered_rows`, which sorts a hand-built unordered
//! store first.
//!
//! # Overflow discipline
//!
//! Whole-run totals are `u64`. The `u32` accumulators that remain are all
//! bounded by something much smaller than a scale-1.0 run's 402 M sessions:
//! per-`(day, honeypot)` and per-day cells (one day's sessions), per-entity
//! distinct-day counts (≤ the 486-day window), and per-honeypot
//! first-sighting counts (≤ the digest pool size, capped at 2³¹). The
//! busiest cell, sessions per `(day, honeypot)`, carries a debug assertion
//! against wrapping.

use hf_farm::{Dataset, FarmPlan, Row, SessionStore, SessionView};
use hf_geo::World;
use hf_honeypot::EndReason;
use hf_proto::Protocol;

use crate::classify::{classify, Category};
use crate::idhash::{IdMap, IdSet};
use crate::metrics::freshness::{FreshnessPoint, FreshnessSeries};

/// Bitset over honeypots (the farm has 221 ≤ 256 nodes).
pub type HpBitset = [u64; 4];

/// Set a bit. Public so other per-client folds (the clustering feature
/// extractor) can share the farm-sized bitset type and its helpers.
pub fn bit_set(b: &mut HpBitset, i: u16) {
    b[(i >> 6) as usize] |= 1u64 << (i & 63);
}

/// Count set bits.
pub fn bit_count(b: &HpBitset) -> u32 {
    b.iter().map(|w| w.count_ones()).sum()
}

/// Call `f` with the index of every set bit, in ascending order.
fn for_each_bit(b: &HpBitset, mut f: impl FnMut(usize)) {
    for (w, &word) in b.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Per-client accumulated state.
#[derive(Clone)]
pub struct ClientAgg {
    /// Honeypots contacted, overall and per category.
    pub honeypots: HpBitset,
    /// Per-category honeypot sets (Fig. 12's per-category ECDFs).
    pub honeypots_by_cat: [HpBitset; 5],
    /// Distinct active days, overall and per category (Fig. 13).
    pub days: u32,
    pub days_by_cat: [u32; 5],
    /// Last day counted, overall and per category (`u32::MAX` = none yet).
    last_day: u32,
    last_day_by_cat: [u32; 5],
    /// Categories this client ever appeared in (bitmask by Category index).
    pub cats: u8,
    /// Sessions by this client.
    pub sessions: u64,
    /// Distinct hashes this client produced (Fig. 21).
    pub hashes: IdSet,
    /// Client country (u16::MAX = unknown).
    pub country: u16,
    /// Where this client's entry sits in the fold's current-day buffer
    /// (stale once that day is flushed; the entry's `ip` tells).
    day_slot: u32,
    /// Raw AS number of this client's previous row (`u32::MAX` = none), so
    /// the distinct-AS set is touched only when it changes.
    last_asn: u32,
}

impl Default for ClientAgg {
    fn default() -> Self {
        ClientAgg {
            honeypots: [0; 4],
            honeypots_by_cat: [[0; 4]; 5],
            days: 0,
            days_by_cat: [0; 5],
            last_day: u32::MAX,
            last_day_by_cat: [u32::MAX; 5],
            cats: 0,
            sessions: 0,
            hashes: IdSet::default(),
            country: u16::MAX,
            day_slot: u32::MAX,
            last_asn: u32::MAX,
        }
    }
}

/// Per-hash accumulated state.
#[derive(Clone)]
pub struct HashAgg {
    /// Sessions containing this hash.
    pub sessions: u64,
    /// Distinct client IPs.
    pub clients: IdSet,
    /// Distinct active days.
    pub days: u32,
    /// Last day counted (`u32::MAX` = none yet).
    last_day: u32,
    /// First day observed.
    pub first_day: u32,
    /// Honeypot that observed it first: the one whose session started
    /// earliest, the first folded of those that started in the same second.
    pub first_honeypot: u16,
    /// Start (secs since epoch) of that first session (`u32::MAX` = none).
    first_start: u32,
    /// Honeypots that ever observed it.
    pub honeypots: HpBitset,
}

impl Default for HashAgg {
    fn default() -> Self {
        HashAgg {
            sessions: 0,
            clients: IdSet::default(),
            days: 0,
            last_day: u32::MAX,
            first_day: u32::MAX,
            first_honeypot: u16::MAX,
            first_start: u32::MAX,
            honeypots: [0; 4],
        }
    }
}

/// One client's state for the day being folded, flushed at the day
/// boundary. The fold keeps one per client seen today, in a `Vec` reached
/// through [`ClientAgg`]'s slot, so the row's client lookup finds it too.
struct DayEntry {
    /// The client, to tell its entry from a stale slot.
    ip: u32,
    /// Category bitmask seen today: bits 0..3 the {NO_CRED, FAIL_LOG, CMD}
    /// combo, bits 3..8 any-category presence.
    cats: u8,
    /// Regional relation masks, overall then per category.
    regions: [u8; 6],
}

/// Everything computed by the pass.
pub struct Aggregates {
    /// Days covered (max session day + 1).
    pub n_days: u32,
    /// Honeypot count.
    pub n_honeypots: usize,
    /// Sessions per (day × honeypot), row-major by day.
    pub day_hp_sessions: Vec<u32>,
    /// Same, per category.
    pub day_hp_by_cat: [Vec<u32>; 5],
    /// Total sessions per day.
    pub day_total: Vec<u64>,
    /// Sessions per day per category.
    pub day_by_cat: [Vec<u64>; 5],
    /// Daily unique client IPs per category (Fig. 11) + overall (index 5).
    pub day_unique_ips: Vec<[u32; 6]>,
    /// Daily counts of clients per category-combination bitmask over
    /// {NO_CRED, FAIL_LOG, CMD} (Fig. 15): index = bitmask (1..=7).
    pub day_combo_clients: Vec<[u32; 8]>,
    /// Daily counts of clients per regional-relation combination, for
    /// overall (index 0) and each category (1..=5). Relation mask bits:
    /// 1 = same country, 2 = same continent, 4 = different continent.
    pub day_region_combos: Vec<[[u32; 8]; 6]>,
    /// Category totals (Table 1).
    pub cat_totals: [u64; 5],
    /// SSH sessions per category (Table 1's protocol split).
    pub cat_ssh: [u64; 5],
    /// End reasons per category: [client, timeout, auth-limit].
    pub cat_end_reasons: [[u64; 3]; 5],
    /// Session duration histogram per category, seconds 0..=600 (cap).
    pub dur_hist: [Vec<u64>; 5],
    /// Sessions per honeypot.
    pub hp_sessions: Vec<u64>,
    /// Distinct clients per honeypot, overall.
    pub hp_clients: Vec<IdSet>,
    /// Distinct clients per honeypot per category.
    pub hp_clients_by_cat: Vec<[IdSet; 5]>,
    /// Distinct hashes per honeypot (Fig. 18/19).
    pub hp_hashes: Vec<IdSet>,
    /// Hashes first seen at each honeypot (early-observer analysis).
    pub hp_first_hashes: Vec<u32>,
    /// Per-client aggregates keyed by IP.
    pub clients: IdMap<ClientAgg>,
    /// Per-hash aggregates indexed by digest id.
    pub hashes: Vec<HashAgg>,
    /// Successful-login password counts (cred pool id → count).
    pub password_counts: IdMap<u64>,
    /// Command popularity (command pool id → count).
    pub command_counts: IdMap<u64>,
    /// SSH client version counts (pool id → count).
    pub ssh_version_counts: IdMap<u64>,
    /// Sessions that created/modified ≥1, ≥2, >10 files.
    pub file_sessions: (u64, u64, u64),
    /// Distinct client AS numbers observed (§7.1 breadth). Tracked here so
    /// row-free (fold-mode) outputs can still answer the claims table.
    pub asns: IdSet,
    /// Daily hash freshness (Fig. 17), filled by [`StreamingFold::finish`].
    pub freshness: Vec<FreshnessPoint>,
    /// Total sessions.
    pub total_sessions: u64,
}

impl Aggregates {
    /// Zero days wide: the fold starts here and widens with
    /// [`Aggregates::grow_days`] as days appear, so nothing pre-scans for
    /// the maximum day.
    fn empty(n_honeypots: usize) -> Self {
        Aggregates {
            n_days: 0,
            n_honeypots,
            day_hp_sessions: Vec::new(),
            day_hp_by_cat: Default::default(),
            day_total: Vec::new(),
            day_by_cat: Default::default(),
            day_unique_ips: Vec::new(),
            day_combo_clients: Vec::new(),
            day_region_combos: Vec::new(),
            cat_totals: [0; 5],
            cat_ssh: [0; 5],
            cat_end_reasons: [[0; 3]; 5],
            dur_hist: std::array::from_fn(|_| vec![0; 601]),
            hp_sessions: vec![0; n_honeypots],
            hp_clients: vec![IdSet::default(); n_honeypots],
            hp_clients_by_cat: (0..n_honeypots)
                .map(|_| std::array::from_fn(|_| IdSet::default()))
                .collect(),
            hp_hashes: vec![IdSet::default(); n_honeypots],
            hp_first_hashes: vec![0; n_honeypots],
            clients: IdMap::default(),
            hashes: Vec::new(),
            password_counts: IdMap::default(),
            command_counts: IdMap::default(),
            ssh_version_counts: IdMap::default(),
            file_sessions: (0, 0, 0),
            asns: IdSet::default(),
            freshness: Vec::new(),
            total_sessions: 0,
        }
    }

    /// Extend every day-indexed vector to cover `n_days` (append-only:
    /// existing day slots keep their values).
    fn grow_days(&mut self, n_days: u32) {
        if n_days <= self.n_days {
            return;
        }
        let nd = n_days as usize;
        self.day_hp_sessions.resize(nd * self.n_honeypots, 0);
        for v in &mut self.day_hp_by_cat {
            v.resize(nd * self.n_honeypots, 0);
        }
        self.day_total.resize(nd, 0);
        for v in &mut self.day_by_cat {
            v.resize(nd, 0);
        }
        self.day_unique_ips.resize(nd, [0; 6]);
        self.day_combo_clients.resize(nd, [0; 8]);
        self.day_region_combos.resize(nd, [[0; 8]; 6]);
        self.n_days = n_days;
    }

    /// Run the pass over a materialized dataset: one [`StreamingFold`] over
    /// the store's rows in day order ([`SessionStore::day_ordered_rows`]).
    pub fn compute(dataset: &Dataset) -> Self {
        let _span = hf_obs::span!("analysis.aggregates");
        let store = &dataset.sessions;
        let mut fold = StreamingFold::new(dataset.plan.len());
        fold.ingest_rows(store, &dataset.plan, &store.day_ordered_rows());
        fold.finish()
    }

    fn flush_day(&mut self, day: u32, today: &mut Vec<DayEntry>) {
        let d = day as usize;
        if d >= self.day_unique_ips.len() {
            today.clear();
            return;
        }
        for e in today.drain(..) {
            // Per-category daily unique IPs.
            for ci in 0..5 {
                if e.cats & (1 << (ci + 3)) != 0 {
                    self.day_unique_ips[d][ci] += 1;
                }
            }
            self.day_unique_ips[d][5] += 1;
            // Combo over {NO_CRED, FAIL_LOG, CMD}.
            let combo = e.cats & 0b111;
            if combo != 0 {
                self.day_combo_clients[d][combo as usize] += 1;
            }
            for (slot, &m) in e.regions.iter().enumerate() {
                if m != 0 {
                    self.day_region_combos[d][slot][m as usize] += 1;
                }
            }
        }
    }

    /// The per-honeypot client and hash sets, from the honeypot bitsets
    /// every [`ClientAgg`] and [`HashAgg`] already holds: a honeypot saw a
    /// client (a hash) exactly when its bit is set there.
    fn fill_honeypot_sets(&mut self) {
        for (&ip, c) in &self.clients {
            for_each_bit(&c.honeypots, |hp| {
                self.hp_clients[hp].insert(ip);
            });
            for (ci, hps) in c.honeypots_by_cat.iter().enumerate() {
                for_each_bit(hps, |hp| {
                    self.hp_clients_by_cat[hp][ci].insert(ip);
                });
            }
        }
        for (hid, h) in self.hashes.iter().enumerate() {
            for_each_bit(&h.honeypots, |hp| {
                self.hp_hashes[hp].insert(hid as u32);
            });
        }
    }

    /// Distinct client count.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Distinct hash count.
    pub fn n_hashes(&self) -> usize {
        self.hashes.iter().filter(|h| h.sessions > 0).count()
    }
}

/// The analysis fold over day-ordered sessions (see the module docs).
///
/// The [`Aggregates`] under construction plus the state that lives only
/// until the current day ends (day flush buffers) and the serial
/// [`FreshnessSeries`]. The sim runner ingests each completed day and
/// retires its rows, a streaming snapshot reader folds each verified chunk
/// as it arrives, and [`Aggregates::compute`]
/// folds a whole materialized store in one call; the same rows in the same
/// order give the same [`Aggregates`] however they are cut.
pub struct StreamingFold {
    agg: Aggregates,
    /// One entry per client seen on `current_day`.
    today: Vec<DayEntry>,
    current_day: u32,
    /// Scratch for per-session hash dedupe.
    session_hashes: Vec<u32>,
    fresh: FreshnessSeries,
}

impl StreamingFold {
    /// Empty fold for a farm of `n_honeypots` nodes.
    pub fn new(n_honeypots: usize) -> Self {
        StreamingFold {
            agg: Aggregates::empty(n_honeypots),
            today: Vec::new(),
            current_day: 0,
            session_hashes: Vec::new(),
            fresh: FreshnessSeries::new(),
        }
    }

    /// Ingest one session view. Rows must arrive in non-decreasing day
    /// order across *all* ingest calls. `plan` resolves honeypot geography;
    /// everything else comes through the view's pools, so external row
    /// chunks (streamed snapshots, about-to-be-retired days) fold exactly
    /// like stored rows.
    pub fn ingest(&mut self, plan: &FarmPlan, v: &SessionView<'_>) {
        let day = v.day();
        if day != self.current_day {
            self.agg.flush_day(self.current_day, &mut self.today);
            self.current_day = day;
        }
        if day >= self.agg.n_days {
            self.agg.grow_days(day + 1);
        }

        let agg = &mut self.agg;
        let cat = classify(v);
        let ci = cat.index();
        let d = day as usize;
        let hp = v.honeypot();
        let ip = v.client_ip().0;

        agg.total_sessions += 1;

        // Volume matrices. The u32 day cells are bounded by sessions per
        // (day, honeypot); guard the wrap in debug so a pathological input
        // can't silently truncate (see the module's overflow discipline).
        debug_assert!(
            agg.day_hp_sessions[d * agg.n_honeypots + hp as usize] < u32::MAX,
            "day×honeypot session cell about to wrap"
        );
        agg.day_hp_sessions[d * agg.n_honeypots + hp as usize] += 1;
        agg.day_hp_by_cat[ci][d * agg.n_honeypots + hp as usize] += 1;
        agg.day_total[d] += 1;
        agg.day_by_cat[ci][d] += 1;
        agg.cat_totals[ci] += 1;
        if v.protocol() == Protocol::Ssh {
            agg.cat_ssh[ci] += 1;
        }
        let reason_idx = match v.ended_by() {
            EndReason::ClientClose => 0,
            EndReason::Timeout => 1,
            EndReason::AuthLimit => 2,
        };
        agg.cat_end_reasons[ci][reason_idx] += 1;
        let dur = (v.duration_secs() as usize).min(600);
        agg.dur_hist[ci][dur] += 1;

        // Per honeypot. Its client and hash sets are filled in `finish`.
        agg.hp_sessions[hp as usize] += 1;

        // Per client: the row's one hash lookup.
        let client = agg.clients.entry(ip).or_default();
        client.sessions += 1;
        client.cats |= 1 << ci;
        bit_set(&mut client.honeypots, hp);
        bit_set(&mut client.honeypots_by_cat[ci], hp);
        if client.last_day != day {
            // works for first session because last_day starts at MAX
            client.days += 1;
            client.last_day = day;
        }
        if client.last_day_by_cat[ci] != day {
            client.days_by_cat[ci] += 1;
            client.last_day_by_cat[ci] = day;
        }
        if client.country == u16::MAX {
            if let Some(c) = v.client_country() {
                client.country = c.0;
            }
        }
        let asn = v.raw().client_asn;
        if asn != client.last_asn {
            client.last_asn = asn;
            if let Some(asn) = v.client_asn() {
                agg.asns.insert(asn.0);
            }
        }

        // Credentials / commands / ssh versions, counted by interned id.
        // Password counts: successful attempts only.
        for packed in v.login_packed() {
            if packed & 1 == 1 {
                *agg.password_counts.entry(packed >> 1).or_default() += 1;
            }
        }
        for packed in v.command_packed() {
            *agg.command_counts.entry(packed >> 1).or_default() += 1;
        }
        let vid = v.raw().ssh_version_id;
        if vid != u32::MAX {
            *agg.ssh_version_counts.entry(vid).or_default() += 1;
        }

        // Hashes.
        let session_hashes = &mut self.session_hashes;
        session_hashes.clear();
        session_hashes.extend_from_slice(v.hash_ids());
        session_hashes.extend_from_slice(v.download_hash_ids());
        session_hashes.sort_unstable();
        session_hashes.dedup();
        let n_files = v.hash_ids().len();
        if n_files >= 1 {
            agg.file_sessions.0 += 1;
        }
        if n_files >= 2 {
            agg.file_sessions.1 += 1;
        }
        if n_files > 10 {
            agg.file_sessions.2 += 1;
        }
        for &hid in session_hashes.iter() {
            if agg.hashes.len() <= hid as usize {
                agg.hashes.resize(hid as usize + 1, HashAgg::default());
            }
            let h = &mut agg.hashes[hid as usize];
            h.sessions += 1;
            h.clients.insert(ip);
            bit_set(&mut h.honeypots, hp);
            if h.last_day != day {
                h.days += 1;
                h.last_day = day;
            }
            // Rows are day-ordered, so only a row of the hash's first day
            // can start before its first sighting; within that day, row
            // order is collection order, not start order.
            let start = v.raw().start_secs;
            if start < h.first_start {
                if h.first_honeypot != u16::MAX {
                    agg.hp_first_hashes[h.first_honeypot as usize] -= 1;
                }
                h.first_day = day;
                h.first_start = start;
                h.first_honeypot = hp;
                agg.hp_first_hashes[hp as usize] += 1;
            }
            self.fresh.observe(hid, day);
        }
        client.hashes.extend(session_hashes.iter().copied());

        // Daily per-client state.
        let combo_bit = match cat {
            Category::NoCred => Some(0u8),
            Category::FailLog => Some(1),
            Category::Cmd | Category::CmdUri => Some(2),
            Category::NoCmd => None,
        };
        if self.today.get(client.day_slot as usize).map(|e| e.ip) != Some(ip) {
            client.day_slot = self.today.len() as u32;
            self.today.push(DayEntry {
                ip,
                cats: 0,
                regions: [0; 6],
            });
        }
        let entry = &mut self.today[client.day_slot as usize];
        if let Some(b) = combo_bit {
            entry.cats |= 1 << b;
        }
        entry.cats |= 1 << (ci + 3); // upper bits: any-category presence

        // Regional relation.
        if let Some(cc) = v.client_country() {
            let hp_country = plan.node(hp).country;
            let rel = World::region_relation(cc, hp_country);
            let bit = match rel {
                hf_geo::RegionRelation::SameCountry => 1u8,
                hf_geo::RegionRelation::SameContinent => 2,
                hf_geo::RegionRelation::DifferentContinent => 4,
            };
            entry.regions[0] |= bit;
            entry.regions[ci + 1] |= bit;
        }
    }

    /// Fold a run of day-ordered rows resolved against `store`'s pools (a
    /// snapshot chunk, one finished simulated day, or a whole store): the
    /// one row loop of every caller.
    pub fn ingest_rows(&mut self, store: &SessionStore, plan: &FarmPlan, rows: &[Row]) {
        for row in rows {
            self.ingest(plan, &store.view_row(row));
        }
        hf_obs::counter!("analysis.rows_folded", rows.len() as u64);
    }

    /// Does nothing: [`StreamingFold::ingest`] feeds every hash sighting to
    /// the freshness series as it folds the row, so nothing is ever
    /// pending. Kept only for callers that still call it between days or
    /// chunks (ROADMAP 1(b) deletes it).
    pub fn drain_freshness(&mut self) {}

    /// Sessions folded so far.
    pub fn total_sessions(&self) -> u64 {
        self.agg.total_sessions
    }

    /// Flush the trailing day and return the finished aggregates. A fold
    /// that saw no rows is one empty day wide, not zero.
    pub fn finish(mut self) -> Aggregates {
        self.agg.flush_day(self.current_day, &mut self.today);
        let mut agg = self.agg;
        if agg.n_days == 0 {
            agg.grow_days(1);
        }
        agg.fill_honeypot_sets();
        agg.freshness = self.fresh.finish();
        agg
    }
}
