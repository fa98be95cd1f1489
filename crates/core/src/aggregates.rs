//! One streaming pass over the session store computing every grouping the
//! paper's tables and figures need.
//!
//! The dataset can hold millions of sessions, so the pass is engineered to
//! touch each row once, keep per-entity state in dense arrays keyed by
//! interned ids, and process day-grouped state (daily unique clients,
//! freshness, regional diversity) with a flush at each day boundary.
//!
//! # Parallelism model
//!
//! [`Aggregates`] is an *associative partial state*: two aggregates computed
//! over day-disjoint row ranges combine exactly with [`Aggregates::merge`],
//! the same discipline as `TagDb::merge` in the parallel simulation engine.
//! [`Aggregates::compute_threaded`] hands `SessionStore::map_day_shards` a
//! per-shard fold: the store cuts itself into contiguous **day-aligned** row
//! ranges, folds each range on its own scoped worker, and returns the
//! partial states in shard order to be merged front to back. Day alignment
//! is the invariant that makes the merge exact:
//!
//! * every fold starts zero days wide and grows as days appear, and the
//!   merge first widens the earlier state to the later shard's span; per-day
//!   matrices and counters then occupy disjoint day slots across shards, so
//!   elementwise addition is a disjoint union;
//! * per-entity "distinct active days" counts add, because an entity's days
//!   in different shards are different days;
//! * a hash's first sighting is the first shard's first sighting, and the
//!   later shard's first-sighting credit is retracted during the merge;
//! * the freshness series needs cross-shard sliding windows, so shards
//!   record their per-day-unique `(day, hash)` observations and the merge
//!   replays them — in shard order, which is day order — through one serial
//!   [`FreshnessSeries`].
//!
//! The merge order is fixed (shard index), so the result is bit-identical
//! for any thread count, including `threads = 1`.
//!
//! # Out-of-core folding
//!
//! The same algebra powers the streaming path: [`StreamingFold`] wraps one
//! shard fold, so the sim runner (or a chunked snapshot reader) can ingest
//! each completed day and retire its rows immediately. Freshness is drained
//! incrementally at day boundaries through the same serial
//! [`FreshnessSeries`] replay, making the finished state bit-identical to a
//! materialized [`Aggregates::compute`] over the concatenated rows.
//!
//! # Overflow discipline
//!
//! Whole-run totals are `u64`. The `u32` accumulators that remain are all
//! bounded by something much smaller than a scale-1.0 run's 402 M sessions:
//! per-`(day, honeypot)` and per-day cells (no single day slot can absorb
//! the whole run thanks to day-aligned sharding), per-entity distinct-day
//! counts (≤ the 486-day window), and per-honeypot first-sighting counts
//! (≤ the digest pool size, capped at 2³¹). [`Aggregates::merge`] still
//! refuses to wrap: every `u32` cell add is `checked_add` and the
//! first-sighting retraction is `checked_sub`, so a hypothetical overflow
//! panics loudly instead of corrupting totals silently.

use hf_farm::{Dataset, FarmPlan, SessionView};
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

/// Union `other` into `b`.
pub fn bit_union(b: &mut HpBitset, other: &HpBitset) {
    for (w, o) in b.iter_mut().zip(other) {
        *w |= *o;
    }
}

/// Count set bits.
pub fn bit_count(b: &HpBitset) -> u32 {
    b.iter().map(|w| w.count_ones()).sum()
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
    /// Fold internals, public so differential oracles can compare them.
    pub last_day: u32,
    pub last_day_by_cat: [u32; 5],
    /// Categories this client ever appeared in (bitmask by Category index).
    pub cats: u8,
    /// Sessions by this client.
    pub sessions: u64,
    /// Distinct hashes this client produced (Fig. 21).
    pub hashes: IdSet,
    /// Client country (u16::MAX = unknown).
    pub country: u16,
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
        }
    }
}

impl ClientAgg {
    /// Fold in the same client's partial state from the next day-disjoint
    /// shard. Distinct-day counts add exactly because the shards' day
    /// ranges are disjoint; the country keeps the earlier shard's first
    /// sighting (first-wins, like the serial pass).
    fn merge(&mut self, other: ClientAgg) {
        bit_union(&mut self.honeypots, &other.honeypots);
        for (b, o) in self
            .honeypots_by_cat
            .iter_mut()
            .zip(&other.honeypots_by_cat)
        {
            bit_union(b, o);
        }
        self.days += other.days;
        self.last_day = other.last_day;
        for ci in 0..5 {
            self.days_by_cat[ci] += other.days_by_cat[ci];
            if other.last_day_by_cat[ci] != u32::MAX {
                self.last_day_by_cat[ci] = other.last_day_by_cat[ci];
            }
        }
        self.cats |= other.cats;
        self.sessions += other.sessions;
        self.hashes.extend(other.hashes);
        if self.country == u16::MAX {
            self.country = other.country;
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
    /// Last day counted (`u32::MAX` = none yet). Fold internal, public for
    /// the differential oracles.
    pub last_day: u32,
    /// First day observed.
    pub first_day: u32,
    /// Honeypot that observed it first.
    pub first_honeypot: u16,
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
            honeypots: [0; 4],
        }
    }
}

/// Daily state that flushes at day boundaries.
#[derive(Default)]
struct DayState {
    /// ip → category bitmask seen today.
    client_cats: IdMap<u8>,
    /// ip → (overall relation mask, per-category relation masks).
    client_regions: IdMap<[u8; 6]>,
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
    /// Daily hash freshness (Fig. 17). Empty on partial (pre-merge) states;
    /// filled once by the final freshness replay.
    pub freshness: Vec<FreshnessPoint>,
    /// Total sessions.
    pub total_sessions: u64,
}

impl Aggregates {
    /// The identity element of [`Aggregates::merge`]: zero days wide. Every
    /// fold starts here and widens with [`Aggregates::grow_days`] as days
    /// appear, so nothing pre-scans for the maximum day.
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

    /// Run the pass serially (equivalent to `compute_threaded(dataset, 1)`).
    pub fn compute(dataset: &Dataset) -> Self {
        Self::compute_threaded(dataset, 1)
    }

    /// Run the pass across `threads` scoped workers over day-aligned row
    /// shards with an ordered merge. Bit-identical output for every thread
    /// count — see the module docs for the argument.
    pub fn compute_threaded(dataset: &Dataset, threads: usize) -> Self {
        let _span = hf_obs::span!("analysis.aggregates");
        let store = &dataset.sessions;
        let n_honeypots = dataset.plan.len();
        let parts = store.map_day_shards(threads, |rows| {
            hf_obs::counter!("analysis.shards_folded", 1);
            hf_obs::counter!("analysis.rows_folded", rows.len() as u64);
            let _span = hf_obs::span!("analysis.shard_fold");
            let mut fold = ShardFold::new(n_honeypots);
            for row in rows {
                fold.ingest(&dataset.plan, &store.view_row(row));
            }
            fold.finish()
        });
        Self::assemble(n_honeypots, parts)
    }

    /// Fold one contiguous, day-ordered row range into a partial state:
    /// the mergeable [`Aggregates`] plus the range's per-day-unique
    /// `(day, hash)` freshness sightings in observation order. Partials of
    /// consecutive day-disjoint ranges combine with [`Aggregates::merge`] /
    /// [`Aggregates::assemble`] — the building block the partition
    /// properties in `tests/streaming_analysis.rs` exercise directly.
    pub fn partial(
        dataset: &Dataset,
        range: std::ops::Range<usize>,
    ) -> (Aggregates, Vec<(u32, u32)>) {
        let mut fold = ShardFold::new(dataset.plan.len());
        for v in dataset.sessions.iter_range(range) {
            fold.ingest(&dataset.plan, &v);
        }
        fold.finish()
    }

    /// Fold shard results in shard order and replay their freshness
    /// observations through one serial series.
    pub fn assemble(n_honeypots: usize, parts: Vec<(Aggregates, Vec<(u32, u32)>)>) -> Self {
        let mut fresh = FreshnessSeries::new();
        let mut acc: Option<Aggregates> = None;
        for (part, pairs) in parts {
            // Shard order is day order, and each pair is a per-day-unique
            // first sighting, so this replays exactly the serial pass's
            // effective observation sequence.
            for (day, hid) in pairs {
                fresh.observe(hid, day);
            }
            acc = Some(match acc {
                None => part,
                Some(mut a) => {
                    a.merge(part);
                    a
                }
            });
        }
        acc.unwrap_or_else(|| Aggregates::empty(n_honeypots))
            .sealed(fresh)
    }

    /// Finish a fold: attach the replayed freshness series and apply the
    /// one shape rule for a fold that saw no rows — it is one empty day
    /// wide, not zero.
    fn sealed(mut self, fresh: FreshnessSeries) -> Self {
        if self.n_days == 0 {
            self.grow_days(1);
        }
        self.freshness = fresh.finish();
        self
    }

    /// Merge `other` — the partial aggregates of the *next* contiguous,
    /// day-disjoint row shard — into `self`.
    ///
    /// Exactness contract: `other` must cover rows whose days are all
    /// strictly later than `self`'s (day-aligned sharding guarantees it),
    /// so `self` first widens to `other`'s day span.
    /// Then per-day slots are disjoint (addition = union), per-entity
    /// distinct-day counts add, first-sightings keep `self`'s, and
    /// last-sightings take `other`'s. Freshness is *not* merged here — it
    /// needs cross-shard window state and is replayed by the caller.
    pub fn merge(&mut self, other: Aggregates) {
        debug_assert_eq!(self.n_honeypots, other.n_honeypots);
        self.grow_days(other.n_days);

        // u32 cells are per-day/per-honeypot and provably can't overflow at
        // paper scale (see the module's overflow discipline) — but a wrap
        // here would silently corrupt every downstream total, so refuse it.
        fn add_u32s(a: &mut [u32], b: &[u32]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.checked_add(*y).expect("u32 aggregate cell overflow");
            }
        }
        fn add_u64s(a: &mut [u64], b: &[u64]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }

        add_u32s(&mut self.day_hp_sessions, &other.day_hp_sessions);
        for ci in 0..5 {
            add_u32s(&mut self.day_hp_by_cat[ci], &other.day_hp_by_cat[ci]);
        }
        add_u64s(&mut self.day_total, &other.day_total);
        for ci in 0..5 {
            add_u64s(&mut self.day_by_cat[ci], &other.day_by_cat[ci]);
        }
        for (a, b) in self.day_unique_ips.iter_mut().zip(&other.day_unique_ips) {
            add_u32s(a, b);
        }
        for (a, b) in self
            .day_combo_clients
            .iter_mut()
            .zip(&other.day_combo_clients)
        {
            add_u32s(a, b);
        }
        for (a, b) in self
            .day_region_combos
            .iter_mut()
            .zip(&other.day_region_combos)
        {
            for (x, y) in a.iter_mut().zip(b) {
                add_u32s(x, y);
            }
        }
        for ci in 0..5 {
            self.cat_totals[ci] += other.cat_totals[ci];
            self.cat_ssh[ci] += other.cat_ssh[ci];
            add_u64s(&mut self.cat_end_reasons[ci], &other.cat_end_reasons[ci]);
            add_u64s(&mut self.dur_hist[ci], &other.dur_hist[ci]);
        }
        add_u64s(&mut self.hp_sessions, &other.hp_sessions);
        for (a, b) in self.hp_clients.iter_mut().zip(other.hp_clients) {
            a.extend(b);
        }
        for (a, b) in self
            .hp_clients_by_cat
            .iter_mut()
            .zip(other.hp_clients_by_cat)
        {
            for (x, y) in a.iter_mut().zip(b) {
                x.extend(y);
            }
        }
        for (a, b) in self.hp_hashes.iter_mut().zip(other.hp_hashes) {
            a.extend(b);
        }
        add_u32s(&mut self.hp_first_hashes, &other.hp_first_hashes);

        for (ip, c) in other.clients {
            match self.clients.entry(ip) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(c);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(c),
            }
        }

        if self.hashes.len() < other.hashes.len() {
            self.hashes.resize(other.hashes.len(), HashAgg::default());
        }
        for (hid, h) in other.hashes.into_iter().enumerate() {
            if h.sessions == 0 {
                continue;
            }
            let a = &mut self.hashes[hid];
            if a.sessions == 0 {
                *a = h;
                continue;
            }
            // Both shards sighted this hash: the earlier shard's first
            // sighting stands, so retract the later shard's credit (the
            // blind add of hp_first_hashes above counted both).
            self.hp_first_hashes[h.first_honeypot as usize] = self.hp_first_hashes
                [h.first_honeypot as usize]
                .checked_sub(1)
                .expect("first-sighting retraction underflow");
            a.sessions += h.sessions;
            a.clients.extend(h.clients);
            a.days += h.days;
            a.last_day = h.last_day;
            bit_union(&mut a.honeypots, &h.honeypots);
        }

        for (k, v) in other.password_counts {
            *self.password_counts.entry(k).or_default() += v;
        }
        for (k, v) in other.command_counts {
            *self.command_counts.entry(k).or_default() += v;
        }
        for (k, v) in other.ssh_version_counts {
            *self.ssh_version_counts.entry(k).or_default() += v;
        }
        self.file_sessions.0 += other.file_sessions.0;
        self.file_sessions.1 += other.file_sessions.1;
        self.file_sessions.2 += other.file_sessions.2;
        self.asns.extend(other.asns);
        self.total_sessions += other.total_sessions;
        debug_assert!(other.freshness.is_empty(), "merge partial states only");
    }

    fn flush_day(&mut self, day: u32, state: &mut DayState) {
        let d = day as usize;
        if d >= self.day_unique_ips.len() {
            state.client_cats.clear();
            state.client_regions.clear();
            return;
        }
        for (_, mask) in state.client_cats.iter() {
            // Per-category daily unique IPs.
            for ci in 0..5 {
                if mask & (1 << (ci + 3)) != 0 {
                    self.day_unique_ips[d][ci] += 1;
                }
            }
            self.day_unique_ips[d][5] += 1;
            // Combo over {NO_CRED, FAIL_LOG, CMD}.
            let combo = mask & 0b111;
            if combo != 0 {
                self.day_combo_clients[d][combo as usize] += 1;
            }
        }
        for (_, masks) in state.client_regions.iter() {
            for (slot, &m) in masks.iter().enumerate() {
                if m != 0 {
                    self.day_region_combos[d][slot][m as usize] += 1;
                }
            }
        }
        state.client_cats.clear();
        state.client_regions.clear();
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

/// The per-shard fold: a partial [`Aggregates`] plus the streaming state
/// that doesn't survive the shard boundary (day flush buffers, the per-day
/// freshness dedupe set, scratch).
struct ShardFold {
    agg: Aggregates,
    day_state: DayState,
    current_day: u32,
    /// Hashes already recorded for `current_day` (per-day dedupe of the
    /// freshness observations).
    fresh_seen: IdSet,
    /// Per-day-unique `(day, hash)` sightings, in observation order —
    /// replayed through the global [`FreshnessSeries`] after the merge.
    fresh_pairs: Vec<(u32, u32)>,
    /// Scratch for per-session hash dedupe.
    session_hashes: Vec<u32>,
}

impl ShardFold {
    fn new(n_honeypots: usize) -> Self {
        ShardFold {
            agg: Aggregates::empty(n_honeypots),
            day_state: DayState::default(),
            current_day: 0,
            fresh_seen: IdSet::default(),
            fresh_pairs: Vec::new(),
            session_hashes: Vec::new(),
        }
    }

    /// Ingest one session. Rows must arrive in non-decreasing day order.
    /// `plan` resolves honeypot geography; everything else comes through
    /// the view's pools, so external row chunks (streamed snapshots,
    /// about-to-be-retired day shards) fold exactly like stored rows.
    fn ingest(&mut self, plan: &FarmPlan, v: &SessionView<'_>) {
        let day = v.day();
        if day != self.current_day {
            self.agg.flush_day(self.current_day, &mut self.day_state);
            self.fresh_seen.clear();
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

        // Per honeypot.
        agg.hp_sessions[hp as usize] += 1;
        agg.hp_clients[hp as usize].insert(ip);
        agg.hp_clients_by_cat[hp as usize][ci].insert(ip);

        // Per client.
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
        if let Some(asn) = v.client_asn() {
            agg.asns.insert(asn.0);
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
            if h.first_day == u32::MAX {
                h.first_day = day;
                h.first_honeypot = hp;
                agg.hp_first_hashes[hp as usize] += 1;
            }
            agg.hp_hashes[hp as usize].insert(hid);
            if self.fresh_seen.insert(hid) {
                self.fresh_pairs.push((day, hid));
            }
        }
        if !session_hashes.is_empty() {
            let client = agg.clients.entry(ip).or_default();
            client.hashes.extend(session_hashes.iter().copied());
        }

        // Daily per-client state.
        let combo_bit = match cat {
            Category::NoCred => Some(0u8),
            Category::FailLog => Some(1),
            Category::Cmd | Category::CmdUri => Some(2),
            Category::NoCmd => None,
        };
        let entry = self.day_state.client_cats.entry(ip).or_insert(0);
        if let Some(b) = combo_bit {
            *entry |= 1 << b;
        }
        *entry |= 1 << (ci + 3); // upper bits: any-category presence

        // Regional relation.
        if let Some(cc) = v.client_country() {
            let hp_country = plan.node(hp).country;
            let rel = World::region_relation(cc, hp_country);
            let bit = match rel {
                hf_geo::RegionRelation::SameCountry => 1u8,
                hf_geo::RegionRelation::SameContinent => 2,
                hf_geo::RegionRelation::DifferentContinent => 4,
            };
            let masks = self.day_state.client_regions.entry(ip).or_insert([0; 6]);
            masks[0] |= bit;
            masks[ci + 1] |= bit;
        }
    }

    /// Flush the trailing day and hand back the partial state.
    fn finish(mut self) -> (Aggregates, Vec<(u32, u32)>) {
        self.agg.flush_day(self.current_day, &mut self.day_state);
        (self.agg, self.fresh_pairs)
    }
}

/// Incremental out-of-core fold over day-ordered sessions.
///
/// One shard fold whose day window grows as days appear, plus the serial
/// [`FreshnessSeries`] fed at day boundaries — the pieces a fold-as-you-go
/// runner needs to ingest each completed day's rows and retire them, or a
/// streaming snapshot reader needs to fold verified chunks as they arrive.
/// Feeding the same rows in the same order as a materialized store yields
/// an [`Aggregates`] bit-identical to [`Aggregates::compute`].
pub struct StreamingFold {
    fold: ShardFold,
    fresh: FreshnessSeries,
}

impl StreamingFold {
    /// Empty fold for a farm of `n_honeypots` nodes.
    pub fn new(n_honeypots: usize) -> Self {
        StreamingFold {
            fold: ShardFold::new(n_honeypots),
            fresh: FreshnessSeries::new(),
        }
    }

    /// Ingest one session view. Rows must arrive in non-decreasing day
    /// order across *all* ingest calls (the same contract as the serial
    /// pass). `plan` resolves honeypot geography.
    pub fn ingest(&mut self, plan: &FarmPlan, v: &SessionView<'_>) {
        self.fold.ingest(plan, v);
    }

    /// Drain the freshness sightings of every *completed* day (strictly
    /// before the fold's current day) into the sliding-window series, so
    /// the pending-pair buffer stays bounded by one day's unique hashes.
    /// Safe to call at any point; callers typically do so after each
    /// simulated day or each snapshot chunk.
    pub fn drain_freshness(&mut self) {
        let current = self.fold.current_day;
        let pairs = &mut self.fold.fresh_pairs;
        let cut = pairs
            .iter()
            .position(|&(day, _)| day >= current)
            .unwrap_or(pairs.len());
        for &(day, hid) in &pairs[..cut] {
            self.fresh.observe(hid, day);
        }
        pairs.drain(..cut);
    }

    /// Sessions folded so far.
    pub fn total_sessions(&self) -> u64 {
        self.fold.agg.total_sessions
    }

    /// Flush the trailing day, replay the remaining freshness sightings,
    /// and return the finished aggregates. An empty fold yields the same
    /// single-empty-day shape as [`Aggregates::compute`] on an empty store.
    pub fn finish(mut self) -> Aggregates {
        self.drain_freshness();
        let (agg, pairs) = self.fold.finish();
        for (day, hid) in pairs {
            self.fresh.observe(hid, day);
        }
        agg.sealed(self.fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_sim::{SimConfig, Simulation};

    fn small() -> Dataset {
        Simulation::run(SimConfig::test(10)).dataset
    }

    #[test]
    fn totals_are_consistent() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        assert_eq!(agg.total_sessions, ds.len() as u64);
        assert_eq!(agg.cat_totals.iter().sum::<u64>(), agg.total_sessions);
        assert_eq!(agg.day_total.iter().sum::<u64>(), agg.total_sessions);
        let matrix_sum: u64 = agg.day_hp_sessions.iter().map(|&c| c as u64).sum();
        assert_eq!(matrix_sum, agg.total_sessions);
        for ci in 0..5 {
            assert_eq!(
                agg.day_by_cat[ci].iter().sum::<u64>(),
                agg.cat_totals[ci],
                "category {ci}"
            );
            assert!(agg.cat_ssh[ci] <= agg.cat_totals[ci]);
        }
    }

    #[test]
    fn per_honeypot_sums_match() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        assert_eq!(agg.hp_sessions.iter().sum::<u64>(), agg.total_sessions);
        // Clients per honeypot never exceed total clients.
        for set in &agg.hp_clients {
            assert!(set.len() <= agg.n_clients());
        }
    }

    #[test]
    fn client_aggregates_consistent() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        assert!(agg.n_clients() > 0);
        let total_client_sessions: u64 = agg.clients.values().map(|c| c.sessions).sum();
        assert_eq!(total_client_sessions, agg.total_sessions);
        for c in agg.clients.values() {
            assert!(bit_count(&c.honeypots) >= 1);
            assert!(c.days >= 1);
            assert!(c.cats != 0);
            // Per-category days never exceed overall days.
            for ci in 0..5 {
                assert!(c.days_by_cat[ci] <= c.days);
                assert!(bit_count(&c.honeypots_by_cat[ci]) <= bit_count(&c.honeypots));
            }
        }
    }

    #[test]
    fn hash_aggregates_consistent() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        assert!(agg.n_hashes() > 0);
        for h in agg.hashes.iter().filter(|h| h.sessions > 0) {
            assert!(!h.clients.is_empty());
            assert!(h.days >= 1);
            assert!(h.first_day != u32::MAX);
            assert!(bit_count(&h.honeypots) >= 1);
            assert!(h.sessions >= h.days as u64);
        }
        // First-hash counters sum to the number of distinct hashes.
        let first_sum: u32 = agg.hp_first_hashes.iter().sum();
        assert_eq!(first_sum as usize, agg.n_hashes());
    }

    #[test]
    fn daily_unique_ips_bounded() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        for d in 0..agg.n_days as usize {
            let overall = agg.day_unique_ips[d][5];
            for ci in 0..5 {
                assert!(agg.day_unique_ips[d][ci] <= overall);
            }
            // Unique IPs never exceed sessions that day.
            assert!(overall as u64 <= agg.day_total[d]);
        }
    }

    #[test]
    fn freshness_day_one_is_all_fresh() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        let first = agg.freshness.first().expect("some hashes exist");
        assert_eq!(first.unique, first.fresh_ever);
    }

    #[test]
    fn password_counts_only_successful() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        // Every counted credential must be an accepted one: its password is
        // not "root" and its username is root.
        for (&cred_id, _) in agg.password_counts.iter() {
            let key = ds.sessions.creds.get(cred_id);
            let (user, pass) = key.split_once('\0').unwrap();
            assert_eq!(user, "root");
            assert_ne!(pass, "root");
        }
    }

    #[test]
    fn duration_histogram_totals() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        let hist_total: u64 = agg.dur_hist.iter().map(|h| h.iter().sum::<u64>()).sum();
        assert_eq!(hist_total, agg.total_sessions);
        // NO_CMD durations concentrate at/above the 180 s timeout.
        let no_cmd = &agg.dur_hist[Category::NoCmd.index()];
        let at_timeout: u64 = no_cmd[180..].iter().sum();
        let total: u64 = no_cmd.iter().sum();
        if total > 20 {
            assert!(
                at_timeout as f64 / total as f64 > 0.7,
                "{at_timeout}/{total}"
            );
        }
    }

    /// Compare the fields that summarize every group of the struct; the
    /// full field-by-field oracle lives in hf-testkit.
    fn assert_agg_eq(a: &Aggregates, b: &Aggregates, label: &str) {
        assert_eq!(a.total_sessions, b.total_sessions, "{label}: total");
        assert_eq!(a.day_hp_sessions, b.day_hp_sessions, "{label}: matrix");
        assert_eq!(a.day_total, b.day_total, "{label}: day_total");
        assert_eq!(a.day_unique_ips, b.day_unique_ips, "{label}: unique ips");
        assert_eq!(
            a.day_combo_clients, b.day_combo_clients,
            "{label}: combo clients"
        );
        assert_eq!(a.cat_totals, b.cat_totals, "{label}: cat totals");
        assert_eq!(
            a.hp_first_hashes, b.hp_first_hashes,
            "{label}: first hashes"
        );
        assert_eq!(a.freshness, b.freshness, "{label}: freshness");
        assert_eq!(a.asns, b.asns, "{label}: asns");
        assert_eq!(a.n_clients(), b.n_clients(), "{label}: clients");
        assert_eq!(a.n_hashes(), b.n_hashes(), "{label}: hashes");
        for (ip, ca) in &a.clients {
            let cb = &b.clients[ip];
            assert_eq!(ca.sessions, cb.sessions, "{label}: client {ip} sessions");
            assert_eq!(ca.days, cb.days, "{label}: client {ip} days");
            assert_eq!(ca.hashes, cb.hashes, "{label}: client {ip} hashes");
            assert_eq!(ca.country, cb.country, "{label}: client {ip} country");
        }
        for (hid, ha) in a.hashes.iter().enumerate() {
            let hb = &b.hashes[hid];
            assert_eq!(ha.sessions, hb.sessions, "{label}: hash {hid} sessions");
            assert_eq!(ha.first_day, hb.first_day, "{label}: hash {hid} first day");
            assert_eq!(
                ha.first_honeypot, hb.first_honeypot,
                "{label}: hash {hid} first hp"
            );
            assert_eq!(ha.days, hb.days, "{label}: hash {hid} days");
            assert_eq!(ha.clients, hb.clients, "{label}: hash {hid} clients");
        }
    }

    #[test]
    fn threaded_fold_is_thread_count_invariant() {
        let ds = small();
        let serial = Aggregates::compute(&ds);
        for threads in [2usize, 3, 5, 8, 64] {
            let par = Aggregates::compute_threaded(&ds, threads);
            assert_agg_eq(&serial, &par, &format!("threads={threads}"));
        }
    }

    #[test]
    fn unordered_store_falls_back_to_sorted_serial() {
        // Hand-build a store with out-of-order days; the fold must sort.
        use hf_farm::Collector;
        let out = Simulation::run(SimConfig::test(6));
        let world = hf_geo::World::build(1, &hf_geo::WorldConfig::tiny());
        let mut col = Collector::new(&world, out.dataset.plan.clone());
        // Re-ingest a few sessions in reverse day order via raw records is
        // not possible from views; instead check the guard directly.
        let _ = &mut col;
        assert!(out.dataset.sessions.is_day_ordered());
        let agg = Aggregates::compute_threaded(&out.dataset, 4);
        assert_eq!(agg.total_sessions, out.dataset.len() as u64);
    }

    #[test]
    fn streaming_fold_matches_materialized_compute() {
        let ds = small();
        let materialized = Aggregates::compute(&ds);
        // Replay the store day by day through the streaming fold, draining
        // freshness at each day boundary like the fold-mode runner does.
        let mut fold = StreamingFold::new(ds.plan.len());
        let mut last_day = 0;
        for v in ds.sessions.iter() {
            if v.day() != last_day {
                fold.drain_freshness();
                last_day = v.day();
            }
            fold.ingest(&ds.plan, &v);
        }
        let streamed = fold.finish();
        assert_eq!(streamed.n_days, materialized.n_days);
        assert_agg_eq(&materialized, &streamed, "streaming");
    }

    #[test]
    fn streaming_fold_empty_matches_empty_compute() {
        let agg = StreamingFold::new(221).finish();
        assert_eq!(agg.n_days, 1);
        assert_eq!(agg.total_sessions, 0);
        assert!(agg.freshness.is_empty());
        assert_eq!(agg.day_total, vec![0]);
    }

    #[test]
    fn asns_match_row_derived_set() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        let from_rows: IdSet = ds
            .sessions
            .iter()
            .filter_map(|v| v.client_asn().map(|a| a.0))
            .collect();
        assert!(!agg.asns.is_empty());
        assert_eq!(agg.asns, from_rows);
    }

    #[test]
    #[should_panic(expected = "u32 aggregate cell overflow")]
    fn merge_refuses_to_wrap_u32_cells() {
        let mut a = Aggregates::empty(1);
        let mut b = Aggregates::empty(1);
        a.grow_days(1);
        b.grow_days(1);
        a.day_hp_sessions[0] = u32::MAX;
        b.day_hp_sessions[0] = 1;
        a.merge(b);
    }

    #[test]
    #[should_panic(expected = "first-sighting retraction underflow")]
    fn merge_refuses_first_sighting_underflow() {
        // Both sides claim hash 0, but the left side never credited a
        // first sighting — the retraction must refuse to wrap.
        let mut a = Aggregates::empty(1);
        let mut b = Aggregates::empty(1);
        let ha = HashAgg {
            sessions: 1,
            first_honeypot: 0,
            ..HashAgg::default()
        };
        a.hashes = vec![ha.clone()];
        b.hashes = vec![ha];
        a.merge(b);
    }

    #[test]
    fn merge_grows_to_the_later_shards_width() {
        // The earlier shard saw only day 0, the later one day 2: the merge
        // widens `a` and every day slot lands where it was folded.
        let mut a = Aggregates::empty(2);
        let mut b = Aggregates::empty(2);
        a.grow_days(1);
        b.grow_days(3);
        a.day_total[0] = 5;
        a.day_hp_sessions[1] = 5;
        b.day_total[2] = 7;
        b.day_hp_sessions[2 * 2] = 7;
        b.day_unique_ips[2][5] = 3;
        a.merge(b);
        assert_eq!(a.n_days, 3);
        assert_eq!(a.day_total, vec![5, 0, 7]);
        assert_eq!(a.day_hp_sessions, vec![0, 5, 0, 0, 7, 0]);
        assert_eq!(a.day_unique_ips[2][5], 3);
        assert_eq!(a.day_region_combos.len(), 3);
    }

    #[test]
    fn partial_ranges_assemble_to_compute() {
        let ds = small();
        let serial = Aggregates::compute(&ds);
        let ranges = ds.sessions.day_aligned_ranges(3);
        let parts: Vec<_> = ranges
            .into_iter()
            .map(|r| Aggregates::partial(&ds, r))
            .collect();
        let assembled = Aggregates::assemble(ds.plan.len(), parts);
        assert_eq!(assembled.n_days, serial.n_days);
        assert_agg_eq(&serial, &assembled, "partial/assemble");
    }

    #[test]
    fn merge_identity_on_empty() {
        let ds = small();
        let agg = Aggregates::compute(&ds);
        let mut base = Aggregates::empty(agg.n_honeypots);
        let mut other = Aggregates::compute(&ds);
        other.freshness.clear(); // merge() takes partial (pre-replay) states
        base.merge(other);
        // Merging into the identity element reproduces every mergeable
        // field (freshness is replay-only, so compare the rest).
        assert_eq!(base.total_sessions, agg.total_sessions);
        assert_eq!(base.day_hp_sessions, agg.day_hp_sessions);
        assert_eq!(base.cat_totals, agg.cat_totals);
        assert_eq!(base.hp_first_hashes, agg.hp_first_hashes);
        assert_eq!(base.n_clients(), agg.n_clients());
    }
}
