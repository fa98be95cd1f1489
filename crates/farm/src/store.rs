//! The columnar session store.
//!
//! One fixed-size [`Row`] per session; every variable-length attribute
//! (credentials, command lists, URI lists, hash lists) lives in shared
//! interning pools. A 4-million-session store (the default 1:100-scale run)
//! fits comfortably in memory, and scans are cache-friendly (DESIGN.md §4,
//! "columnar vs row-of-structs").

use hf_geo::{Asn, CountryId, Ip4};
use hf_hash::Digest;
use hf_honeypot::{ArtifactStore, EndReason, SessionRecord};
use hf_proto::Protocol;
use hf_simclock::SimInstant;

use crate::intern::{DigestPool, ListPool, StringPool, NONE_ID};

/// Compact per-session row. Fixed size: exactly 48 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Session start, seconds since the sim epoch (fits u32 for 486 days).
    pub start_secs: u32,
    /// Duration in seconds.
    pub duration_secs: u32,
    /// Honeypot id.
    pub honeypot: u16,
    /// Client source port.
    pub client_port: u16,
    /// Client IPv4.
    pub client_ip: u32,
    /// Client AS number (u32::MAX when unknown).
    pub client_asn: u32,
    /// Client country id (u16::MAX when unknown).
    pub client_country: u16,
    /// Protocol (0 = SSH, 1 = Telnet).
    pub protocol: u8,
    /// End reason (0 client, 1 timeout, 2 auth limit).
    pub end_reason: u8,
    /// Interned SSH client version (NONE_ID when absent).
    pub ssh_version_id: u32,
    /// Interned list of login attempts (cred_id << 1 | accepted).
    pub login_list_id: u32,
    /// Interned list of command ids (cmd_id << 1 | known).
    pub cmd_list_id: u32,
    /// Interned list of URI string ids.
    pub uri_list_id: u32,
    /// Interned list of file-hash digest ids.
    pub hash_list_id: u32,
    /// Interned list of download-hash digest ids.
    pub dl_list_id: u32,
}

// The memory math in this module's docs and the hfstore on-disk encoding
// (`snapshot.rs`) both assume this exact size; fail the build if the struct
// drifts.
const _: () = assert!(std::mem::size_of::<Row>() == 48);

/// The store: rows + pools.
#[derive(Debug, Default, Clone)]
pub struct SessionStore {
    rows: Vec<Row>,
    /// Credentials as "user\0pass".
    pub creds: StringPool,
    /// Command strings.
    pub commands: StringPool,
    /// URI strings.
    pub uris: StringPool,
    /// SSH client version strings.
    pub ssh_versions: StringPool,
    /// File/download content hashes.
    pub digests: DigestPool,
    /// All id-lists.
    pub lists: ListPool,
    /// Buffers reused across [`SessionStore::ingest`] calls; not part of the
    /// logical store state.
    scratch: IngestScratch,
}

/// Reusable ingest buffers. Cloning a store clones whatever is in here, but
/// the contents are cleared before every use, so the copies are inert.
#[derive(Debug, Default, Clone)]
struct IngestScratch {
    ids: Vec<u32>,
    key: String,
}

impl SessionStore {
    /// Empty store.
    pub fn new() -> Self {
        SessionStore {
            rows: Vec::new(),
            creds: StringPool::new(),
            commands: StringPool::new(),
            uris: StringPool::new(),
            ssh_versions: StringPool::new(),
            digests: DigestPool::new(),
            lists: ListPool::new(),
            scratch: IngestScratch::default(),
        }
    }

    /// Rows the eager [`SessionStore::with_capacity`] hint may reserve
    /// upfront: 512 Ki rows = 24 MiB. Estimates above the cap (a scale-1.0
    /// run estimates ~402 M sessions ≈ 19 GB) start here and grow
    /// geometrically through `Vec`'s normal doubling; fold-mode runs that
    /// retire rows every day never grow past their largest single day.
    pub const EAGER_ROW_RESERVE_CAP: usize = 1 << 19;

    /// Pre-allocate row capacity. `n` is a hint: reservations are capped at
    /// [`SessionStore::EAGER_ROW_RESERVE_CAP`] rows so whole-run session
    /// estimates can be passed directly without committing gigabytes before
    /// the first session exists.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::new();
        s.rows.reserve(n.min(Self::EAGER_ROW_RESERVE_CAP));
        s
    }

    /// Reassemble a store from already-validated parts (the hfstore
    /// snapshot loader; see `crate::snapshot`).
    pub(crate) fn from_parts(
        rows: Vec<Row>,
        creds: StringPool,
        commands: StringPool,
        uris: StringPool,
        ssh_versions: StringPool,
        digests: DigestPool,
        lists: ListPool,
    ) -> Self {
        SessionStore {
            rows,
            creds,
            commands,
            uris,
            ssh_versions,
            digests,
            lists,
            scratch: IngestScratch::default(),
        }
    }

    /// Reserve room for `n` additional rows.
    pub fn reserve(&mut self, n: usize) {
        self.rows.reserve(n);
    }

    /// Drop every row, keeping the interning pools (and the row buffer's
    /// capacity) intact. The out-of-core fold path calls this after folding
    /// a completed day into `Aggregates`: interned ids stay stable, so
    /// later days and the final row-free report see the same pool ids a
    /// materialized run would.
    pub fn retire_rows(&mut self) {
        self.rows.clear();
    }

    /// Replace the (empty) row vector of a pools-only shell — used by the
    /// snapshot loader to materialize a store after streaming the rows
    /// section chunk by chunk.
    pub(crate) fn set_rows(&mut self, rows: Vec<Row>) {
        debug_assert!(self.rows.is_empty(), "set_rows on a non-empty store");
        self.rows = rows;
    }

    /// Ingest a finished session record. `geo` is the collector-side
    /// geolocation of the client (country, AS), if resolvable.
    pub fn ingest(&mut self, rec: &SessionRecord, geo: Option<(CountryId, Asn)>) {
        // One id buffer and one key buffer are reused across calls and across
        // the five attribute lists: the per-record `Vec`/`String` churn used
        // to dominate the serial ingest half of the parallel day loop.
        let mut scratch = std::mem::take(&mut self.scratch);

        scratch.ids.clear();
        for l in &rec.logins {
            scratch.key.clear();
            scratch.key.push_str(&l.creds.username);
            scratch.key.push('\0');
            scratch.key.push_str(&l.creds.password);
            scratch
                .ids
                .push((self.creds.intern(&scratch.key) << 1) | l.accepted as u32);
        }
        let login_list_id = self.lists.intern(&scratch.ids);

        scratch.ids.clear();
        for c in &rec.commands {
            scratch
                .ids
                .push((self.commands.intern(&c.input) << 1) | c.known as u32);
        }
        let cmd_list_id = self.lists.intern(&scratch.ids);

        scratch.ids.clear();
        for u in &rec.uris {
            scratch.ids.push(self.uris.intern(u));
        }
        let uri_list_id = self.lists.intern(&scratch.ids);

        scratch.ids.clear();
        for h in &rec.file_hashes {
            scratch.ids.push(self.digests.intern(*h));
        }
        let hash_list_id = self.lists.intern(&scratch.ids);

        scratch.ids.clear();
        for h in &rec.download_hashes {
            scratch.ids.push(self.digests.intern(*h));
        }
        let dl_list_id = self.lists.intern(&scratch.ids);

        self.scratch = scratch;

        let row = Row {
            start_secs: rec.start.0 as u32,
            duration_secs: rec.duration_secs,
            honeypot: rec.honeypot,
            client_port: rec.client_port,
            client_ip: rec.client_ip.0,
            client_asn: geo.map(|(_, a)| a.0).unwrap_or(u32::MAX),
            client_country: geo.map(|(c, _)| c.0).unwrap_or(u16::MAX),
            protocol: match rec.protocol {
                Protocol::Ssh => 0,
                Protocol::Telnet => 1,
            },
            end_reason: match rec.ended_by {
                EndReason::ClientClose => 0,
                EndReason::Timeout => 1,
                EndReason::AuthLimit => 2,
            },
            ssh_version_id: rec
                .ssh_client_version
                .as_deref()
                .map(|v| self.ssh_versions.intern(v))
                .unwrap_or(NONE_ID),
            login_list_id,
            cmd_list_id,
            uri_list_id,
            hash_list_id,
            dl_list_id,
        };
        self.rows.push(row);
    }

    /// Number of sessions stored.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Raw row access (benchmarks, compaction tooling).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Typed view of one session.
    pub fn view(&self, idx: usize) -> SessionView<'_> {
        SessionView {
            store: self,
            row: &self.rows[idx],
        }
    }

    /// Typed view of an externally held row, resolved against this store's
    /// pools. Streaming readers hold row chunks outside the store (the
    /// store itself stays a pools-only shell); the row's interned ids must
    /// have been validated against these pools first.
    pub fn view_row<'a>(&'a self, row: &'a Row) -> SessionView<'a> {
        SessionView { store: self, row }
    }

    /// Iterate typed views over all sessions.
    pub fn iter(&self) -> impl Iterator<Item = SessionView<'_>> {
        self.rows
            .iter()
            .map(move |row| SessionView { store: self, row })
    }

    /// Iterate typed views over a contiguous row range.
    pub fn iter_range(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = SessionView<'_>> {
        self.rows[range]
            .iter()
            .map(move |row| SessionView { store: self, row })
    }

    /// Are the rows ordered by day (non-decreasing)? Collector-produced
    /// stores always are — the runner ingests day by day — but hand-built
    /// stores may not be, and day-grouped streaming analyses must check.
    pub fn is_day_ordered(&self) -> bool {
        self.rows
            .windows(2)
            .all(|w| w[0].start_secs / 86_400 <= w[1].start_secs / 86_400)
    }

    /// Split the rows into at most `shards` contiguous ranges whose
    /// boundaries fall on day boundaries: each range ends after the last row
    /// of some day, so no day's rows span two ranges. Requires day-ordered
    /// rows (see [`SessionStore::is_day_ordered`]). The ranges cover
    /// `0..len` in order; fewer than `shards` ranges come back when the
    /// store is small or single days are large.
    ///
    /// Day alignment is what makes sharded day-grouped analyses exact: any
    /// per-day statistic (daily unique clients, per-day freshness, distinct
    /// active days per entity) is computed entirely within one shard, so an
    /// ordered merge of per-shard partial states reproduces the serial scan
    /// bit for bit — for *any* shard count.
    pub fn day_aligned_ranges(&self, shards: usize) -> Vec<std::ops::Range<usize>> {
        let len = self.rows.len();
        if len == 0 {
            return Vec::new();
        }
        let target = len.div_ceil(shards.max(1));
        let mut ranges = Vec::with_capacity(shards.max(1));
        let mut start = 0usize;
        while start < len {
            let mut end = (start + target).min(len);
            if end < len {
                // Snap forward past the tail of the day the target split in.
                let day = self.rows[end - 1].start_secs / 86_400;
                while end < len && self.rows[end].start_secs / 86_400 == day {
                    end += 1;
                }
            }
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// The day-shard driver behind every sharded analysis: cut the rows
    /// into at most `shards` day-aligned ranges, run `fold` over each range
    /// through [`hf_obs::map_ordered`], and return the per-shard results in
    /// shard (= day) order for the caller to merge front to back. Resolve
    /// the rows `fold` receives with [`SessionStore::view_row`].
    ///
    /// A store that is not day-ordered (hand-built; the collector's always
    /// is) cannot be cut on day boundaries, so it is folded as a single
    /// shard over a start-sorted copy of its rows instead.
    pub fn map_day_shards<T: Send>(
        &self,
        shards: usize,
        fold: impl Fn(&[Row]) -> T + Sync,
    ) -> Vec<T> {
        if !self.is_day_ordered() {
            let mut sorted = self.rows.clone();
            sorted.sort_by_key(|r| r.start_secs);
            return vec![fold(&sorted)];
        }
        hf_obs::map_ordered(self.day_aligned_ranges(shards), |r| fold(&self.rows[r]))
    }
}

/// A typed, zero-copy view of one stored session.
#[derive(Clone, Copy)]
pub struct SessionView<'a> {
    store: &'a SessionStore,
    row: &'a Row,
}

impl<'a> SessionView<'a> {
    /// Honeypot id.
    pub fn honeypot(&self) -> u16 {
        self.row.honeypot
    }

    /// Protocol.
    pub fn protocol(&self) -> Protocol {
        if self.row.protocol == 0 {
            Protocol::Ssh
        } else {
            Protocol::Telnet
        }
    }

    /// Client address.
    pub fn client_ip(&self) -> Ip4 {
        Ip4(self.row.client_ip)
    }

    /// Client country (if geolocated).
    pub fn client_country(&self) -> Option<CountryId> {
        (self.row.client_country != u16::MAX).then_some(CountryId(self.row.client_country))
    }

    /// Client AS (if resolved).
    pub fn client_asn(&self) -> Option<Asn> {
        (self.row.client_asn != u32::MAX).then_some(Asn(self.row.client_asn))
    }

    /// Session start instant.
    pub fn start(&self) -> SimInstant {
        SimInstant(self.row.start_secs as u64)
    }

    /// Day index of the start.
    pub fn day(&self) -> u32 {
        self.start().day()
    }

    /// Duration in seconds.
    pub fn duration_secs(&self) -> u32 {
        self.row.duration_secs
    }

    /// End reason.
    pub fn ended_by(&self) -> EndReason {
        match self.row.end_reason {
            0 => EndReason::ClientClose,
            1 => EndReason::Timeout,
            _ => EndReason::AuthLimit,
        }
    }

    /// SSH client version string.
    pub fn ssh_version(&self) -> Option<&'a str> {
        (self.row.ssh_version_id != NONE_ID)
            .then(|| self.store.ssh_versions.get(self.row.ssh_version_id))
    }

    /// Login attempts as (username, password, accepted).
    pub fn logins(&self) -> impl Iterator<Item = (&'a str, &'a str, bool)> + 'a {
        let store = self.store;
        store
            .lists
            .get(self.row.login_list_id)
            .iter()
            .map(move |&packed| {
                let accepted = packed & 1 == 1;
                let key = store.creds.get(packed >> 1);
                let (u, p) = key.split_once('\0').unwrap_or((key, ""));
                (u, p, accepted)
            })
    }

    /// Did the client attempt any login?
    pub fn attempted_login(&self) -> bool {
        self.row.login_list_id != ListPool::EMPTY
    }

    /// Did a login succeed?
    pub fn login_succeeded(&self) -> bool {
        self.logins().any(|(_, _, ok)| ok)
    }

    /// Commands as (command string, known).
    pub fn commands(&self) -> impl Iterator<Item = (&'a str, bool)> + 'a {
        let store = self.store;
        store
            .lists
            .get(self.row.cmd_list_id)
            .iter()
            .map(move |&packed| (store.commands.get(packed >> 1), packed & 1 == 1))
    }

    /// Number of commands executed.
    pub fn n_commands(&self) -> usize {
        self.store.lists.get(self.row.cmd_list_id).len()
    }

    /// URIs referenced.
    pub fn uris(&self) -> impl Iterator<Item = &'a str> + 'a {
        let store = self.store;
        store
            .lists
            .get(self.row.uri_list_id)
            .iter()
            .map(move |&id| store.uris.get(id))
    }

    /// Did any command reference a URI?
    pub fn has_uri(&self) -> bool {
        self.row.uri_list_id != ListPool::EMPTY
    }

    /// Packed login-attempt ids (`cred_id << 1 | accepted`) — the raw form
    /// analyses count by without resolving strings.
    pub fn login_packed(&self) -> &'a [u32] {
        self.store.lists.get(self.row.login_list_id)
    }

    /// Packed command ids (`cmd_id << 1 | known`).
    pub fn command_packed(&self) -> &'a [u32] {
        self.store.lists.get(self.row.cmd_list_id)
    }

    /// Interned ids of file hashes (use [`SessionStore::digests`] to resolve).
    pub fn hash_ids(&self) -> &'a [u32] {
        self.store.lists.get(self.row.hash_list_id)
    }

    /// File hashes created/modified in this session.
    pub fn file_hashes(&self) -> impl Iterator<Item = Digest> + 'a {
        let store = self.store;
        self.hash_ids().iter().map(move |&id| store.digests.get(id))
    }

    /// Interned ids of download hashes.
    pub fn download_hash_ids(&self) -> &'a [u32] {
        self.store.lists.get(self.row.dl_list_id)
    }

    /// Replay this session's artifact observations exactly as
    /// [`crate::Collector::ingest`] made them — file hashes, then download
    /// hashes, each at the session's start — so a store rebuilt from rows
    /// has the live collector's `first_seen` / `last_seen` / `occurrences`.
    pub fn replay_artifacts(&self, artifacts: &mut ArtifactStore) {
        for ids in [self.hash_ids(), self.download_hash_ids()] {
            for &id in ids {
                artifacts.observe_hash(self.store.digests.get(id), 0, self.start());
            }
        }
    }

    /// The raw compact row (for analyses that count by interned id without
    /// resolving strings).
    pub fn raw(&self) -> &'a Row {
        self.row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_hash::Sha256;
    use hf_honeypot::LoginAttempt;
    use hf_proto::creds::Credentials;
    use hf_shell::CommandRecord;

    fn record(hp: u16, day: u32, proto: Protocol) -> SessionRecord {
        SessionRecord {
            honeypot: hp,
            protocol: proto,
            client_ip: Ip4::new(16, 0, 0, 1),
            client_port: 4000,
            start: SimInstant::from_day_and_secs(day, 100),
            duration_secs: 30,
            ended_by: EndReason::ClientClose,
            ssh_client_version: Some("SSH-2.0-Go".into()),
            logins: vec![
                LoginAttempt {
                    creds: Credentials::new("root", "root"),
                    accepted: false,
                },
                LoginAttempt {
                    creds: Credentials::new("root", "1234"),
                    accepted: true,
                },
            ],
            commands: vec![
                CommandRecord {
                    input: "uname -a".into(),
                    known: true,
                },
                CommandRecord {
                    input: "weird --thing".into(),
                    known: false,
                },
            ],
            uris: vec!["http://h/x".into()],
            file_hashes: vec![Sha256::digest(b"payload")],
            download_hashes: vec![Sha256::digest(b"body")],
        }
    }

    #[test]
    fn ingest_and_view_roundtrip() {
        let mut s = SessionStore::new();
        s.ingest(&record(3, 10, Protocol::Ssh), Some((CountryId(1), Asn(99))));
        assert_eq!(s.len(), 1);
        let v = s.view(0);
        assert_eq!(v.honeypot(), 3);
        assert_eq!(v.protocol(), Protocol::Ssh);
        assert_eq!(v.day(), 10);
        assert_eq!(v.duration_secs(), 30);
        assert_eq!(v.client_country(), Some(CountryId(1)));
        assert_eq!(v.client_asn(), Some(Asn(99)));
        assert_eq!(v.ssh_version(), Some("SSH-2.0-Go"));
        assert!(v.attempted_login());
        assert!(v.login_succeeded());
        let logins: Vec<_> = v.logins().collect();
        assert_eq!(
            logins,
            vec![("root", "root", false), ("root", "1234", true)]
        );
        let cmds: Vec<_> = v.commands().collect();
        assert_eq!(cmds, vec![("uname -a", true), ("weird --thing", false)]);
        assert_eq!(v.uris().collect::<Vec<_>>(), vec!["http://h/x"]);
        assert_eq!(v.file_hashes().next().unwrap(), Sha256::digest(b"payload"));
        assert_eq!(v.download_hash_ids().len(), 1);
    }

    #[test]
    fn interning_collapses_repeated_sessions() {
        let mut s = SessionStore::new();
        for i in 0..1000 {
            s.ingest(&record(i % 5, 0, Protocol::Ssh), None);
        }
        assert_eq!(s.len(), 1000);
        // 1000 identical sessions → 1 cred pair ×2 creds, 2 commands, 1 uri …
        assert_eq!(s.creds.len(), 2);
        assert_eq!(s.commands.len(), 2);
        assert_eq!(s.uris.len(), 1);
        assert_eq!(s.digests.len(), 2);
        // Lists are shared across attribute kinds, so the single-element
        // lists [0] (uris, file hashes) collapse to one entry:
        // empty + logins + commands + [0] + [1] = 5.
        assert_eq!(s.lists.len(), 5);
    }

    #[test]
    fn missing_geo_is_none() {
        let mut s = SessionStore::new();
        s.ingest(&record(0, 0, Protocol::Telnet), None);
        let v = s.view(0);
        assert_eq!(v.client_country(), None);
        assert_eq!(v.client_asn(), None);
        assert_eq!(v.protocol(), Protocol::Telnet);
    }

    #[test]
    fn empty_session_has_empty_iterators() {
        let mut rec = record(0, 0, Protocol::Ssh);
        rec.logins.clear();
        rec.commands.clear();
        rec.uris.clear();
        rec.file_hashes.clear();
        rec.download_hashes.clear();
        rec.ssh_client_version = None;
        let mut s = SessionStore::new();
        s.ingest(&rec, None);
        let v = s.view(0);
        assert!(!v.attempted_login());
        assert!(!v.login_succeeded());
        assert_eq!(v.n_commands(), 0);
        assert!(!v.has_uri());
        assert_eq!(v.hash_ids().len(), 0);
        assert_eq!(v.ssh_version(), None);
    }

    #[test]
    fn iter_covers_all_rows() {
        let mut s = SessionStore::new();
        for d in 0..7 {
            s.ingest(&record(0, d, Protocol::Ssh), None);
        }
        let days: Vec<u32> = s.iter().map(|v| v.day()).collect();
        assert_eq!(days, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn range_accessors_match_full_iteration() {
        let mut s = SessionStore::new();
        for d in 0..10 {
            s.ingest(&record((d % 3) as u16, d, Protocol::Ssh), None);
        }
        let days: Vec<u32> = s.iter_range(3..7).map(|v| v.day()).collect();
        assert_eq!(days, vec![3, 4, 5, 6]);
    }

    #[test]
    fn day_ordered_detection() {
        let mut s = SessionStore::new();
        s.ingest(&record(0, 3, Protocol::Ssh), None);
        s.ingest(&record(0, 5, Protocol::Ssh), None);
        assert!(s.is_day_ordered());
        s.ingest(&record(0, 1, Protocol::Ssh), None);
        assert!(!s.is_day_ordered());
        assert!(SessionStore::new().is_day_ordered());
    }

    #[test]
    fn day_aligned_ranges_cover_and_never_split_a_day() {
        let mut s = SessionStore::new();
        // 5 days with uneven per-day counts: 1, 4, 2, 7, 3 rows.
        for (day, n) in [(0u32, 1usize), (1, 4), (2, 2), (3, 7), (4, 3)] {
            for _ in 0..n {
                s.ingest(&record(0, day, Protocol::Ssh), None);
            }
        }
        for shards in 1..=8 {
            let ranges = s.day_aligned_ranges(shards);
            assert!(ranges.len() <= shards.max(1));
            // Contiguous cover of 0..len.
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, s.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // No day spans two ranges.
            for w in ranges.windows(2) {
                let last = s.view(w[0].end - 1).day();
                let first = s.view(w[1].start).day();
                assert!(last < first, "shards {shards}: day {last} split");
            }
        }
        assert!(SessionStore::new().day_aligned_ranges(4).is_empty());
    }

    #[test]
    fn one_giant_day_collapses_to_one_range() {
        let mut s = SessionStore::new();
        for _ in 0..100 {
            s.ingest(&record(0, 7, Protocol::Ssh), None);
        }
        assert_eq!(s.day_aligned_ranges(8), vec![0..100]);
    }

    #[test]
    fn eager_capacity_hint_is_capped() {
        // A scale-1.0 estimate (~402 M rows ≈ 19 GB) must not be committed
        // upfront; the reservation is clamped to the eager cap.
        let s = SessionStore::with_capacity(402_000_000);
        assert!(s.rows.capacity() <= SessionStore::EAGER_ROW_RESERVE_CAP * 2);
        // Small hints still pre-allocate exactly.
        let s = SessionStore::with_capacity(1000);
        assert!(s.rows.capacity() >= 1000);
    }

    #[test]
    fn retire_rows_keeps_pools_and_ids_stable() {
        let mut s = SessionStore::new();
        s.ingest(&record(1, 0, Protocol::Ssh), None);
        let creds_before = s.creds.len();
        let lists_before = s.lists.len();
        s.retire_rows();
        assert!(s.is_empty());
        assert_eq!(s.creds.len(), creds_before);
        assert_eq!(s.lists.len(), lists_before);
        // Re-ingesting the same session re-uses the same interned ids.
        s.ingest(&record(1, 1, Protocol::Ssh), None);
        assert_eq!(s.creds.len(), creds_before);
        assert_eq!(s.lists.len(), lists_before);
    }

    #[test]
    fn view_row_matches_in_store_view() {
        let mut s = SessionStore::new();
        s.ingest(&record(2, 3, Protocol::Ssh), Some((CountryId(7), Asn(42))));
        let row = s.rows()[0];
        let external = s.view_row(&row);
        assert_eq!(external.honeypot(), 2);
        assert_eq!(external.day(), 3);
        assert_eq!(external.client_asn(), Some(Asn(42)));
        assert_eq!(
            external.logins().collect::<Vec<_>>(),
            s.view(0).logins().collect::<Vec<_>>()
        );
        assert_eq!(external.login_packed(), s.view(0).login_packed());
        assert_eq!(external.command_packed(), s.view(0).command_packed());
    }

    #[test]
    fn row_size_is_compact() {
        // The memory story of the columnar design: fixed 48-byte rows
        // (also enforced at compile time by the `const _` assert above).
        assert_eq!(std::mem::size_of::<Row>(), 48);
    }
}
