//! `hfstore` — durable, checksummed on-disk snapshots of a collected run.
//!
//! The paper's pipeline re-analyzes a fixed 15-month session database; this
//! module gives the reproduction the same workflow: `hfarm simulate` writes
//! the collected [`SessionStore`] + [`TagDb`] + deployment plan once, and
//! `hfarm report` (or any reanalysis tool) reloads it without re-simulating.
//!
//! ## Format (version 5)
//!
//! ```text
//! [magic "HFSTORE\0" : 8 bytes]
//! [format version    : u32 LE]
//! [section count     : u32 LE]
//! then ROWS (below), then for each section in the fixed order below:
//! [section id   : u32 LE]
//! [payload len  : u64 LE]
//! [SHA-256     : 32 bytes]                     (via hf-hash)
//! [payload      : len bytes]
//! then the footer:
//! [offset of META    : u64 LE]
//! [magic "HFSTORE\0" : 8 bytes]
//! ```
//!
//! Sections, in order: ROWS, META, PLAN, CREDS, COMMANDS, URIS,
//! SSH_VERSIONS, DIGESTS, LISTS, TAGS. Integers outside the rows chunks are
//! little-endian and fixed-width. String/digest/list pools are written in
//! insertion order and tag entries sorted by digest, so snapshots of a
//! deterministic run are byte-identical on every run (see DESIGN.md §5).
//!
//! ROWS — the only section that grows with the window — comes first, so
//! [`SnapshotWriter`] appends rows as they are produced and writes the
//! pools, which cover every row, once the rows are done. Every other
//! section is checksummed and materialized whole. ROWS is chunked so both
//! sides stream it in bounded memory, and its checksum follows its data:
//!
//! ```text
//! [section id     : u32 LE]
//! [rows_per_chunk : u32 LE]                     (writer uses ROWS_PER_CHUNK)
//! then, per chunk (ceil(n_rows / rows_per_chunk) of them):
//! [SHA-256 of the payload : 32 bytes]
//! [payload len            : u32 LE]
//! [payload                : the chunk's rows, column-coded]
//! [SHA-256 over the chunk digests, in order : 32 bytes]
//! ```
//!
//! A payload holds its rows (`rows_per_chunk` of them, except in the last
//! chunk) column by column: a dictionary of the chunk's clients, a column
//! directory, then varint and fixed-width columns. It decodes on its own,
//! without the chunks before it; the private `rowcodec` module documents
//! the columns. The on-disk form no longer mirrors the in-memory [`Row`]:
//! a row takes about 15 bytes instead of 48.
//!
//! A reader needs the pools before the rows, so [`SnapshotReader::open`]
//! seeks to the footer, decodes META through TAGS (which must end at the
//! footer), then seeks back to the rows, which must end at META. The row
//! count is META's; the chunk count and each chunk's row count follow from
//! it and `rows_per_chunk`. Each chunk digest authenticates its payload,
//! and the trailing digest the chunk digests and their order, so the
//! reader verifies each chunk as it arrives
//! ([`SnapshotError::ChunkChecksumMismatch`] names it) and the trailer
//! after the last, never holding more than two chunks;
//! [`Snapshot::read_from`] is a materializing wrapper over it. A file whose
//! last eight bytes are not the magic has lost its footer:
//! [`SnapshotError::Truncated`] in the `footer` section.
//!
//! ## The row contract
//!
//! A checksum only proves that the bytes are the ones their writer wrote,
//! so every row is checked once more, on the reader's prefetch thread right
//! after its chunk decodes: its SSH version and list ids resolve in their
//! pools, its honeypot is in the plan, its client country is unknown
//! (`u16::MAX`) or in the `hf_geo` catalog, its day is below META's `days`,
//! and its day is not earlier than the previous row's, across chunks too.
//! [`SnapshotReader::open`] takes the bounds from the sections it decodes
//! before the rows, and the plan section refuses a node country outside the
//! catalog. The writer emits rows in the order they are pushed;
//! [`Snapshot::write_to`] pushes [`SessionStore::day_ordered_rows`].
//!
//! ## Error handling
//!
//! The load path never panics and never `unwrap()`s: a truncated file, bad
//! magic, unsupported version, a footer that points outside the file,
//! section or chunk checksum mismatch, a chunk payload that does not
//! decode, or a row that breaks the row contract each surfaces as a typed
//! [`SnapshotError`] (a dangling id as [`SnapshotError::DanglingId`], the
//! other rules as [`SnapshotError::Corrupt`]), verified by the
//! fault-injection suite in `tests/snapshot_faults.rs`.

use std::collections::HashSet;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Take, Write};
use std::path::{Path, PathBuf};

use hf_geo::{country, Asn, CountryId, Ip4, NetworkClass};
use hf_hash::{Digest, Sha256};
use hf_honeypot::ArtifactStore;

use crate::collector::Dataset;
use crate::deployment::{FarmPlan, HoneypotNode};
use crate::intern::{DigestPool, ListPool, StringPool, MAX_POOL_LEN, NONE_ID};
use crate::rowcodec::{self, ChunkEncoder};
use crate::store::{Row, SessionStore};
use crate::tags::TagDb;

/// File magic: identifies an hfstore snapshot.
pub const MAGIC: [u8; 8] = *b"HFSTORE\0";

/// Current format version. Bump on any layout change; readers reject other
/// versions with [`SnapshotError::UnsupportedVersion`]. Version 5 puts the
/// rows first and the pools after them (see the module docs); earlier files
/// are no longer readable.
pub const FORMAT_VERSION: u32 = 5;

/// Rows per chunk the writer emits: 65 536 rows, about 1 MiB of payload
/// and 3 MiB of decoded rows. Readers accept any `rows_per_chunk` up to
/// [`MAX_ROWS_PER_CHUNK`], so this can be retuned without a format bump.
pub const ROWS_PER_CHUNK: u32 = 1 << 16;

/// Upper bound on a file's declared `rows_per_chunk` (48 MiB of decoded
/// rows): with the payload bound each chunk's row count implies, it bounds
/// the streaming reader's per-chunk allocations, so a hostile prologue or
/// length field cannot force a giant buffer.
pub const MAX_ROWS_PER_CHUNK: u32 = 1 << 20;

/// `(section id, section name)` in on-disk order. Section ids are part of
/// the format; names appear in error messages and tests.
pub const SECTIONS: [(u32, &str); 10] = [
    (9, "rows"),
    (1, "meta"),
    (2, "plan"),
    (3, "creds"),
    (4, "commands"),
    (5, "uris"),
    (6, "ssh_versions"),
    (7, "digests"),
    (8, "lists"),
    (10, "tags"),
];

/// Bytes of the file header: magic, version and section count.
const HEADER: u64 = 8 + 4 + 4;
/// Bytes of the footer: META's offset, then the magic.
const FOOTER: u64 = 8 + 8;
/// The fewest bytes a rows section takes: its id, `rows_per_chunk` and the
/// trailer, with no chunk.
const EMPTY_ROWS: u64 = 4 + 4 + 32;

/// Run-level metadata stored in the META section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotMeta {
    /// Root seed of the run that produced the snapshot.
    pub seed: u64,
    /// Volume scale factor (1.0 = the paper's 402 M sessions).
    pub scale_volume: f64,
    /// Hash-diversity scale factor.
    pub scale_hashes: f64,
    /// Days simulated.
    pub days: u32,
    /// Distinct client IPs the ecosystem allocated.
    pub n_clients: u64,
}

/// A complete, self-contained snapshot of a collected run.
#[derive(Debug)]
pub struct Snapshot {
    /// Run-level metadata.
    pub meta: SnapshotMeta,
    /// The deployment that produced the data.
    pub plan: FarmPlan,
    /// All sessions (rows + interning pools).
    pub sessions: SessionStore,
    /// Hash → tag/campaign database.
    pub tags: TagDb,
}

/// Everything that can go wrong writing or (mostly) loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure (not a format problem).
    Io(io::Error),
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 8],
    },
    /// The file declares a format version this reader does not speak.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// The single version this build supports.
        supported: u32,
    },
    /// The file ended before the named section was complete.
    Truncated {
        /// Section being read when the data ran out ("header" for the
        /// file header, "footer" for a file whose last 16 bytes are not a
        /// footer).
        section: &'static str,
    },
    /// A section's payload does not hash to its stored checksum.
    ChecksumMismatch {
        /// The corrupted section.
        section: &'static str,
    },
    /// One chunk of a chunked section does not hash to its stored chunk
    /// digest. The rest of the section (and every earlier chunk) may be
    /// intact — this is corruption pinpointed to `chunk`.
    ChunkChecksumMismatch {
        /// The chunked section ("rows").
        section: &'static str,
        /// Zero-based index of the failing chunk.
        chunk: u32,
    },
    /// A section header carries an id other than the one mandated by the
    /// fixed section order.
    UnexpectedSection {
        /// Section id the format requires at this position.
        expected: u32,
        /// Section id found in the file.
        found: u32,
    },
    /// A row references a pool id that the snapshot's pools do not contain.
    DanglingId {
        /// Which pool the id points into ("cred", "command", "uri",
        /// "ssh_version", "digest", "list").
        kind: &'static str,
        /// The out-of-range id.
        id: u32,
    },
    /// A section passed its checksum but its contents are internally
    /// inconsistent (duplicate pool entry, count mismatch, bad enum value…).
    Corrupt {
        /// The inconsistent section.
        section: &'static str,
        /// Human-readable description.
        detail: String,
    },
    /// Refusing to write a pool whose ids no longer fit in 31 bits (they
    /// would corrupt the packed `id << 1 | flag` encoding; see
    /// [`MAX_POOL_LEN`]).
    PoolOverflow {
        /// The overflowing pool.
        pool: &'static str,
        /// Its entry count.
        len: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not an hfstore snapshot (magic {found:02x?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported hfstore version {found} (this build reads version {supported})"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated inside the {section} section")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in the {section} section")
            }
            SnapshotError::ChunkChecksumMismatch { section, chunk } => {
                write!(f, "checksum mismatch in {section} chunk {chunk}")
            }
            SnapshotError::UnexpectedSection { expected, found } => write!(
                f,
                "unexpected section id {found} (expected {expected}); sections are ordered"
            ),
            SnapshotError::DanglingId { kind, id } => {
                write!(f, "row references dangling {kind} id {id}")
            }
            SnapshotError::Corrupt { section, detail } => {
                write!(f, "corrupt {section} section: {detail}")
            }
            SnapshotError::PoolOverflow { pool, len } => write!(
                f,
                "{pool} pool holds {len} entries; ids beyond 2^31-1 cannot be encoded"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl Snapshot {
    /// Write the snapshot to `w` in hfstore format through a
    /// [`SnapshotWriter`], its rows in [`SessionStore::day_ordered_rows`]
    /// order, the order the reader requires; a store that is already
    /// day-ordered is written as stored, encoded straight from its rows.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), SnapshotError> {
        self.write_to_chunked(w, ROWS_PER_CHUNK)
    }

    /// [`Snapshot::write_to`] with an explicit rows-per-chunk — a
    /// test/tooling knob for producing multi-chunk files from small stores
    /// (readers accept any value in `1..=`[`MAX_ROWS_PER_CHUNK`], so this
    /// is not a format change). The default writer always uses
    /// [`ROWS_PER_CHUNK`].
    pub fn write_to_chunked<W: Write>(
        &self,
        w: &mut W,
        rows_per_chunk: u32,
    ) -> Result<(), SnapshotError> {
        self.write_with(SnapshotWriter::new(w, rows_per_chunk, None)?)
    }

    /// Write the snapshot to a file (buffered) through
    /// [`SnapshotWriter::create`], so a write that is killed or fails never
    /// leaves a torn snapshot under the final name.
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        self.write_with(SnapshotWriter::create(path)?)
    }

    /// Every chunk, the partial last one too, is encoded straight from the
    /// store's rows: the whole set is at hand, so no row waits in the
    /// writer's tail as a push would leave it.
    fn write_with<W: Write>(&self, mut writer: SnapshotWriter<W>) -> Result<(), SnapshotError> {
        {
            let _rows = hf_obs::span!("snapshot.write.rows");
            for chunk in self.sessions.day_ordered_rows().chunks(writer.rows_per_chunk) {
                writer.write_chunk(chunk)?;
            }
        }
        writer.finish(&self.meta, &self.plan, &self.sessions, &self.tags)
    }

    /// Read a snapshot from `r`, validating magic, version, footer, section
    /// and chunk checksums, and every row against the row contract.
    ///
    /// A materializing wrapper over [`SnapshotReader`]: rows accumulate
    /// into one `Vec`, so memory grows with the file. Analyses that only
    /// need a fold over the rows should drive [`SnapshotReader`] directly.
    pub fn read_from<R: Read + Seek + Send>(r: &mut R) -> Result<Snapshot, SnapshotError> {
        let _span = hf_obs::span!("snapshot.load");
        let reader = SnapshotReader::open(r)?;
        // Grown chunk by chunk: the declared row count is untrusted until
        // the data actually arrives, so no upfront n_rows-sized reserve.
        let mut rows = Vec::new();
        let (meta, plan, mut sessions, tags) = reader.fold_chunks(|_, _, chunk| {
            rows.extend_from_slice(chunk);
            Ok(())
        })?;
        sessions.set_rows(rows);
        Ok(Snapshot {
            meta,
            plan,
            sessions,
            tags,
        })
    }

    /// Read a snapshot from a file (buffered).
    pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Snapshot, SnapshotError> {
        let mut r = BufReader::new(File::open(path)?);
        Snapshot::read_from(&mut r)
    }

    /// Rebuild the artifact store by replaying stored rows in order (see
    /// [`crate::SessionView::replay_artifacts`]).
    pub fn rebuild_artifacts(&self) -> ArtifactStore {
        let mut artifacts = ArtifactStore::new();
        for v in self.sessions.iter() {
            v.replay_artifacts(&mut artifacts);
        }
        artifacts
    }

    /// Consume the snapshot into the [`Dataset`] + [`TagDb`] pair the
    /// report pipeline runs on, plus the run metadata.
    pub fn into_dataset(self) -> (Dataset, TagDb, SnapshotMeta) {
        let artifacts = self.rebuild_artifacts();
        (
            Dataset {
                sessions: self.sessions,
                artifacts,
                plan: self.plan,
            },
            self.tags,
            self.meta,
        )
    }
}

/// The one hfstore writer: rows as they come, then the sections that
/// describe them. [`SnapshotWriter::push`] appends rows in the order the
/// reader requires (day order), encoding each full chunk straight from the
/// caller's slice and holding back only a partial chunk's rows;
/// [`SnapshotWriter::finish`] writes the last chunk, the rows trailer,
/// META through TAGS and the footer. Peak memory is one chunk, whatever the
/// row count, so a run can persist its rows as it retires them.
pub struct SnapshotWriter<W: Write = BufWriter<File>> {
    w: W,
    /// `(<path>.tmp, path)` for a writer from [`SnapshotWriter::create`]:
    /// `finish` renames the one over the other.
    rename: Option<(PathBuf, PathBuf)>,
    rows_per_chunk: usize,
    /// The rows of the partial chunk the last push left, copied.
    tail: Vec<Row>,
    encoder: ChunkEncoder,
    payload: Vec<u8>,
    /// SHA-256 over the chunk digests written so far.
    digests: Sha256,
    rows: u64,
    /// Bytes written so far: the offset of the next one.
    offset: u64,
}

impl SnapshotWriter {
    /// Start a snapshot at `path`. The bytes go to `<path>.tmp` in the same
    /// directory, which [`SnapshotWriter::finish`] renames over `path` once
    /// flushed, so a write that is killed or fails never leaves a torn
    /// snapshot under the final name.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<SnapshotWriter, SnapshotError> {
        let path = path.as_ref().to_owned();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let w = BufWriter::new(File::create(&tmp)?);
        SnapshotWriter::new(w, ROWS_PER_CHUNK, Some((tmp.into(), path)))
    }
}

impl<W: Write> SnapshotWriter<W> {
    /// Write the header and open the rows section.
    fn new(
        mut w: W,
        rows_per_chunk: u32,
        rename: Option<(PathBuf, PathBuf)>,
    ) -> Result<Self, SnapshotError> {
        assert!(
            (1..=MAX_ROWS_PER_CHUNK).contains(&rows_per_chunk),
            "rows_per_chunk {rows_per_chunk} outside 1..={MAX_ROWS_PER_CHUNK}"
        );
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(SECTIONS.len() as u32).to_le_bytes())?;
        w.write_all(&SECTIONS[0].0.to_le_bytes())?;
        w.write_all(&rows_per_chunk.to_le_bytes())?;
        Ok(SnapshotWriter {
            w,
            rename,
            rows_per_chunk: rows_per_chunk as usize,
            tail: Vec::new(),
            encoder: ChunkEncoder::default(),
            payload: Vec::new(),
            digests: Sha256::new(),
            rows: 0,
            // The header, the rows section id and `rows_per_chunk`.
            offset: HEADER + 4 + 4,
        })
    }

    /// Append `rows`, which follow every row pushed before them in day
    /// order. Each chunk they fill is encoded and written now; the rows of
    /// a partial last chunk wait for the next push or for `finish`.
    pub fn push(&mut self, mut rows: &[Row]) -> Result<(), SnapshotError> {
        let _span = hf_obs::span!("snapshot.write.rows");
        if !self.tail.is_empty() {
            let fill = rows.len().min(self.rows_per_chunk - self.tail.len());
            self.tail.extend_from_slice(&rows[..fill]);
            rows = &rows[fill..];
            if self.tail.len() < self.rows_per_chunk {
                return Ok(());
            }
            self.write_tail()?;
        }
        let mut chunks = rows.chunks_exact(self.rows_per_chunk);
        for chunk in &mut chunks {
            self.write_chunk(chunk)?;
        }
        self.tail.extend_from_slice(chunks.remainder());
        Ok(())
    }

    /// Write the held-back rows as one chunk.
    fn write_tail(&mut self) -> Result<(), SnapshotError> {
        let tail = std::mem::take(&mut self.tail);
        self.write_chunk(&tail)?;
        self.tail = tail;
        self.tail.clear();
        Ok(())
    }

    /// Column-code `rows` into the reused payload buffer, then write its
    /// digest, length and bytes.
    fn write_chunk(&mut self, rows: &[Row]) -> Result<(), SnapshotError> {
        self.payload.clear();
        self.encoder.encode(rows, &mut self.payload);
        let digest = Sha256::digest(&self.payload).0;
        self.digests.update(&digest);
        self.w.write_all(&digest)?;
        // In range: a payload is at most `max_payload(MAX_ROWS_PER_CHUNK)`.
        self.w
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.w.write_all(&self.payload)?;
        self.offset += 32 + 4 + self.payload.len() as u64;
        self.rows += rows.len() as u64;
        Ok(())
    }

    /// Close the rows section (its last chunk and trailer), then write
    /// META — `meta` and the number of rows pushed — PLAN, `store`'s
    /// pools, which must resolve every pushed row, TAGS and the footer.
    /// The rows of `store` itself are not written: push them first. A
    /// writer from [`SnapshotWriter::create`] then renames its file into
    /// place.
    pub fn finish(
        mut self,
        meta: &SnapshotMeta,
        plan: &FarmPlan,
        store: &SessionStore,
        tags: &TagDb,
    ) -> Result<(), SnapshotError> {
        let s = store;
        for (pool, len) in [
            ("creds", s.creds.len()),
            ("commands", s.commands.len()),
            ("uris", s.uris.len()),
            ("ssh_versions", s.ssh_versions.len()),
            ("digests", s.digests.len()),
            ("lists", s.lists.len()),
        ] {
            if len > MAX_POOL_LEN {
                return Err(SnapshotError::PoolOverflow { pool, len });
            }
        }

        let _span = hf_obs::span!("snapshot.write");
        {
            let _rows = hf_obs::span!("snapshot.write.rows");
            if !self.tail.is_empty() {
                self.write_tail()?;
            }
            self.w
                .write_all(&std::mem::take(&mut self.digests).finalize().0)?;
            self.offset += 32;
        }
        // The rows section, after its id.
        hf_obs::observe!("snapshot.section_bytes", self.offset - HEADER - 4);

        let meta_at = self.offset;
        let mut buf = Vec::new();
        for (id, name) in &SECTIONS[1..] {
            let _sec = hf_obs::span_owned_with(|| format!("snapshot.write.{name}"));
            buf.clear();
            match *name {
                "meta" => encode_meta(meta, self.rows, &mut buf),
                "plan" => encode_plan(plan, &mut buf),
                "creds" => encode_string_pool(&s.creds, &mut buf),
                "commands" => encode_string_pool(&s.commands, &mut buf),
                "uris" => encode_string_pool(&s.uris, &mut buf),
                "ssh_versions" => encode_string_pool(&s.ssh_versions, &mut buf),
                "digests" => encode_digest_pool(&s.digests, &mut buf),
                "lists" => encode_list_pool(&s.lists, &mut buf),
                "tags" => encode_tags(tags, &mut buf),
                _ => unreachable!("section table is exhaustive"),
            }
            hf_obs::observe!("snapshot.section_bytes", buf.len());
            // Section header: u32 id + u64 length + 32-byte checksum.
            self.offset += (4 + 8 + 32 + buf.len()) as u64;
            self.w.write_all(&id.to_le_bytes())?;
            self.w.write_all(&(buf.len() as u64).to_le_bytes())?;
            self.w.write_all(&Sha256::digest(&buf).0)?;
            self.w.write_all(&buf)?;
        }
        self.w.write_all(&meta_at.to_le_bytes())?;
        self.w.write_all(&MAGIC)?;
        self.w.flush()?;
        hf_obs::counter!("snapshot.rows_written", self.rows);
        hf_obs::counter!("snapshot.bytes_written", self.offset + FOOTER);
        if let Some((tmp, path)) = self.rename {
            drop(self.w);
            std::fs::rename(tmp, path)?;
        }
        Ok(())
    }
}

/// Read one fully-materialized section in the fixed SECTIONS order and
/// decode it (including a trailing-bytes check) before moving on.
fn read_decoded_section<R: Read, T>(
    r: &mut R,
    idx: usize,
    decode: impl FnOnce(&mut Cursor<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let (id, name) = SECTIONS[idx];
    let _sec = hf_obs::span_owned_with(|| format!("snapshot.load.{name}"));
    let payload = read_section(r, id, name)?;
    let mut cur = Cursor::new(&payload, name);
    let out = decode(&mut cur)?;
    cur.finish()?;
    Ok(out)
}

/// Streaming hfstore reader: the small, row-count-independent sections
/// (meta, plan, pools, tags) are materialized by [`SnapshotReader::open`];
/// the rows section is then folded one verified chunk at a time by
/// [`SnapshotReader::fold_chunks`], which hands back the pools-only
/// [`SessionStore`] shell. Peak memory is the pools plus two chunks —
/// never the whole rows section.
///
/// Rows handed to the fold already keep the row contract (chunk checksum,
/// enum bytes, interned ids against the pools, honeypot against the plan,
/// country against the catalog, day against META's window, day order), so
/// [`SessionStore::view_row`] against the store it is handed is safe:
///
/// ```no_run
/// # fn main() -> Result<(), hf_farm::SnapshotError> {
/// # let file = std::io::Cursor::new(Vec::new());
/// let reader = hf_farm::SnapshotReader::open(file)?;
/// let (meta, plan, shell, tags) = reader.fold_chunks(|store, _plan, rows| {
///     for row in rows {
///         let _view = store.view_row(row);
///         // … fold the session …
///     }
///     Ok(())
/// })?;
/// # Ok(()) }
/// ```
pub struct SnapshotReader<R: Read> {
    /// The stream half: the rows section of the underlying reader, chunk
    /// cursor, running digest of the chunk digests, and the row contract.
    /// Split out so the overlapped fold can hand it to a prefetch thread
    /// while the fold stays on the caller's thread (see
    /// [`SnapshotReader::fold_chunks`]).
    raw: RawChunks<R>,
    meta: SnapshotMeta,
    plan: FarmPlan,
    /// Pools-only shell; rows stay with the caller.
    store: SessionStore,
    tags: TagDb,
}

/// The stream half of the reader: reads one chunk at a time from the
/// underlying stream, verifies its checksum, decodes its rows, checks them
/// against the row contract, and folds its digest into the running digest
/// the trailer is checked against. Owns everything a prefetch thread needs
/// and nothing the fold touches.
struct RawChunks<R: Read> {
    /// The rows section after `rows_per_chunk`, bounded by META's offset.
    r: Take<R>,
    /// META's row count.
    n_rows: u64,
    rows_per_chunk: u32,
    /// `ceil(n_rows / rows_per_chunk)`.
    n_chunks: u32,
    chunks_read: u32,
    /// SHA-256 over the chunk digests read so far.
    digests: Sha256,
    contract: RowContract,
}

/// One chunk in flight from the prefetch thread to the fold: its payload as
/// read, and the rows decoded from it. Both buffers are reused.
#[derive(Default)]
struct ChunkBuf {
    payload: Vec<u8>,
    rows: Vec<Row>,
}

impl<R: Read> RawChunks<R> {
    /// Read, checksum-verify, decode and check the next chunk into `buf` —
    /// or, once every chunk has been consumed, read the trailer, check it
    /// against the chunk digests and check that the rows end at META, and
    /// return `None`. `store` holds the pools, walked only to name a
    /// dangling id.
    fn next_chunk(
        &mut self,
        buf: &mut ChunkBuf,
        store: &SessionStore,
    ) -> Result<Option<()>, SnapshotError> {
        if self.chunks_read == self.n_chunks {
            let trailer: [u8; 32] = read_array(&mut self.r, "rows")?;
            if std::mem::take(&mut self.digests).finalize().0 != trailer {
                return Err(SnapshotError::ChecksumMismatch { section: "rows" });
            }
            if self.r.limit() != 0 {
                return Err(SnapshotError::Corrupt {
                    section: "rows",
                    detail: format!("the rows end {} bytes before META", self.r.limit()),
                });
            }
            return Ok(None);
        }
        let idx = self.chunks_read;
        // Every chunk is full except the last.
        let left = self.n_rows - idx as u64 * self.rows_per_chunk as u64;
        let chunk_rows = left.min(self.rows_per_chunk as u64) as usize;
        let digest: [u8; 32] = read_array(&mut self.r, "rows")?;
        let len = u32::from_le_bytes(read_array(&mut self.r, "rows")?) as usize;
        if len > rowcodec::max_payload(chunk_rows) {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!("chunk {idx} declares {len} payload bytes for {chunk_rows} rows"),
            });
        }
        buf.payload.clear();
        buf.payload.resize(len, 0);
        read_exact(&mut self.r, &mut buf.payload, "rows")?;
        let verify = hf_obs::span!("hash.verify");
        if Sha256::digest(&buf.payload).0 != digest {
            return Err(SnapshotError::ChunkChecksumMismatch {
                section: "rows",
                chunk: idx,
            });
        }
        drop(verify);
        self.digests.update(&digest);
        self.chunks_read += 1;
        let _scan = hf_obs::span!("farm.chunk_scan");
        rowcodec::decode_chunk(&buf.payload, chunk_rows, &mut buf.rows)?;
        self.contract.check(&buf.rows, store)?;
        Ok(Some(()))
    }
}

impl<R: Read + Seek + Send> SnapshotReader<R> {
    /// Open a snapshot: validate the header, seek to the footer, materialize
    /// the meta / plan / pool / tags sections it points at, then seek back
    /// and position the stream at the first rows chunk (validating the
    /// declared chunk size). The seeks are the only ones the reader makes.
    pub fn open(mut r: R) -> Result<Self, SnapshotError> {
        let mut magic = [0u8; 8];
        read_exact(&mut r, &mut magic, "header")?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(read_array(&mut r, "header")?);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let n_sections = u32::from_le_bytes(read_array(&mut r, "header")?);
        if n_sections != SECTIONS.len() as u32 {
            return Err(SnapshotError::Corrupt {
                section: "header",
                detail: format!(
                    "section count {n_sections}, version {FORMAT_VERSION} has {}",
                    SECTIONS.len()
                ),
            });
        }

        // The footer: where META starts. A file without one was cut short.
        let end = r.seek(SeekFrom::End(0))?;
        let truncated = SnapshotError::Truncated { section: "footer" };
        let Some(footer_at) = end.checked_sub(FOOTER).filter(|&at| at >= HEADER) else {
            return Err(truncated);
        };
        r.seek(SeekFrom::Start(footer_at))?;
        let meta_at = u64::from_le_bytes(read_array(&mut r, "footer")?);
        if read_array::<_, 8>(&mut r, "footer")? != MAGIC {
            return Err(truncated);
        }
        if !(HEADER + EMPTY_ROWS..=footer_at).contains(&meta_at) {
            return Err(SnapshotError::Corrupt {
                section: "footer",
                detail: format!(
                    "META offset {meta_at} outside {}..={footer_at}",
                    HEADER + EMPTY_ROWS
                ),
            });
        }

        r.seek(SeekFrom::Start(meta_at))?;
        let mut sections = (&mut r).take(footer_at - meta_at);
        let (meta, n_rows) = read_decoded_section(&mut sections, 1, decode_meta)?;
        let plan = read_decoded_section(&mut sections, 2, decode_plan)?;
        let creds = read_decoded_section(&mut sections, 3, decode_string_pool)?;
        let commands = read_decoded_section(&mut sections, 4, decode_string_pool)?;
        let uris = read_decoded_section(&mut sections, 5, decode_string_pool)?;
        let ssh_versions = read_decoded_section(&mut sections, 6, decode_string_pool)?;
        let digests = read_decoded_section(&mut sections, 7, decode_digest_pool)?;
        let lists = read_decoded_section(&mut sections, 8, decode_list_pool)?;
        let tags = read_decoded_section(&mut sections, 9, decode_tags)?;
        if sections.limit() != 0 {
            return Err(SnapshotError::Corrupt {
                section: "footer",
                detail: format!("{} bytes between the tags and the footer", sections.limit()),
            });
        }

        // Rows section header, bounded by META's offset. META's row count
        // and the declared chunk size fix the chunk count and every chunk's
        // row count.
        r.seek(SeekFrom::Start(HEADER))?;
        let mut r = r.take(meta_at - HEADER);
        let (rows_id, _) = SECTIONS[0];
        let found = u32::from_le_bytes(read_array(&mut r, "rows")?);
        if found != rows_id {
            return Err(SnapshotError::UnexpectedSection {
                expected: rows_id,
                found,
            });
        }
        let rows_per_chunk = u32::from_le_bytes(read_array(&mut r, "rows")?);
        if rows_per_chunk == 0 || rows_per_chunk > MAX_ROWS_PER_CHUNK {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!("rows_per_chunk {rows_per_chunk} outside 1..={MAX_ROWS_PER_CHUNK}"),
            });
        }
        let n_chunks = u32::try_from(n_rows.div_ceil(rows_per_chunk as u64)).map_err(|_| {
            SnapshotError::Corrupt {
                section: "rows",
                detail: format!("{n_rows} rows at {rows_per_chunk}/chunk exceed 2^32 chunks"),
            }
        })?;

        let store = SessionStore::from_parts(
            Vec::new(),
            creds,
            commands,
            uris,
            ssh_versions,
            digests,
            lists,
        );
        Ok(SnapshotReader {
            raw: RawChunks {
                r,
                n_rows,
                rows_per_chunk,
                n_chunks,
                chunks_read: 0,
                digests: Sha256::new(),
                contract: RowContract::new(&store, &plan, meta.days),
            },
            meta,
            plan,
            store,
            tags,
        })
    }

    /// The deployment plan.
    pub fn plan(&self) -> &FarmPlan {
        &self.plan
    }

    /// Consume the reader, driving `fold` over every rows chunk, and return
    /// the metadata, plan, pools-only store shell and tags. `fold` receives
    /// the pools-only store, the plan, and one chunk of rows per call, in
    /// file order, each checked: chunk checksum, per-row enum bytes, and
    /// the row contract (every interned id resolves in its pool, the
    /// honeypot is in the plan, the client country is unknown or in the
    /// catalog, the day is below META's `days`, and no row's day precedes
    /// the day of the row before it, in this chunk or the last). The
    /// trailer is checked against the chunk digests after the last chunk,
    /// and the rows must end exactly where META starts.
    ///
    /// The stream goes through [`hf_obs::overlapped`]: unless the file has
    /// at most one chunk, a helper thread reads, checksums, decodes and
    /// checks chunk `k + 1` while the calling thread folds chunk `k` — the
    /// whole read side of the stream runs in the shadow of the fold, and
    /// results (and the *first* error, should one surface) are identical to
    /// the serial arm's.
    pub fn fold_chunks<F>(
        self,
        mut fold: F,
    ) -> Result<(SnapshotMeta, FarmPlan, SessionStore, TagDb), SnapshotError>
    where
        F: FnMut(&SessionStore, &FarmPlan, &[Row]) -> Result<(), SnapshotError>,
    {
        let SnapshotReader {
            mut raw,
            meta,
            plan,
            store,
            tags,
        } = self;
        hf_obs::overlapped(
            raw.n_chunks as usize,
            "snapshot.chunk_wait",
            [ChunkBuf::default(), ChunkBuf::default()],
            |buf| raw.next_chunk(buf, &store),
            |(), buf| fold(&store, &plan, &buf.rows),
        )?;
        hf_obs::counter!("snapshot.rows_loaded", raw.n_rows);
        Ok((meta, plan, store, tags))
    }
}

// ---------------------------------------------------------------------------
// Section encoders. All integers little-endian; lengths precede payloads.

/// META: the public run metadata, then the row count the rows section
/// holds.
fn encode_meta(meta: &SnapshotMeta, n_rows: u64, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&meta.seed.to_le_bytes());
    buf.extend_from_slice(&meta.scale_volume.to_bits().to_le_bytes());
    buf.extend_from_slice(&meta.scale_hashes.to_bits().to_le_bytes());
    buf.extend_from_slice(&meta.days.to_le_bytes());
    buf.extend_from_slice(&meta.n_clients.to_le_bytes());
    buf.extend_from_slice(&n_rows.to_le_bytes());
}

fn encode_plan(plan: &FarmPlan, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(plan.nodes.len() as u32).to_le_bytes());
    for n in &plan.nodes {
        buf.extend_from_slice(&n.id.to_le_bytes());
        buf.extend_from_slice(&n.ip.0.to_le_bytes());
        buf.extend_from_slice(&n.country.0.to_le_bytes());
        buf.extend_from_slice(&n.asn.0.to_le_bytes());
        let class = NetworkClass::ALL
            .iter()
            .position(|c| *c == n.class)
            .expect("NetworkClass::ALL is exhaustive") as u8;
        buf.push(class);
    }
}

fn encode_string_pool(pool: &StringPool, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(pool.len() as u32).to_le_bytes());
    for (_, s) in pool.iter() {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
}

fn encode_digest_pool(pool: &DigestPool, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(pool.len() as u32).to_le_bytes());
    for (_, d) in pool.iter() {
        buf.extend_from_slice(&d.0);
    }
}

fn encode_list_pool(pool: &ListPool, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(pool.len() as u32).to_le_bytes());
    for (_, list) in pool.iter() {
        buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
        for &v in list {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn encode_tags(tags: &TagDb, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(tags.len() as u64).to_le_bytes());
    for (digest, entry) in tags.entries_sorted() {
        buf.extend_from_slice(&digest.0);
        buf.extend_from_slice(&(entry.tag.len() as u32).to_le_bytes());
        buf.extend_from_slice(entry.tag.as_bytes());
        buf.extend_from_slice(&(entry.campaign.len() as u32).to_le_bytes());
        buf.extend_from_slice(entry.campaign.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Section decoders, over an in-memory, checksum-verified payload.

/// Bounds-checked reader over one section payload. Overrunning the payload
/// means a length field inside it lies about the (checksum-verified) data,
/// so overruns surface as [`SnapshotError::Corrupt`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Cursor {
            buf,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(SnapshotError::Corrupt {
                section: self.section,
                detail: format!(
                    "length field overruns payload ({} of {} bytes consumed, {n} more wanted)",
                    self.pos,
                    self.buf.len()
                ),
            }),
        }
    }

    /// Payload bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn digest(&mut self) -> Result<Digest, SnapshotError> {
        Ok(Digest(self.take(32)?.try_into().expect("len 32")))
    }

    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| SnapshotError::Corrupt {
            section: self.section,
            detail: format!("invalid utf-8 in string: {e}"),
        })
    }

    /// Every payload byte must be consumed; trailing garbage is corruption.
    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Corrupt {
                section: self.section,
                detail: format!(
                    "{} trailing bytes after section contents",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

/// META: the public run metadata, then the row count the rows section
/// holds.
fn decode_meta(cur: &mut Cursor<'_>) -> Result<(SnapshotMeta, u64), SnapshotError> {
    let meta = SnapshotMeta {
        seed: cur.u64()?,
        scale_volume: f64::from_bits(cur.u64()?),
        scale_hashes: f64::from_bits(cur.u64()?),
        days: cur.u32()?,
        n_clients: cur.u64()?,
    };
    Ok((meta, cur.u64()?))
}

fn decode_plan(cur: &mut Cursor<'_>) -> Result<FarmPlan, SnapshotError> {
    let n = cur.u32()? as usize;
    let mut nodes = Vec::with_capacity(n.min(1 << 16));
    for i in 0..n {
        let id = cur.u16()?;
        if id as usize != i {
            return Err(SnapshotError::Corrupt {
                section: "plan",
                detail: format!("node {i} carries id {id}; ids must be dense"),
            });
        }
        let ip = Ip4(cur.u32()?);
        let country = CountryId(cur.u16()?);
        if country.0 as usize >= country::count() {
            return Err(SnapshotError::Corrupt {
                section: "plan",
                detail: format!(
                    "node {i} names country {}; the catalog has {}",
                    country.0,
                    country::count()
                ),
            });
        }
        let asn = Asn(cur.u32()?);
        let class_byte = cur.u8()?;
        let class =
            *NetworkClass::ALL
                .get(class_byte as usize)
                .ok_or_else(|| SnapshotError::Corrupt {
                    section: "plan",
                    detail: format!("node {i} has unknown network class {class_byte}"),
                })?;
        nodes.push(HoneypotNode {
            id,
            ip,
            country,
            asn,
            class,
        });
    }
    Ok(FarmPlan { nodes })
}

fn decode_string_pool(cur: &mut Cursor<'_>) -> Result<StringPool, SnapshotError> {
    let n = cur.u32()?;
    let mut pool = StringPool::new();
    for i in 0..n {
        let s = cur.str()?;
        if pool.intern(s) != i {
            return Err(SnapshotError::Corrupt {
                section: cur.section,
                detail: format!("duplicate pool entry at id {i}"),
            });
        }
    }
    Ok(pool)
}

fn decode_digest_pool(cur: &mut Cursor<'_>) -> Result<DigestPool, SnapshotError> {
    let n = cur.u32()?;
    let mut pool = DigestPool::new();
    for i in 0..n {
        let d = cur.digest()?;
        if pool.intern(d) != i {
            return Err(SnapshotError::Corrupt {
                section: "digests",
                detail: format!("duplicate digest at id {i}"),
            });
        }
    }
    Ok(pool)
}

/// Decode the lists straight into the pool's arena and ranges. Id 0 must
/// be the empty list and no list may repeat; repeats are found through a
/// set of borrowed slices keyed by std's `RandomState`, because these bytes
/// come from an untrusted file.
fn decode_list_pool(cur: &mut Cursor<'_>) -> Result<ListPool, SnapshotError> {
    let n = cur.u32()?;
    if n == 0 {
        return Err(SnapshotError::Corrupt {
            section: "lists",
            detail: "list pool must contain at least the empty list".into(),
        });
    }
    // The payload is one length word per list plus the values, so it
    // bounds both reserves whatever `n` claims (and sizes a valid arena
    // exactly).
    let words = cur.remaining() / 4;
    let mut ranges = Vec::with_capacity((n as usize).min(words));
    let mut arena = Vec::with_capacity(words.saturating_sub(n as usize));
    for i in 0..n {
        let len = cur.u32()?;
        if i == 0 && len != 0 {
            return Err(SnapshotError::Corrupt {
                section: "lists",
                detail: "list id 0 must be the empty list".into(),
            });
        }
        if i > 0 && len == 0 {
            return Err(SnapshotError::Corrupt {
                section: "lists",
                detail: format!("duplicate list at id {i}"),
            });
        }
        // In range: the check below keeps every list's end within u32.
        let offset = arena.len() as u32;
        for _ in 0..len {
            arena.push(cur.u32()?);
        }
        if u32::try_from(arena.len()).is_err() {
            return Err(SnapshotError::Corrupt {
                section: "lists",
                detail: format!("list {i} ends past 2^32 pooled values"),
            });
        }
        ranges.push((offset, len));
    }
    let pool = ListPool::from_parts(arena, ranges);
    let mut seen = HashSet::with_capacity(pool.len());
    for (i, list) in pool.iter().skip(1) {
        if !seen.insert(list) {
            return Err(SnapshotError::Corrupt {
                section: "lists",
                detail: format!("duplicate list at id {i}"),
            });
        }
    }
    Ok(pool)
}

fn decode_tags(cur: &mut Cursor<'_>) -> Result<TagDb, SnapshotError> {
    let n = cur.u64()?;
    let mut tags = TagDb::new();
    for _ in 0..n {
        let digest = cur.digest()?;
        let tag = cur.str()?;
        let campaign = cur.str()?;
        tags.record(digest, tag, campaign);
    }
    // `record` is first-wins, so a duplicate digest collapses and the
    // count betrays it.
    if tags.len() as u64 != n {
        return Err(SnapshotError::Corrupt {
            section: "tags",
            detail: format!("{n} entries declared, {} distinct digests", tags.len()),
        });
    }
    Ok(tags)
}

/// Role bits of `RowContract::list_roles`, one per pool a list's entries
/// can point into. Login and command entries pack a flag in bit 0, so they
/// resolve through `>> 1`.
const CRED: u8 = 1;
const COMMAND: u8 = 2;
const URI: u8 = 4;
const DIGEST: u8 = 8;

/// What a valid row is (the module docs' row contract), decided once by
/// [`SnapshotReader::open`] and checked on every decoded chunk by
/// `RawChunks::next_chunk`.
struct RowContract {
    /// SSH version pool length.
    ssh_versions: u32,
    /// Per list id, the role bits of the pools all its entries resolve in.
    list_roles: Vec<u8>,
    /// `plan.len()`: every row's honeypot is below it.
    honeypots: usize,
    /// META's `days`: every row's day is below it.
    days: u32,
    /// The day of the last row checked, in this chunk or an earlier one.
    last_day: u32,
}

impl RowContract {
    fn new(s: &SessionStore, plan: &FarmPlan, days: u32) -> RowContract {
        // An entry resolves when it is below its pool's length, so a list's
        // largest entry decides all its roles.
        let fits = |v: u32, len: usize, role: u8| if (v as usize) < len { role } else { 0 };
        let list_roles = (s.lists.iter())
            .map(|(_, list)| match list.iter().max() {
                None => CRED | COMMAND | URI | DIGEST,
                Some(&max) => {
                    fits(max >> 1, s.creds.len(), CRED)
                        | fits(max >> 1, s.commands.len(), COMMAND)
                        | fits(max, s.uris.len(), URI)
                        | fits(max, s.digests.len(), DIGEST)
                }
            })
            .collect();
        RowContract {
            ssh_versions: s.ssh_versions.len() as u32,
            list_roles,
            honeypots: plan.len(),
            days,
            last_day: 0,
        }
    }

    /// Check one chunk's rows in file order: the first row that breaks the
    /// contract is the error. `s` holds the pools, walked only to name a
    /// dangling id.
    fn check(&mut self, rows: &[Row], s: &SessionStore) -> Result<(), SnapshotError> {
        let list_roles = &self.list_roles;
        let roles = |id: u32| list_roles.get(id as usize).copied().unwrap_or(0);
        let corrupt = |detail| SnapshotError::Corrupt {
            section: "rows",
            detail,
        };
        for row in rows {
            let ids_resolve = (row.ssh_version_id == NONE_ID
                || row.ssh_version_id < self.ssh_versions)
                && roles(row.login_list_id) & CRED != 0
                && roles(row.cmd_list_id) & COMMAND != 0
                && roles(row.uri_list_id) & URI != 0
                && roles(row.hash_list_id) & roles(row.dl_list_id) & DIGEST != 0;
            if !ids_resolve {
                dangling_id(row, s)?;
            }
            if row.honeypot as usize >= self.honeypots {
                return Err(corrupt(format!(
                    "a row names honeypot {}; the plan has {}",
                    row.honeypot, self.honeypots
                )));
            }
            if row.client_country != u16::MAX && row.client_country as usize >= country::count() {
                return Err(corrupt(format!(
                    "a row names country {}; the catalog has {}",
                    row.client_country,
                    country::count()
                )));
            }
            let day = row.start_secs / 86_400;
            if day < self.last_day {
                return Err(corrupt(format!(
                    "rows must be day-ordered; a day-{day} row follows day {}",
                    self.last_day
                )));
            }
            if day >= self.days {
                return Err(corrupt(format!(
                    "a row starts on day {day}; META states {} days",
                    self.days
                )));
            }
            self.last_day = day;
        }
        Ok(())
    }
}

/// The error path of [`RowContract::check`]: walk a row's ids in field
/// order and name the first one its pools do not hold.
fn dangling_id(row: &Row, s: &SessionStore) -> Result<(), SnapshotError> {
    let dangling = |kind, id| SnapshotError::DanglingId { kind, id };
    if row.ssh_version_id != NONE_ID && s.ssh_versions.try_get(row.ssh_version_id).is_none() {
        return Err(dangling("ssh_version", row.ssh_version_id));
    }
    for (list_id, kind, shift, len) in [
        (row.login_list_id, "cred", 1, s.creds.len()),
        (row.cmd_list_id, "command", 1, s.commands.len()),
        (row.uri_list_id, "uri", 0, s.uris.len()),
        (row.hash_list_id, "digest", 0, s.digests.len()),
        (row.dl_list_id, "digest", 0, s.digests.len()),
    ] {
        let list = (s.lists.try_get(list_id)).ok_or_else(|| dangling("list", list_id))?;
        if let Some(&v) = list.iter().find(|&&v| (v >> shift) as usize >= len) {
            return Err(dangling(kind, v >> shift));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framed reads from the underlying stream. EOF here — unlike inside a
// checksummed payload — means the file itself was cut short: `Truncated`.

fn read_exact<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    section: &'static str,
) -> Result<(), SnapshotError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated { section }
        } else {
            SnapshotError::Io(e)
        }
    })
}

fn read_array<R: Read, const N: usize>(
    r: &mut R,
    section: &'static str,
) -> Result<[u8; N], SnapshotError> {
    let mut buf = [0u8; N];
    read_exact(r, &mut buf, section)?;
    Ok(buf)
}

fn read_section<R: Read>(
    r: &mut R,
    expected_id: u32,
    name: &'static str,
) -> Result<Vec<u8>, SnapshotError> {
    let found = u32::from_le_bytes(read_array(r, name)?);
    if found != expected_id {
        return Err(SnapshotError::UnexpectedSection {
            expected: expected_id,
            found,
        });
    }
    let len = u64::from_le_bytes(read_array(r, name)?);
    let checksum: [u8; 32] = read_array(r, name)?;
    // Read through `take` in bounded chunks rather than pre-allocating
    // `len` bytes: a corrupted length field must yield `Truncated`, not a
    // giant allocation.
    let mut payload = Vec::with_capacity((len as usize).min(1 << 24));
    let got = r.take(len).read_to_end(&mut payload)?;
    if (got as u64) < len {
        return Err(SnapshotError::Truncated { section: name });
    }
    if Sha256::digest(&payload).0 != checksum {
        return Err(SnapshotError::ChecksumMismatch { section: name });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_honeypot::{EndReason, LoginAttempt, SessionRecord};
    use hf_proto::creds::Credentials;
    use hf_proto::Protocol;
    use hf_shell::CommandRecord;
    use hf_simclock::SimInstant;

    fn sample_record(hp: u16, day: u32, n: u64) -> SessionRecord {
        SessionRecord {
            honeypot: hp,
            protocol: if n.is_multiple_of(2) {
                Protocol::Ssh
            } else {
                Protocol::Telnet
            },
            client_ip: Ip4::new(16, (n >> 8) as u8, n as u8, 1),
            client_port: 40000 + (n as u16 % 1000),
            start: SimInstant::from_day_and_secs(day, (n % 86_400) as u32),
            duration_secs: 10 + (n as u32 % 90),
            ended_by: EndReason::ClientClose,
            ssh_client_version: n
                .is_multiple_of(2)
                .then(|| format!("SSH-2.0-libssh{}", n % 3)),
            logins: vec![LoginAttempt {
                creds: Credentials::new("root", if n.is_multiple_of(3) { "1234" } else { "admin" }),
                accepted: n.is_multiple_of(3),
            }],
            commands: vec![CommandRecord {
                input: format!("echo {}", n % 5),
                known: true,
            }],
            uris: if n.is_multiple_of(4) {
                vec![format!("http://evil{}.example/x", n % 7)]
            } else {
                vec![]
            },
            file_hashes: vec![Sha256::digest(&(n % 11).to_le_bytes())],
            download_hashes: if n.is_multiple_of(5) {
                vec![Sha256::digest(&(n % 13).to_le_bytes())]
            } else {
                vec![]
            },
        }
    }

    fn sample_snapshot(n_sessions: u64) -> Snapshot {
        let mut store = SessionStore::new();
        let mut tags = TagDb::new();
        for n in 0..n_sessions {
            let rec = sample_record((n % 221) as u16, (n % 30) as u32, n);
            for h in rec.file_hashes.iter().chain(rec.download_hashes.iter()) {
                tags.record(*h, if n % 2 == 0 { "mirai" } else { "unknown" }, "H1");
            }
            store.ingest(&rec, None);
        }
        Snapshot {
            meta: SnapshotMeta {
                seed: 0x7e57,
                scale_volume: 0.0005,
                scale_hashes: 0.02,
                days: 30,
                n_clients: 42,
            },
            plan: FarmPlan::paper(),
            sessions: store,
            tags,
        }
    }

    fn roundtrip(snap: &Snapshot) -> Snapshot {
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).expect("write");
        Snapshot::read_from(&mut io::Cursor::new(&bytes)).expect("read back")
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample_snapshot(200);
        let back = roundtrip(&snap);
        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.plan, snap.plan);
        assert_eq!(back.sessions.rows(), &*snap.sessions.day_ordered_rows());
        let strings = |p: &StringPool| p.iter().map(|(_, s)| s.to_string()).collect::<Vec<_>>();
        assert_eq!(strings(&back.sessions.creds), strings(&snap.sessions.creds));
        assert_eq!(
            strings(&back.sessions.commands),
            strings(&snap.sessions.commands)
        );
        assert_eq!(strings(&back.sessions.uris), strings(&snap.sessions.uris));
        assert_eq!(
            strings(&back.sessions.ssh_versions),
            strings(&snap.sessions.ssh_versions)
        );
        assert_eq!(
            back.sessions.digests.iter().collect::<Vec<_>>(),
            snap.sessions.digests.iter().collect::<Vec<_>>()
        );
        assert_eq!(back.sessions.lists.len(), snap.sessions.lists.len());
        for (id, list) in snap.sessions.lists.iter() {
            assert_eq!(back.sessions.lists.get(id), list);
        }
        assert_eq!(back.tags.len(), snap.tags.len());
        for (h, e) in snap.tags.iter() {
            assert_eq!(back.tags.tag(h), Some(e.tag.as_str()));
            assert_eq!(back.tags.campaign(h), Some(e.campaign.as_str()));
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        // Two writes of the same data — and a write of a reloaded copy —
        // are byte-identical (tags are sorted, pools are insertion-ordered).
        let snap = sample_snapshot(80);
        let mut a = Vec::new();
        let mut b = Vec::new();
        snap.write_to(&mut a).unwrap();
        snap.write_to(&mut b).unwrap();
        assert_eq!(a, b);
        let mut c = Vec::new();
        roundtrip(&snap).write_to(&mut c).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn empty_run_roundtrips() {
        let snap = sample_snapshot(0);
        let back = roundtrip(&snap);
        assert!(back.sessions.is_empty());
        assert!(back.tags.is_empty());
        assert_eq!(back.plan.len(), 221);
    }

    #[test]
    fn rebuilt_artifacts_match_collector_replay() {
        use crate::collector::Collector;
        use hf_geo::{World, WorldConfig};

        let world = World::build(1, &WorldConfig::tiny());
        let mut col = Collector::new(&world, FarmPlan::paper());
        let mut store = SessionStore::new();
        for n in 0..50 {
            let rec = sample_record(0, (n % 5) as u32, n);
            col.ingest(&rec);
            store.ingest(&rec, None);
        }
        let ds = col.finish();
        let snap = Snapshot {
            meta: sample_snapshot(0).meta,
            plan: FarmPlan::paper(),
            sessions: store,
            tags: TagDb::new(),
        };
        let rebuilt = snap.rebuild_artifacts();
        assert_eq!(rebuilt.len(), ds.artifacts.len());
        for (h, meta) in ds.artifacts.iter() {
            let r = rebuilt.get(h).expect("hash present");
            assert_eq!(r.first_seen, meta.first_seen);
            assert_eq!(r.last_seen, meta.last_seen);
            assert_eq!(r.occurrences, meta.occurrences);
        }
    }

    #[test]
    fn write_rejects_nothing_at_normal_sizes() {
        let snap = sample_snapshot(10);
        let mut out = Vec::new();
        assert!(snap.write_to(&mut out).is_ok());
        assert_eq!(&out[..8], &MAGIC);
    }

    #[test]
    fn chunked_writes_roundtrip_at_every_chunk_shape() {
        // Odd and even chunk counts, a non-dividing remainder, and a
        // single chunk: together they exercise the short last chunk, the
        // trailer over one and over many chunk digests, and the reader's
        // prefetch thread.
        let snap = sample_snapshot(100);
        for rows_per_chunk in [1u32, 3, 7, 50, 100, 1000] {
            let mut bytes = Vec::new();
            snap.write_to_chunked(&mut bytes, rows_per_chunk)
                .expect("write");
            let back = Snapshot::read_from(&mut io::Cursor::new(&bytes)).expect("read back");
            assert_eq!(
                back.sessions.rows(),
                &*snap.sessions.day_ordered_rows(),
                "rows_per_chunk={rows_per_chunk}"
            );
            assert_eq!(back.tags.len(), snap.tags.len());
            assert_eq!(back.meta, snap.meta);
        }
    }

    #[test]
    fn chunked_serialization_is_deterministic() {
        // Many chunks: the reused encode buffer must leave nothing of one
        // chunk in the next.
        let snap = sample_snapshot(90);
        let mut a = Vec::new();
        let mut b = Vec::new();
        snap.write_to_chunked(&mut a, 7).unwrap();
        snap.write_to_chunked(&mut b, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fold_chunks_visits_every_row_in_order() {
        let snap = sample_snapshot(64);
        let mut bytes = Vec::new();
        snap.write_to_chunked(&mut bytes, 5).expect("write");
        let reader = SnapshotReader::open(io::Cursor::new(&bytes)).expect("open");
        let mut seen = Vec::new();
        let (meta, _plan, store, tags) = reader
            .fold_chunks(|store, _, rows| {
                // The pools are fully usable mid-stream.
                for row in rows {
                    assert!(store.lists.try_get(row.login_list_id).is_some());
                }
                seen.extend_from_slice(rows);
                Ok(())
            })
            .expect("fold");
        assert_eq!(seen, &*snap.sessions.day_ordered_rows());
        assert_eq!(meta, snap.meta);
        assert!(store.is_empty(), "fold hands rows only to the callback");
        assert_eq!(tags.len(), snap.tags.len());
    }

    #[test]
    fn fold_chunks_propagates_the_fold_error_and_stops() {
        let snap = sample_snapshot(64);
        let mut bytes = Vec::new();
        snap.write_to_chunked(&mut bytes, 4).expect("write");
        let reader = SnapshotReader::open(io::Cursor::new(&bytes)).expect("open");
        // More than one chunk selects the overlapped arm, with chunks still
        // unread when the fold bails at the second one.
        assert!(reader.raw.n_chunks > 2);
        let mut calls = 0u32;
        let err = reader
            .fold_chunks(|_, _, _| {
                calls += 1;
                if calls == 2 {
                    Err(SnapshotError::Corrupt {
                        section: "rows",
                        detail: "fold bailed".into(),
                    })
                } else {
                    Ok(())
                }
            })
            .expect_err("fold error must propagate");
        match err {
            SnapshotError::Corrupt { section, detail } => {
                assert_eq!(section, "rows");
                assert_eq!(detail, "fold bailed");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(calls, 2, "the fold must stop at the first error");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        /// The writer's chunks do not depend on how its rows arrive: any
        /// partition of a store's rows, pushed piece by piece, gives the
        /// bytes of one push at every chunk size.
        #[test]
        fn pushing_any_partition_gives_the_bytes_of_one_push(
            cuts in proptest::collection::vec(0usize..=100, 0..12),
            shape in 0usize..6,
        ) {
            let rows_per_chunk = [1u32, 3, 7, 64, 100, 1000][shape];
            let snap = sample_snapshot(100);
            let rows = snap.sessions.day_ordered_rows();
            let mut whole = Vec::new();
            snap.write_to_chunked(&mut whole, rows_per_chunk).expect("write");
            let mut cuts = cuts;
            cuts.extend([0, rows.len()]);
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut writer = SnapshotWriter::new(&mut pieces, rows_per_chunk, None).expect("header");
            for cut in cuts.windows(2) {
                writer.push(&rows[cut[0]..cut[1]]).expect("push");
            }
            writer.finish(&snap.meta, &snap.plan, &snap.sessions, &snap.tags).expect("finish");
            proptest::prop_assert!(pieces == whole, "pieces {:?} at {rows_per_chunk} rows/chunk", cuts);
        }
    }

    /// Accepts `left` bytes, then fails every write.
    struct FailAfter {
        left: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("disk full"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_file_replaces_a_torn_snapshot() {
        let dir = std::env::temp_dir().join(format!("hf-farm-torn-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A torn snapshot under the final name and one under the temp name,
        // as a killed write leaves them.
        let path = dir.join("run.hfstore");
        std::fs::write(&path, &MAGIC[..5]).expect("stale");
        std::fs::write(dir.join("run.hfstore.tmp"), &MAGIC[..3]).expect("stale");
        let snap = sample_snapshot(50);
        snap.write_file(&path).expect("write");
        let mut want = Vec::new();
        snap.write_to(&mut want).expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), want);
        let back = Snapshot::read_file(&path).expect("load");
        assert_eq!(back.sessions.rows(), &*snap.sessions.day_ordered_rows());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, ["run.hfstore"], "no temp file remains");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failing_writer_is_a_typed_io_error() {
        let snap = sample_snapshot(64);
        let mut bytes = Vec::new();
        snap.write_to_chunked(&mut bytes, 4).expect("write");
        // 16 chunks. Cutting the output at every 97th byte lands in each of
        // them and in the sections around them.
        for left in (0..bytes.len()).step_by(97) {
            match snap.write_to_chunked(&mut FailAfter { left }, 4) {
                Err(SnapshotError::Io(e)) => assert_eq!(e.to_string(), "disk full"),
                other => panic!("expected Io at byte {left}, got {other:?}"),
            }
        }
    }
}
