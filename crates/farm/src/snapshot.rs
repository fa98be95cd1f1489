//! `hfstore` — durable, checksummed on-disk snapshots of a collected run.
//!
//! The paper's pipeline re-analyzes a fixed 15-month session database; this
//! module gives the reproduction the same workflow: `hfarm simulate` writes
//! the collected [`SessionStore`] + [`TagDb`] + deployment plan once, and
//! `hfarm report` (or any reanalysis tool) reloads it without re-simulating.
//!
//! ## Format (version 2)
//!
//! ```text
//! [magic "HFSTORE\0" : 8 bytes]
//! [format version    : u32 LE]
//! [section count     : u32 LE]
//! then, for each section in the fixed order below:
//! [section id   : u32 LE]
//! [payload len  : u64 LE]
//! [SHA-256     : 32 bytes]                     (via hf-hash)
//! [payload      : len bytes]
//! ```
//!
//! Sections, in order: META, PLAN, CREDS, COMMANDS, URIS, SSH_VERSIONS,
//! DIGESTS, LISTS, ROWS, TAGS. All integers are little-endian and
//! fixed-width; rows use the same 48-byte layout as the in-memory
//! [`Row`]. String/digest/list pools are written in insertion order and tag
//! entries sorted by digest, so snapshots of a deterministic run are
//! byte-identical across thread counts (see DESIGN.md §5).
//!
//! For every section except ROWS, the header's SHA-256 covers the payload
//! bytes and readers materialize the payload whole. The ROWS section — the
//! only one that grows with the window (~19 GB at scale 1.0) — is chunked
//! so both sides stream it in bounded memory:
//!
//! ```text
//! ROWS payload := [n_rows        : u64 LE]
//!                 [rows_per_chunk: u32 LE]     (writer uses ROWS_PER_CHUNK)
//!                 [n_chunks      : u32 LE]     (= ceil(n_rows / rows_per_chunk))
//!                 then, per chunk:
//!                 [chunk rows    : u32 LE]     (rows_per_chunk except the last)
//!                 [SHA-256 of the chunk's row bytes : 32 bytes]
//!                 [chunk rows × 48 bytes of row data]
//! ```
//!
//! The ROWS header checksum covers the *chunk manifest* — the 16-byte
//! prologue followed by every per-chunk `[rows ‖ digest]` header — not the
//! row data itself (Merkle style: the manifest authenticates the chunk
//! digests, each digest authenticates its data). A reader therefore
//! verifies each chunk the moment it arrives
//! ([`SnapshotError::ChunkChecksumMismatch`] names the failing chunk) and
//! confirms the manifest after the last one, without ever holding more
//! than one chunk; [`SnapshotReader`] is that streaming reader, and
//! [`Snapshot::read_from`] is a thin materializing wrapper over it.
//!
//! ## Error handling
//!
//! The load path never panics and never `unwrap()`s: a truncated file, bad
//! magic, unsupported version, section or chunk checksum mismatch, or
//! dangling interned id each surfaces as a distinct [`SnapshotError`]
//! variant, verified by the fault-injection suite in
//! `tests/snapshot_faults.rs`.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{mpsc, OnceLock};

use hf_geo::{Asn, CountryId, Ip4, NetworkClass};
use hf_hash::{Digest, Sha256};
use hf_honeypot::ArtifactStore;

use crate::collector::Dataset;
use crate::deployment::{FarmPlan, HoneypotNode};
use crate::intern::{DigestPool, ListPool, StringPool, MAX_POOL_LEN, NONE_ID};
use crate::store::{Row, SessionStore};
use crate::tags::TagDb;

/// File magic: identifies an hfstore snapshot.
pub const MAGIC: [u8; 8] = *b"HFSTORE\0";

/// Current format version. Bump on any layout change; readers reject other
/// versions with [`SnapshotError::UnsupportedVersion`]. Version 2 chunked
/// the ROWS section (see the module docs); version-1 files are no longer
/// readable.
pub const FORMAT_VERSION: u32 = 2;

/// Rows per chunk the writer emits: 65 536 rows × 48 bytes = 3 MiB of row
/// data per chunk. Readers accept any `rows_per_chunk` up to
/// [`MAX_ROWS_PER_CHUNK`], so this can be retuned without a format bump.
pub const ROWS_PER_CHUNK: u32 = 1 << 16;

/// Upper bound on a file's declared `rows_per_chunk` (48 MiB of row data):
/// the streaming reader's per-chunk allocation is bounded by this, so a
/// hostile prologue cannot force a giant buffer.
pub const MAX_ROWS_PER_CHUNK: u32 = 1 << 20;

/// Serialized row width. The on-disk layout mirrors the in-memory [`Row`]
/// field-for-field, so encode/decode are fixed-offset views over 48-byte
/// records (no per-field cursor, no intermediate copies).
const ROW_BYTES: usize = 48;
const _: () = assert!(std::mem::size_of::<Row>() == ROW_BYTES);

/// Bytes of per-chunk header inside the ROWS payload: u32 row count +
/// 32-byte chunk digest.
const CHUNK_HEADER_LEN: usize = 4 + 32;

/// Chunks [`overlapped`] keeps in flight: the helper stage works on chunk
/// `k + 1` while the calling thread consumes chunk `k`, double-buffered
/// through a recycle channel (two buffers total).
const OVERLAP_DEPTH: usize = 2;

/// `HF_SNAPSHOT_NO_OVERLAP=1` keeps [`overlapped`] on its bit-identical
/// serial arm (checked once, like `HF_HASH_FORCE_SCALAR`).
fn overlap_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| {
        std::env::var_os("HF_SNAPSHOT_NO_OVERLAP").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// The one chunk pipeline of the reader and the writer: `produce` fills a
/// buffer with chunk `k + 1` (returning its tag, or `None` after the last
/// chunk) while `consume` works on chunk `k`. With at most one of `chunks`
/// left, or under `HF_SNAPSHOT_NO_OVERLAP`, both run on the calling thread
/// over `bufs[0]`; otherwise `produce` runs on a helper thread and the
/// buffers rotate through a recycle channel. Chunks are consumed strictly
/// in production order, so `consume` sees the same bytes in the same order
/// on either arm, and the first error — from either closure — is the one
/// the serial arm would have hit first.
///
/// Time the calling thread spends blocked on the helper is recorded in the
/// `snapshot.chunk_wait` span: a large share of the wall time means the
/// producer (disk, hash or encode) is the bottleneck; near zero, the
/// consumer is.
fn overlapped<T: Send>(
    chunks: usize,
    bufs: [Vec<u8>; OVERLAP_DEPTH],
    mut produce: impl FnMut(&mut Vec<u8>) -> Result<Option<T>, SnapshotError> + Send,
    mut consume: impl FnMut(T, &[u8]) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    if chunks <= 1 || overlap_disabled() {
        let [mut buf, _] = bufs;
        while let Some(tag) = produce(&mut buf)? {
            consume(tag, &buf)?;
        }
        return Ok(());
    }
    std::thread::scope(|s| {
        let (full_tx, full_rx) =
            mpsc::sync_channel::<Result<(T, Vec<u8>), SnapshotError>>(OVERLAP_DEPTH);
        let (free_tx, free_rx) = mpsc::channel::<Vec<u8>>();
        for buf in bufs {
            let _ = free_tx.send(buf);
        }
        s.spawn(move || {
            // Either channel closing means the consumer bailed: stop.
            while let Ok(mut buf) = free_rx.recv() {
                let msg = match produce(&mut buf) {
                    Ok(Some(tag)) => Ok((tag, buf)),
                    Ok(None) => break, // dropping full_tx ends the consumer
                    Err(e) => Err(e),
                };
                let failed = msg.is_err();
                if full_tx.send(msg).is_err() || failed {
                    break;
                }
            }
            // What `produce` recorded (hash throughput) is on this thread.
            hf_obs::flush();
        });
        // Returning, early or not, drops both channel ends, which unblocks
        // a helper that is mid-send or waiting for a buffer; the scope then
        // joins it.
        loop {
            let msg = {
                let _wait = hf_obs::span!("snapshot.chunk_wait");
                full_rx.recv()
            };
            let Ok(msg) = msg else { return Ok(()) };
            let (tag, buf) = msg?;
            consume(tag, &buf)?;
            let _ = free_tx.send(buf);
        }
    })
}

/// Bytes of ROWS-payload prologue: u64 row count + u32 rows-per-chunk +
/// u32 chunk count.
const ROWS_PROLOGUE_LEN: usize = 8 + 4 + 4;

/// `(section id, section name)` in on-disk order. Section ids are part of
/// the format; names appear in error messages and tests.
pub const SECTIONS: [(u32, &str); 10] = [
    (1, "meta"),
    (2, "plan"),
    (3, "creds"),
    (4, "commands"),
    (5, "uris"),
    (6, "ssh_versions"),
    (7, "digests"),
    (8, "lists"),
    (9, "rows"),
    (10, "tags"),
];

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
        /// file header).
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
    /// Write the snapshot to `w` in hfstore format.
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
        assert!(
            (1..=MAX_ROWS_PER_CHUNK).contains(&rows_per_chunk),
            "rows_per_chunk {rows_per_chunk} outside 1..={MAX_ROWS_PER_CHUNK}"
        );
        let s = &self.sessions;
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
        hf_obs::counter!("snapshot.rows_written", s.len() as u64);

        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(SECTIONS.len() as u32).to_le_bytes())?;
        // File preamble: magic + u32 version + u32 section count.
        hf_obs::counter!("snapshot.bytes_written", (MAGIC.len() + 4 + 4) as u64);

        let mut buf = Vec::new();
        for (id, name) in SECTIONS {
            let _sec = hf_obs::span_owned_with(|| format!("snapshot.write.{name}"));
            if name == "rows" {
                // The one section that grows with the window: stream it in
                // bounded chunks instead of building a multi-GB payload.
                let payload_len = write_rows_section(w, id, s.rows(), rows_per_chunk)?;
                hf_obs::observe!("snapshot.section_bytes", payload_len);
                hf_obs::counter!("snapshot.bytes_written", payload_len + 4 + 8 + 32);
                continue;
            }
            buf.clear();
            match name {
                "meta" => self.encode_meta(&mut buf),
                "plan" => encode_plan(&self.plan, &mut buf),
                "creds" => encode_string_pool(&s.creds, &mut buf),
                "commands" => encode_string_pool(&s.commands, &mut buf),
                "uris" => encode_string_pool(&s.uris, &mut buf),
                "ssh_versions" => encode_string_pool(&s.ssh_versions, &mut buf),
                "digests" => encode_digest_pool(&s.digests, &mut buf),
                "lists" => encode_list_pool(&s.lists, &mut buf),
                "tags" => encode_tags(&self.tags, &mut buf),
                _ => unreachable!("section table is exhaustive"),
            }
            hf_obs::observe!("snapshot.section_bytes", buf.len());
            // Section header: u32 id + u64 length + 32-byte checksum.
            hf_obs::counter!("snapshot.bytes_written", (buf.len() + 4 + 8 + 32) as u64);
            w.write_all(&id.to_le_bytes())?;
            w.write_all(&(buf.len() as u64).to_le_bytes())?;
            w.write_all(&Sha256::digest(&buf).0)?;
            w.write_all(&buf)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Write the snapshot to a file (buffered).
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_to(&mut w)
    }

    /// Read a snapshot from `r`, validating magic, version, section and
    /// chunk checksums, and every interned id a row references.
    ///
    /// A materializing wrapper over [`SnapshotReader`]: rows accumulate
    /// into one `Vec`, so memory grows with the file. Analyses that only
    /// need a fold over the rows should drive [`SnapshotReader`] directly.
    pub fn read_from<R: Read + Send>(r: &mut R) -> Result<Snapshot, SnapshotError> {
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

    fn encode_meta(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.meta.seed.to_le_bytes());
        buf.extend_from_slice(&self.meta.scale_volume.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.meta.scale_hashes.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.meta.days.to_le_bytes());
        buf.extend_from_slice(&self.meta.n_clients.to_le_bytes());
        buf.extend_from_slice(&(self.sessions.len() as u64).to_le_bytes());
    }
}

/// The "rows must be day-ordered" rule of every incremental consumer of
/// [`SnapshotReader::fold_chunks`]: a day-windowed fold cannot go back a
/// day, so a row that precedes its predecessor's day is reported as
/// [`SnapshotError::Corrupt`] instead of being folded into wrong results.
/// Every runner-produced snapshot is day-ordered.
pub struct DayOrder {
    consumer: &'static str,
    last_day: u32,
}

impl DayOrder {
    /// A guard whose error names `consumer` (e.g. `"streaming fold"`).
    pub fn new(consumer: &'static str) -> Self {
        DayOrder {
            consumer,
            last_day: 0,
        }
    }

    /// Admit the next row's day, or refuse it if it goes backwards.
    pub fn check(&mut self, day: u32) -> Result<(), SnapshotError> {
        if day < self.last_day {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!(
                    "{} requires day-ordered rows; a day-{day} row follows day {}",
                    self.consumer, self.last_day
                ),
            });
        }
        self.last_day = day;
        Ok(())
    }
}

/// META plus the row count cross-check it carries.
struct DecodedMeta {
    public: SnapshotMeta,
    n_rows: u64,
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
/// (meta, plan, pools) are materialized by [`SnapshotReader::open`]; the
/// rows section is then consumed one verified chunk at a time through
/// [`SnapshotReader::next_chunk`]; [`SnapshotReader::finish`] reads the
/// tags and hands back the pools-only [`SessionStore`] shell. Peak memory
/// is the pools plus a single chunk — never the whole rows section.
///
/// Rows handed out by `next_chunk` are already fully validated (chunk
/// checksum, enum bytes, interned ids against the pools), so
/// [`SessionStore::view_row`] against [`SnapshotReader::store`] is safe:
///
/// ```no_run
/// # fn main() -> Result<(), hf_farm::SnapshotError> {
/// # let file = std::io::empty();
/// let mut reader = hf_farm::SnapshotReader::open(file)?;
/// let mut rows = Vec::new();
/// while reader.next_chunk(&mut rows)? {
///     for row in &rows {
///         let _view = reader.store().view_row(row);
///         // … fold the session …
///     }
/// }
/// let (meta, plan, shell, tags) = reader.finish()?;
/// # Ok(()) }
/// ```
pub struct SnapshotReader<R: Read> {
    /// The stream-position half: underlying reader, chunk cursor, and
    /// manifest re-accumulation. Split out so the overlapped fold can hand
    /// it to a prefetch thread while decode/validate stays on the caller's
    /// thread (see [`SnapshotReader::fold_chunks`]).
    raw: RawChunks<R>,
    meta: DecodedMeta,
    plan: FarmPlan,
    /// Pools-only shell; rows stay with the caller.
    store: SessionStore,
    /// Already-validated interned ids, so repeated list references cost a
    /// bit test instead of a pool walk.
    memo: ValidationMemo,
    /// Reusable raw-bytes buffer for one chunk.
    data_buf: Vec<u8>,
    rows_done: bool,
}

/// The raw, row-agnostic half of the streaming reader: reads one chunk at
/// a time from the underlying stream, verifies its checksum, and
/// re-accumulates the chunk manifest. Owns everything a prefetch thread
/// needs — and nothing the decode/validate/fold side touches.
struct RawChunks<R: Read> {
    r: R,
    /// Header checksum of the rows section = SHA-256 of the chunk manifest.
    rows_checksum: [u8; 32],
    rows_per_chunk: u32,
    n_chunks: u32,
    n_rows: u64,
    chunks_read: u32,
    rows_read: u64,
    /// Prologue + per-chunk headers, re-accumulated while streaming and
    /// verified against `rows_checksum` after the last chunk.
    manifest: Vec<u8>,
}

impl<R: Read> RawChunks<R> {
    /// Read and checksum-verify the next raw chunk into `buf` (replacing
    /// its contents), returning its row count — or `None` once every chunk
    /// has been consumed and the manifest has verified against the section
    /// checksum.
    fn next_raw(&mut self, buf: &mut Vec<u8>) -> Result<Option<u32>, SnapshotError> {
        if self.chunks_read == self.n_chunks {
            if Sha256::digest(&self.manifest).0 != self.rows_checksum {
                return Err(SnapshotError::ChecksumMismatch { section: "rows" });
            }
            return Ok(None);
        }
        let idx = self.chunks_read;
        let chunk_rows = u32::from_le_bytes(read_array(&mut self.r, "rows")?);
        let digest: [u8; 32] = read_array(&mut self.r, "rows")?;
        // Every chunk is full except the last; the expected count is fully
        // determined by the validated prologue, so a header that disagrees
        // is structural corruption, not just a checksum problem.
        let expected = (self.n_rows - self.rows_read).min(self.rows_per_chunk as u64);
        if chunk_rows as u64 != expected {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!("chunk {idx} declares {chunk_rows} rows, expected {expected}"),
            });
        }
        buf.clear();
        buf.resize(chunk_rows as usize * ROW_BYTES, 0);
        read_exact(&mut self.r, buf, "rows")?;
        if Sha256::digest(buf).0 != digest {
            return Err(SnapshotError::ChunkChecksumMismatch {
                section: "rows",
                chunk: idx,
            });
        }
        self.manifest.extend_from_slice(&chunk_rows.to_le_bytes());
        self.manifest.extend_from_slice(&digest);
        self.chunks_read += 1;
        self.rows_read += chunk_rows as u64;
        Ok(Some(chunk_rows))
    }
}

impl<R: Read> SnapshotReader<R> {
    /// Open a snapshot stream: validate the header, materialize the meta /
    /// plan / pool sections, and position the stream at the first rows
    /// chunk (validating the rows prologue against the section length and
    /// the meta row count).
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

        let meta = read_decoded_section(&mut r, 0, decode_meta)?;
        let plan = read_decoded_section(&mut r, 1, decode_plan)?;
        let creds = read_decoded_section(&mut r, 2, decode_string_pool)?;
        let commands = read_decoded_section(&mut r, 3, decode_string_pool)?;
        let uris = read_decoded_section(&mut r, 4, decode_string_pool)?;
        let ssh_versions = read_decoded_section(&mut r, 5, decode_string_pool)?;
        let digests = read_decoded_section(&mut r, 6, decode_digest_pool)?;
        let lists = read_decoded_section(&mut r, 7, decode_list_pool)?;

        // Rows section header + prologue. Every prologue field is
        // cross-checked structurally here; the manifest checksum after the
        // last chunk then confirms the bytes themselves.
        let (rows_id, _) = SECTIONS[8];
        let found = u32::from_le_bytes(read_array(&mut r, "rows")?);
        if found != rows_id {
            return Err(SnapshotError::UnexpectedSection {
                expected: rows_id,
                found,
            });
        }
        let payload_len = u64::from_le_bytes(read_array(&mut r, "rows")?);
        let rows_checksum: [u8; 32] = read_array(&mut r, "rows")?;
        let n_rows = u64::from_le_bytes(read_array(&mut r, "rows")?);
        let rows_per_chunk = u32::from_le_bytes(read_array(&mut r, "rows")?);
        let n_chunks = u32::from_le_bytes(read_array(&mut r, "rows")?);
        if rows_per_chunk == 0 || rows_per_chunk > MAX_ROWS_PER_CHUNK {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!("rows_per_chunk {rows_per_chunk} outside 1..={MAX_ROWS_PER_CHUNK}"),
            });
        }
        let expected_chunks = n_rows.div_ceil(rows_per_chunk as u64);
        if n_chunks as u64 != expected_chunks {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!(
                    "{n_chunks} chunks declared; {n_rows} rows at {rows_per_chunk}/chunk \
                     need {expected_chunks}"
                ),
            });
        }
        if meta.n_rows != n_rows {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!("meta declares {} rows, prologue {n_rows}", meta.n_rows),
            });
        }
        let expected_len =
            ROWS_PROLOGUE_LEN as u64 + n_chunks as u64 * CHUNK_HEADER_LEN as u64 + n_rows * 48;
        if payload_len != expected_len {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!(
                    "payload length {payload_len} disagrees with prologue \
                     (expected {expected_len})"
                ),
            });
        }
        // Re-accumulate the manifest as chunks stream by; growth is bounded
        // by bytes actually read, so a lying n_chunks cannot balloon it.
        // The reserve is capped for the same reason: n_chunks is a header
        // field, and the declared chunks need not exist.
        let mut manifest = Vec::with_capacity(
            ROWS_PROLOGUE_LEN + (n_chunks as usize).min(1 << 16) * CHUNK_HEADER_LEN,
        );
        manifest.extend_from_slice(&n_rows.to_le_bytes());
        manifest.extend_from_slice(&rows_per_chunk.to_le_bytes());
        manifest.extend_from_slice(&n_chunks.to_le_bytes());

        let memo = ValidationMemo::new(ssh_versions.len(), lists.len());
        Ok(SnapshotReader {
            raw: RawChunks {
                r,
                rows_checksum,
                rows_per_chunk,
                n_chunks,
                n_rows,
                chunks_read: 0,
                rows_read: 0,
                manifest,
            },
            meta,
            plan,
            store: SessionStore::from_parts(
                Vec::new(),
                creds,
                commands,
                uris,
                ssh_versions,
                digests,
                lists,
            ),
            memo,
            data_buf: Vec::new(),
            rows_done: false,
        })
    }

    /// Run-level metadata.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta.public
    }

    /// The deployment plan.
    pub fn plan(&self) -> &FarmPlan {
        &self.plan
    }

    /// The pools-only store shell rows from [`SnapshotReader::next_chunk`]
    /// resolve against (via [`SessionStore::view_row`]).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// Total rows the snapshot declares.
    pub fn n_rows(&self) -> u64 {
        self.meta.n_rows
    }

    /// Rows verified and handed out so far.
    pub fn rows_read(&self) -> u64 {
        self.raw.rows_read
    }

    /// Read the next rows chunk into `rows` (replacing its contents).
    /// Returns `false` once every chunk has been consumed and the chunk
    /// manifest has verified against the section checksum. Each returned
    /// chunk is fully validated: chunk checksum, per-row enum bytes, and
    /// every interned id resolved against the pools.
    pub fn next_chunk(&mut self, rows: &mut Vec<Row>) -> Result<bool, SnapshotError> {
        rows.clear();
        if self.rows_done {
            return Ok(false);
        }
        match self.raw.next_raw(&mut self.data_buf)? {
            None => {
                self.rows_done = true;
                Ok(false)
            }
            Some(chunk_rows) => {
                decode_row_chunk(&self.data_buf, chunk_rows as usize, rows)?;
                validate_rows(rows, &self.store, &mut self.memo)?;
                Ok(true)
            }
        }
    }

    /// Consume the reader, driving `fold` over every remaining rows chunk,
    /// then read the tags section and return what [`SnapshotReader::finish`]
    /// returns. `fold` receives the pools-only store, the plan, and one
    /// fully-validated chunk of rows per call, in file order.
    ///
    /// The stream goes through [`overlapped`]: unless
    /// `HF_SNAPSHOT_NO_OVERLAP` is set (or at most one chunk remains), a
    /// helper thread reads and checksums chunk `k + 1` while the calling
    /// thread decodes, validates, and folds chunk `k` — the read + SHA-256
    /// side of the stream runs in the shadow of the fold, and results (and
    /// the *first* error, should one surface) are identical to the serial
    /// arm's.
    pub fn fold_chunks<F>(
        self,
        mut fold: F,
    ) -> Result<(SnapshotMeta, FarmPlan, SessionStore, TagDb), SnapshotError>
    where
        R: Send,
        F: FnMut(&SessionStore, &FarmPlan, &[Row]) -> Result<(), SnapshotError>,
    {
        let SnapshotReader {
            mut raw,
            meta,
            plan,
            store,
            mut memo,
            data_buf,
            ..
        } = self;
        let mut rows: Vec<Row> = Vec::new();
        overlapped(
            (raw.n_chunks - raw.chunks_read) as usize,
            [data_buf, Vec::new()],
            |buf| raw.next_raw(buf),
            |chunk_rows, buf| {
                rows.clear();
                decode_row_chunk(buf, chunk_rows as usize, &mut rows)?;
                validate_rows(&rows, &store, &mut memo)?;
                fold(&store, &plan, &rows)
            },
        )?;
        let tags = read_decoded_section(&mut raw.r, 9, decode_tags)?;
        hf_obs::counter!("snapshot.rows_loaded", raw.rows_read);
        Ok((meta.public, plan, store, tags))
    }

    /// Finish the stream: drain (and verify) any rows chunks the caller
    /// did not consume, read the tags section, and return the metadata,
    /// plan, pools-only store shell, and tags.
    pub fn finish(
        mut self,
    ) -> Result<(SnapshotMeta, FarmPlan, SessionStore, TagDb), SnapshotError> {
        let mut rest = Vec::new();
        while self.next_chunk(&mut rest)? {}
        let tags = read_decoded_section(&mut self.raw.r, 9, decode_tags)?;
        hf_obs::counter!("snapshot.rows_loaded", self.raw.rows_read);
        Ok((self.meta.public, self.plan, self.store, tags))
    }
}

// ---------------------------------------------------------------------------
// Section encoders. All integers little-endian; lengths precede payloads.

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

/// Append `rows` to `buf` in the fixed 48-byte on-disk layout: the buffer
/// is sized once, then filled through fixed-offset slice views over each
/// record — a flat memcpy-style pass with no per-field growth checks and
/// no steady-state allocation once the buffer has reached chunk capacity.
fn encode_row_chunk(rows: &[Row], buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.resize(start + rows.len() * ROW_BYTES, 0);
    for (r, out) in rows.iter().zip(buf[start..].chunks_exact_mut(ROW_BYTES)) {
        out[0..4].copy_from_slice(&r.start_secs.to_le_bytes());
        out[4..8].copy_from_slice(&r.duration_secs.to_le_bytes());
        out[8..10].copy_from_slice(&r.honeypot.to_le_bytes());
        out[10..12].copy_from_slice(&r.client_port.to_le_bytes());
        out[12..16].copy_from_slice(&r.client_ip.to_le_bytes());
        out[16..20].copy_from_slice(&r.client_asn.to_le_bytes());
        out[20..22].copy_from_slice(&r.client_country.to_le_bytes());
        out[22] = r.protocol;
        out[23] = r.end_reason;
        out[24..28].copy_from_slice(&r.ssh_version_id.to_le_bytes());
        out[28..32].copy_from_slice(&r.login_list_id.to_le_bytes());
        out[32..36].copy_from_slice(&r.cmd_list_id.to_le_bytes());
        out[36..40].copy_from_slice(&r.uri_list_id.to_le_bytes());
        out[40..44].copy_from_slice(&r.hash_list_id.to_le_bytes());
        out[44..48].copy_from_slice(&r.dl_list_id.to_le_bytes());
    }
}

/// The chunk manifest of a rows section: the 16-byte prologue followed by
/// every per-chunk `[row count ‖ digest]` header, in order. These are
/// exactly the non-row-data payload bytes, and the section header's
/// checksum is the SHA-256 of this manifest (module docs).
///
/// This pass is hash-bound, so consecutive chunks are encoded into two
/// ping-pong buffers and digested as a pair through [`Sha256::digest_many`],
/// which routes to the interleaved two-buffer SHA-NI backend when the CPU
/// has one — close to twice the single-stream checksum rate.
fn rows_manifest(rows: &[Row], rows_per_chunk: u32) -> Vec<u8> {
    let n_chunks = rows.len().div_ceil(rows_per_chunk as usize);
    let mut manifest = Vec::with_capacity(ROWS_PROLOGUE_LEN + n_chunks * CHUNK_HEADER_LEN);
    manifest.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    manifest.extend_from_slice(&rows_per_chunk.to_le_bytes());
    manifest.extend_from_slice(&(n_chunks as u32).to_le_bytes());
    let mut buf_a = Vec::new();
    let mut buf_b = Vec::new();
    let mut digests = Vec::with_capacity(2);
    let mut chunks = rows.chunks(rows_per_chunk as usize);
    while let Some(a) = chunks.next() {
        buf_a.clear();
        encode_row_chunk(a, &mut buf_a);
        digests.clear();
        let b = chunks.next();
        if let Some(b) = b {
            buf_b.clear();
            encode_row_chunk(b, &mut buf_b);
            Sha256::digest_many([buf_a.as_slice(), buf_b.as_slice()], &mut digests);
        } else {
            digests.push(Sha256::digest(&buf_a));
        }
        for (chunk, digest) in [Some(a), b].into_iter().flatten().zip(&digests) {
            manifest.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            manifest.extend_from_slice(&digest.0);
        }
    }
    manifest
}

/// Write the framed rows section: header, prologue, then one chunk at a
/// time — peak memory is a couple of encoded chunks (3 MiB each) plus the
/// manifest, regardless of row count. Returns the payload length.
///
/// The manifest-first Merkle layout means every chunk digest must be known
/// before any row byte can be written, so checksumming cannot overlap the
/// write-out of the *same* pass. Instead each pass overlaps with encoding:
/// the digest pass pairs chunks through the multi-buffer hash backend
/// ([`rows_manifest`]), and the write pass encodes chunk `k + 1` while
/// chunk `k` drains to the file ([`overlapped`]).
fn write_rows_section<W: Write>(
    w: &mut W,
    id: u32,
    rows: &[Row],
    rows_per_chunk: u32,
) -> Result<u64, SnapshotError> {
    let manifest = rows_manifest(rows, rows_per_chunk);
    let payload_len = manifest.len() as u64 + rows.len() as u64 * ROW_BYTES as u64;
    w.write_all(&id.to_le_bytes())?;
    w.write_all(&payload_len.to_le_bytes())?;
    w.write_all(&Sha256::digest(&manifest).0)?;
    w.write_all(&manifest[..ROWS_PROLOGUE_LEN])?;
    let mut chunks = rows.chunks(rows_per_chunk as usize);
    let mut headers = manifest[ROWS_PROLOGUE_LEN..].chunks_exact(CHUNK_HEADER_LEN);
    overlapped(
        chunks.len(),
        [Vec::new(), Vec::new()],
        |buf| {
            Ok(chunks.next().map(|chunk| {
                buf.clear();
                encode_row_chunk(chunk, buf);
            }))
        },
        |(), buf| {
            w.write_all(headers.next().expect("one manifest header per chunk"))?;
            w.write_all(buf)?;
            Ok(())
        },
    )?;
    Ok(payload_len)
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

fn decode_meta(cur: &mut Cursor<'_>) -> Result<DecodedMeta, SnapshotError> {
    let seed = cur.u64()?;
    let scale_volume = f64::from_bits(cur.u64()?);
    let scale_hashes = f64::from_bits(cur.u64()?);
    let days = cur.u32()?;
    let n_clients = cur.u64()?;
    let n_rows = cur.u64()?;
    Ok(DecodedMeta {
        public: SnapshotMeta {
            seed,
            scale_volume,
            scale_hashes,
            days,
            n_clients,
        },
        n_rows,
    })
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

fn decode_list_pool(cur: &mut Cursor<'_>) -> Result<ListPool, SnapshotError> {
    let n = cur.u32()?;
    if n == 0 {
        return Err(SnapshotError::Corrupt {
            section: "lists",
            detail: "list pool must contain at least the empty list".into(),
        });
    }
    let mut pool = ListPool::new(); // pre-interns [] as id 0
    let mut list = Vec::new();
    for i in 0..n {
        let len = cur.u32()? as usize;
        list.clear();
        for _ in 0..len {
            list.push(cur.u32()?);
        }
        if i == 0 {
            if !list.is_empty() {
                return Err(SnapshotError::Corrupt {
                    section: "lists",
                    detail: "list id 0 must be the empty list".into(),
                });
            }
            continue;
        }
        if pool.intern(&list) != i {
            return Err(SnapshotError::Corrupt {
                section: "lists",
                detail: format!("duplicate list at id {i}"),
            });
        }
    }
    Ok(pool)
}

/// Decode one checksum-verified chunk of `n` rows (exactly `n ×`
/// [`ROW_BYTES`] bytes) into `rows`, validating the per-row enum bytes.
/// Each row is read through fixed-offset views over its 48-byte record —
/// the mirror of [`encode_row_chunk`], with no per-field cursor.
fn decode_row_chunk(data: &[u8], n: usize, rows: &mut Vec<Row>) -> Result<(), SnapshotError> {
    #[inline]
    fn u16_at(raw: &[u8], at: usize) -> u16 {
        u16::from_le_bytes(raw[at..at + 2].try_into().expect("len 2"))
    }
    #[inline]
    fn u32_at(raw: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(raw[at..at + 4].try_into().expect("len 4"))
    }
    if data.len() != n * ROW_BYTES {
        return Err(SnapshotError::Corrupt {
            section: "rows",
            detail: format!("chunk holds {} bytes for {n} rows", data.len()),
        });
    }
    rows.reserve(n);
    for raw in data.chunks_exact(ROW_BYTES) {
        let protocol = raw[22];
        let end_reason = raw[23];
        if protocol > 1 {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!("protocol byte {protocol} (0 = SSH, 1 = Telnet)"),
            });
        }
        if end_reason > 2 {
            return Err(SnapshotError::Corrupt {
                section: "rows",
                detail: format!("end_reason byte {end_reason} (0..=2)"),
            });
        }
        rows.push(Row {
            start_secs: u32_at(raw, 0),
            duration_secs: u32_at(raw, 4),
            honeypot: u16_at(raw, 8),
            client_port: u16_at(raw, 10),
            client_ip: u32_at(raw, 12),
            client_asn: u32_at(raw, 16),
            client_country: u16_at(raw, 20),
            protocol,
            end_reason,
            ssh_version_id: u32_at(raw, 24),
            login_list_id: u32_at(raw, 28),
            cmd_list_id: u32_at(raw, 32),
            uri_list_id: u32_at(raw, 36),
            hash_list_id: u32_at(raw, 40),
            dl_list_id: u32_at(raw, 44),
        });
    }
    Ok(())
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

/// A plain `Vec<u64>` bitmap keyed by interned id. Ids beyond the domain
/// (i.e. dangling) fall outside the words and always test false — they are
/// never memoized, so the pool lookup still runs and reports them.
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn for_ids(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Test the bit for `id`, setting it as a side effect; returns the
    /// previous value.
    fn test_and_set(&mut self, id: u32) -> bool {
        match self.words.get_mut(id as usize / 64) {
            Some(w) => {
                let mask = 1u64 << (id % 64);
                let seen = *w & mask != 0;
                *w |= mask;
                seen
            }
            None => false,
        }
    }
}

/// Memo of interned ids [`validate_rows`] has already walked. Rows repeat
/// list ids constantly (every failed-login session in a campaign shares a
/// handful of credential lists), so each distinct (role, id) pair is
/// validated once and afterwards answered with a bit test — amortized O(1)
/// per row instead of a pool walk per row. Sized to the pools at
/// [`SnapshotReader::open`]; zero allocations while streaming.
struct ValidationMemo {
    ssh: BitSet,
    login: BitSet,
    cmd: BitSet,
    uri: BitSet,
    /// Hash and download lists resolve against the same digest pool, so
    /// one memo serves both roles.
    digest: BitSet,
}

impl ValidationMemo {
    fn new(n_ssh_versions: usize, n_lists: usize) -> ValidationMemo {
        ValidationMemo {
            ssh: BitSet::for_ids(n_ssh_versions),
            login: BitSet::for_ids(n_lists),
            cmd: BitSet::for_ids(n_lists),
            uri: BitSet::for_ids(n_lists),
            digest: BitSet::for_ids(n_lists),
        }
    }
}

/// Check that every pool id a row references resolves — the "dangling
/// intern id" class of corruption a checksum cannot catch (a consistent
/// snapshot re-encoded with a hostile tool, or a bug in a foreign writer).
/// `memo` carries the already-validated ids across chunks.
fn validate_rows(
    rows: &[Row],
    store: &SessionStore,
    memo: &mut ValidationMemo,
) -> Result<(), SnapshotError> {
    let dangling = |kind, id| SnapshotError::DanglingId { kind, id };
    for row in rows {
        if row.ssh_version_id != NONE_ID
            && !memo.ssh.test_and_set(row.ssh_version_id)
            && store.ssh_versions.try_get(row.ssh_version_id).is_none()
        {
            return Err(dangling("ssh_version", row.ssh_version_id));
        }
        if !memo.login.test_and_set(row.login_list_id) {
            let list = store
                .lists
                .try_get(row.login_list_id)
                .ok_or_else(|| dangling("list", row.login_list_id))?;
            for &packed in list {
                if store.creds.try_get(packed >> 1).is_none() {
                    return Err(dangling("cred", packed >> 1));
                }
            }
        }
        if !memo.cmd.test_and_set(row.cmd_list_id) {
            let list = store
                .lists
                .try_get(row.cmd_list_id)
                .ok_or_else(|| dangling("list", row.cmd_list_id))?;
            for &packed in list {
                if store.commands.try_get(packed >> 1).is_none() {
                    return Err(dangling("command", packed >> 1));
                }
            }
        }
        if !memo.uri.test_and_set(row.uri_list_id) {
            let list = store
                .lists
                .try_get(row.uri_list_id)
                .ok_or_else(|| dangling("list", row.uri_list_id))?;
            for &id in list {
                if store.uris.try_get(id).is_none() {
                    return Err(dangling("uri", id));
                }
            }
        }
        for list_id in [row.hash_list_id, row.dl_list_id] {
            if !memo.digest.test_and_set(list_id) {
                let list = store
                    .lists
                    .try_get(list_id)
                    .ok_or_else(|| dangling("list", list_id))?;
                for &id in list {
                    if store.digests.try_get(id).is_none() {
                        return Err(dangling("digest", id));
                    }
                }
            }
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
        Snapshot::read_from(&mut bytes.as_slice()).expect("read back")
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample_snapshot(200);
        let back = roundtrip(&snap);
        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.plan, snap.plan);
        assert_eq!(back.sessions.rows(), snap.sessions.rows());
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
    fn day_order_refuses_a_backward_day_and_names_the_consumer() {
        let mut order = DayOrder::new("streaming fold");
        for day in [0, 3, 3] {
            order.check(day).expect("non-decreasing days pass");
        }
        let err = order.check(2).expect_err("day 2 after day 3").to_string();
        assert!(
            err.contains("streaming fold requires day-ordered rows; a day-2 row follows day 3"),
            "{err}"
        );
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
        // single chunk: together they exercise the writer's pairwise
        // digest batching (with and without an odd tail), the encode-ahead
        // write pass, and the reader's prefetch thread.
        let snap = sample_snapshot(100);
        for rows_per_chunk in [1u32, 3, 7, 50, 100, 1000] {
            let mut bytes = Vec::new();
            snap.write_to_chunked(&mut bytes, rows_per_chunk)
                .expect("write");
            let back = Snapshot::read_from(&mut bytes.as_slice()).expect("read back");
            assert_eq!(
                back.sessions.rows(),
                snap.sessions.rows(),
                "rows_per_chunk={rows_per_chunk}"
            );
            assert_eq!(back.tags.len(), snap.tags.len());
            assert_eq!(back.meta, snap.meta);
        }
    }

    #[test]
    fn chunked_serialization_is_deterministic() {
        // The overlapped write pass must emit the same bytes as any other
        // write of the same data — buffers rotate, output order must not.
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
        let reader = SnapshotReader::open(bytes.as_slice()).expect("open");
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
        assert_eq!(seen, snap.sessions.rows());
        assert_eq!(meta, snap.meta);
        assert!(store.is_empty(), "fold hands rows only to the callback");
        assert_eq!(tags.len(), snap.tags.len());
    }

    #[test]
    fn fold_chunks_propagates_the_fold_error_and_stops() {
        let snap = sample_snapshot(64);
        let mut bytes = Vec::new();
        snap.write_to_chunked(&mut bytes, 4).expect("write");
        let reader = SnapshotReader::open(bytes.as_slice()).expect("open");
        // Unless HF_SNAPSHOT_NO_OVERLAP is set this is the overlapped arm,
        // with chunks still unread when the fold bails at the second one.
        assert!(reader.raw.n_chunks - reader.raw.chunks_read > 2);
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
    fn a_failing_writer_is_a_typed_io_error_and_the_encoder_is_joined() {
        let snap = sample_snapshot(64);
        let mut bytes = Vec::new();
        snap.write_to_chunked(&mut bytes, 4).expect("write");
        // 16 chunks. Cutting the output at every 97th byte lands in each of
        // them: the writer bails while the encoder is ahead of it, blocked
        // on a full channel, or already finished. Returning at all means
        // the encoder was joined.
        for left in (0..bytes.len()).step_by(97) {
            match snap.write_to_chunked(&mut FailAfter { left }, 4) {
                Err(SnapshotError::Io(e)) => assert_eq!(e.to_string(), "disk full"),
                other => panic!("expected Io at byte {left}, got {other:?}"),
            }
        }
    }
}
