//! The column coding of one hfstore rows chunk (format version 4).
//!
//! A chunk payload holds its rows column by column, each column in the
//! narrowest integer form its values allow, and needs nothing outside
//! itself to decode:
//!
//! ```text
//! [client count k  : u32 LE]
//! [k clients       : ip u32 LE, asn u32 LE, country u16 LE]   first-use order
//! [column lengths  : 12 × u32 LE]                             the directory
//! [12 columns, in directory order]
//! ```
//!
//! | column        | per row                                              |
//! |---------------|------------------------------------------------------|
//! | `start`       | varint of the zigzagged delta from the previous row's start (0 before the first) |
//! | `duration`    | varint                                               |
//! | `honeypot`    | u16 LE                                               |
//! | `client_port` | u16 LE                                               |
//! | `client`      | varint index into the client dictionary              |
//! | `kind`        | one byte: `protocol` in the low nibble, `end_reason` in the high |
//! | `ssh_version` | varint of `id + 1` (wrapping, so `NONE_ID` codes as 0) |
//! | `login_list` … `dl_list` | five columns, each a varint of `id + 1`   |
//!
//! Varints are LEB128 over `u32`: seven bits a byte, low group first, at
//! most five bytes. The dictionary is keyed on the whole
//! `(client_ip, client_asn, client_country)` triple, so the coding is
//! lossless for any store, including one whose geolocation changed under
//! an address. Every `u32` field round-trips exactly; `protocol` and
//! `end_reason` values above 15 are written as 15, which the reader
//! refuses like any other out-of-range enum byte.
//!
//! The decoder checks the payload against the row count it is given and
//! returns a typed [`SnapshotError`] for every inconsistency: a column that
//! overruns the payload or leaves bytes unread, a varint longer than five
//! bytes or past `u32`, a client index outside the dictionary, an enum out
//! of range, or bytes after the last column. It never panics.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::snapshot::SnapshotError;
use crate::store::Row;

/// The columns, in payload order.
const COLUMNS: [&str; 12] = [
    "start",
    "duration",
    "honeypot",
    "client_port",
    "client",
    "kind",
    "ssh_version",
    "login_list",
    "cmd_list",
    "uri_list",
    "hash_list",
    "dl_list",
];

/// Bytes per row of the fixed-width columns, by column index.
const FIXED: [(usize, usize); 3] = [(2, 2), (3, 2), (5, 1)];

/// Rows per block: the codec works column by column within a block, and a
/// block's rows (12 KiB) and decoded values (9 KiB) stay in L1.
const BLOCK: usize = 256;

/// One dictionary entry: ip, asn, country.
const CLIENT_BYTES: usize = 4 + 4 + 2;

/// The longest `u32` varint.
const VARINT_MAX: usize = 5;

/// The most bytes one row can take: nine varints, the two `u16`s, the kind
/// byte, and a dictionary entry of its own.
const MAX_ROW_BYTES: usize = 9 * VARINT_MAX + 2 + 2 + 1 + CLIENT_BYTES;

/// The client count and the column directory.
const HEADER_BYTES: usize = 4 + 4 * COLUMNS.len();

/// The largest payload a chunk of `rows` rows can need. A reader refuses a
/// declared length above it before reading, so no hostile length field can
/// size a buffer.
pub(crate) fn max_payload(rows: usize) -> usize {
    HEADER_BYTES + rows * MAX_ROW_BYTES
}

/// Slots of the encoder's client cache (64 KiB).
const RECENT_BITS: u32 = 12;

/// An empty slot of the encoder's client cache.
const EMPTY: (u64, u16, u32) = (0, 0, u32::MAX);

/// Reusable state of the chunk writer: the client dictionary and one
/// buffer per column, cleared per chunk and keeping their capacity.
pub(crate) struct ChunkEncoder {
    /// Client triple (packed into a `u128`) → dictionary index. Hashed with
    /// std's keyed `RandomState`: a live farm takes client addresses from
    /// the network, so they must not meet the seedless `IdHasher`.
    index: HashMap<u128, u32>,
    /// A direct-mapped cache in front of `index`: `(ip | asn << 32,
    /// country, index)`, one entry per slot. SipHash costs about half the
    /// encoder, and a chunk's rows come from a few hundred clients, so most
    /// rows find their client here. The slot is a multiply by `mix`, drawn
    /// from `RandomState` per encoder; addresses aimed at one slot can only
    /// make rows miss the cache and take `index`, the cost without it.
    recent: Vec<(u64, u16, u32)>,
    /// Odd multiplier of the cache's slot function.
    mix: u64,
    dict: Vec<u8>,
    cols: [Vec<u8>; 12],
}

impl Default for ChunkEncoder {
    fn default() -> Self {
        ChunkEncoder {
            index: HashMap::new(),
            recent: Vec::new(),
            mix: RandomState::new().hash_one(0u64) | 1,
            dict: Vec::new(),
            cols: Default::default(),
        }
    }
}

impl ChunkEncoder {
    /// Append the payload of one chunk holding `rows` to `out`.
    pub(crate) fn encode(&mut self, rows: &[Row], out: &mut Vec<u8>) {
        let ChunkEncoder {
            index,
            recent,
            mix,
            dict,
            cols,
        } = self;
        index.clear();
        recent.clear();
        recent.resize(1 << RECENT_BITS, EMPTY);
        dict.clear();
        // Room for three bytes a varint (ids below 2^21), so a column
        // rarely grows; the dictionary and its index grow to the few
        // hundred clients a chunk has, not to its row count.
        for (i, col) in cols.iter_mut().enumerate() {
            col.clear();
            let width = FIXED.iter().find(|(c, _)| *c == i).map_or(3, |&(_, w)| w);
            col.reserve(rows.len() * width);
        }
        let [start, duration, honeypot, port, client, kind, ssh, login, cmd, uri, hash, dl] = cols;
        let mut prev = 0u32;
        // Column by column within blocks that stay in L1: each inner loop
        // appends to one to three column buffers.
        for block in rows.chunks(BLOCK) {
            for r in block {
                put_varint(start, zigzag(r.start_secs.wrapping_sub(prev) as i32));
                prev = r.start_secs;
            }
            put_varints(duration, block, |r| r.duration_secs);
            for r in block {
                honeypot.extend_from_slice(&r.honeypot.to_le_bytes());
                port.extend_from_slice(&r.client_port.to_le_bytes());
                kind.push(r.protocol.min(15) | r.end_reason.min(15) << 4);
            }
            for r in block {
                let ip_asn = u64::from(r.client_ip) | u64::from(r.client_asn) << 32;
                let slot = &mut recent[(ip_asn.wrapping_mul(*mix) >> (64 - RECENT_BITS)) as usize];
                if slot.0 != ip_asn || slot.1 != r.client_country || slot.2 == EMPTY.2 {
                    let key = u128::from(ip_asn) | u128::from(r.client_country) << 64;
                    let next = index.len() as u32;
                    let idx = *index.entry(key).or_insert_with(|| {
                        dict.extend_from_slice(&r.client_ip.to_le_bytes());
                        dict.extend_from_slice(&r.client_asn.to_le_bytes());
                        dict.extend_from_slice(&r.client_country.to_le_bytes());
                        next
                    });
                    *slot = (ip_asn, r.client_country, idx);
                }
                put_varint(client, slot.2);
            }
            put_varints(ssh, block, |r| r.ssh_version_id.wrapping_add(1));
            put_varints(login, block, |r| r.login_list_id.wrapping_add(1));
            put_varints(cmd, block, |r| r.cmd_list_id.wrapping_add(1));
            put_varints(uri, block, |r| r.uri_list_id.wrapping_add(1));
            put_varints(hash, block, |r| r.hash_list_id.wrapping_add(1));
            put_varints(dl, block, |r| r.dl_list_id.wrapping_add(1));
        }
        out.reserve(HEADER_BYTES + dict.len() + cols.iter().map(Vec::len).sum::<usize>());
        out.extend_from_slice(&(index.len() as u32).to_le_bytes());
        out.extend_from_slice(dict);
        for col in cols.iter() {
            out.extend_from_slice(&(col.len() as u32).to_le_bytes());
        }
        for col in cols.iter() {
            out.extend_from_slice(col);
        }
    }
}

/// Decode the payload of a chunk of `n` rows into `rows` (replacing its
/// contents), checking every byte of it.
pub(crate) fn decode_chunk(
    payload: &[u8],
    n: usize,
    rows: &mut Vec<Row>,
) -> Result<(), SnapshotError> {
    rows.clear();
    let (k, rest) = split_u32(payload, "client count")?;
    let k = k as usize;
    if k > n {
        return Err(corrupt(format!("{k} dictionary clients for {n} rows")));
    }
    let (dict, mut rest) = split(rest, k * CLIENT_BYTES, "client dictionary")?;
    let mut lens = [0u32; 12];
    for len in &mut lens {
        (*len, rest) = split_u32(rest, "column directory")?;
    }
    let mut cols: [&[u8]; 12] = [&[]; 12];
    for ((col, &len), name) in cols.iter_mut().zip(&lens).zip(COLUMNS) {
        (*col, rest) = split(rest, len as usize, name)?;
    }
    if !rest.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last column",
            rest.len()
        )));
    }
    for (i, width) in FIXED {
        if cols[i].len() != n * width {
            return Err(corrupt(format!(
                "{} column holds {} bytes for {n} rows",
                COLUMNS[i],
                cols[i].len()
            )));
        }
    }
    if let Some(&byte) = cols[5].iter().find(|&&b| b & 15 > 1 || b >> 4 > 2) {
        return Err(corrupt(format!(
            "kind byte {byte:#04x}: protocol {} (0 = SSH, 1 = Telnet), end_reason {} (0..=2)",
            byte & 15,
            byte >> 4
        )));
    }
    let [start, duration, honeypot, port, client, kind, ssh, login, cmd, uri, hash, dl] = cols;
    // The varint columns, and the index of each in COLUMNS.
    let mut varints = [start, duration, client, ssh, login, cmd, uri, hash, dl]
        .map(|col| Varints { col, pos: 0 });
    const NAMES: [usize; 9] = [0, 1, 4, 6, 7, 8, 9, 10, 11];
    // Each block of rows is read column by column into `vals`, then
    // assembled row by row.
    let mut vals = [[0u32; BLOCK]; 9];
    rows.reserve(n);
    let mut prev = 0u32;
    for base in (0..n).step_by(BLOCK) {
        let m = BLOCK.min(n - base);
        for (v, col) in varints.iter_mut().enumerate() {
            col.fill(&mut vals[v][..m])
                .map_err(|what| corrupt(format!("{what} in the {} column", COLUMNS[NAMES[v]])))?;
        }
        let [starts, durations, clients, ssh, login, cmd, uri, hash, dl] = &vals;
        if let Some(&c) = clients[..m].iter().find(|&&c| c as usize >= k) {
            return Err(SnapshotError::DanglingId {
                kind: "client",
                id: c,
            });
        }
        rows.extend((0..m).map(|j| {
            let i = base + j;
            prev = prev.wrapping_add(unzigzag(starts[j]));
            let entry = &dict[clients[j] as usize * CLIENT_BYTES..][..CLIENT_BYTES];
            Row {
                start_secs: prev,
                duration_secs: durations[j],
                honeypot: u16_at(honeypot, 2 * i),
                client_port: u16_at(port, 2 * i),
                client_ip: u32_at(entry, 0),
                client_asn: u32_at(entry, 4),
                client_country: u16_at(entry, 8),
                protocol: kind[i] & 15,
                end_reason: kind[i] >> 4,
                ssh_version_id: ssh[j].wrapping_sub(1),
                login_list_id: login[j].wrapping_sub(1),
                cmd_list_id: cmd[j].wrapping_sub(1),
                uri_list_id: uri[j].wrapping_sub(1),
                hash_list_id: hash[j].wrapping_sub(1),
                dl_list_id: dl[j].wrapping_sub(1),
            }
        }));
    }
    for (v, col) in varints.iter().enumerate() {
        if col.pos != col.col.len() {
            return Err(corrupt(format!(
                "{} bytes left over in the {} column",
                col.col.len() - col.pos,
                COLUMNS[NAMES[v]]
            )));
        }
    }
    Ok(())
}

/// One varint column being read.
struct Varints<'a> {
    col: &'a [u8],
    pos: usize,
}

impl Varints<'_> {
    /// Read the next `out.len()` values, or say what is wrong with the
    /// column. Most columns are almost all one-byte values, so eight bytes
    /// without a continuation bit are taken as eight values at once; other
    /// values are read from one 64-bit load without a branch on their
    /// length, and the column's last bytes one at a time.
    #[inline]
    fn fill(&mut self, out: &mut [u32]) -> Result<(), &'static str> {
        let (col, mut pos) = (self.col, self.pos);
        let mut overflow = false;
        let mut j = 0;
        while j < out.len() {
            let Some(&window) = col.get(pos..).and_then(|rest| rest.first_chunk::<8>()) else {
                break;
            };
            let w = u64::from_le_bytes(window);
            if w & 0x8080_8080_8080_8080 == 0 {
                if let Some(eight) = out.get_mut(j..j + 8) {
                    for (o, b) in eight.iter_mut().zip(window) {
                        *o = u32::from(b);
                    }
                    (j, pos) = (j + 8, pos + 8);
                    continue;
                }
            }
            // The continuation bit of each of the first five bytes, set
            // where it is clear: the lowest marks the value's last byte.
            let stops = !w & 0x80_8080_8080;
            if stops == 0 {
                return Err("varint overflow");
            }
            let len = stops.trailing_zeros() / 8 + 1;
            let x = w & (u64::MAX >> (64 - 8 * len));
            // A fifth byte may carry only the top four bits of a u32.
            overflow |= x >> 32 > 0x0f;
            out[j] = ((x & 0x7f)
                | (x >> 1 & 0x3f80)
                | (x >> 2 & 0x1f_c000)
                | (x >> 3 & 0xfe0_0000)
                | (x >> 4 & 0xf000_0000)) as u32;
            (j, pos) = (j + 1, pos + len as usize);
        }
        for o in &mut out[j..] {
            let mut v = 0u32;
            let mut shift = 0;
            loop {
                let &b = col.get(pos).ok_or("a value runs past the end")?;
                pos += 1;
                if shift == 28 && b > 0x0f {
                    return Err("varint overflow");
                }
                v |= u32::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            *o = v;
        }
        if overflow {
            return Err("varint overflow");
        }
        self.pos = pos;
        Ok(())
    }
}

#[inline]
fn put_varints(out: &mut Vec<u8>, block: &[Row], field: impl Fn(&Row) -> u32) {
    for r in block {
        put_varint(out, field(r));
    }
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[inline]
fn zigzag(d: i32) -> u32 {
    ((d << 1) ^ (d >> 31)) as u32
}

#[inline]
fn unzigzag(z: u32) -> u32 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

#[inline]
fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

#[inline]
fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn corrupt(detail: String) -> SnapshotError {
    SnapshotError::Corrupt {
        section: "rows",
        detail,
    }
}

/// Split `len` bytes off the front of `b`, or name the `part` that overruns
/// the payload.
fn split<'a>(b: &'a [u8], len: usize, part: &str) -> Result<(&'a [u8], &'a [u8]), SnapshotError> {
    if len > b.len() {
        return Err(corrupt(format!(
            "the {part} wants {len} bytes, {} are left in the payload",
            b.len()
        )));
    }
    Ok(b.split_at(len))
}

fn split_u32<'a>(b: &'a [u8], part: &str) -> Result<(u32, &'a [u8]), SnapshotError> {
    let (word, rest) = split(b, 4, part)?;
    Ok((u32_at(word, 0), rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: u32) -> Row {
        Row {
            start_secs: 1_000 + 37 * n,
            duration_secs: n * 1_000,
            honeypot: (n % 221) as u16,
            client_port: 40_000 + n as u16,
            client_ip: 0x1000_0000 + n % 5,
            client_asn: 64_500 + n % 5,
            client_country: (n % 5) as u16,
            protocol: (n % 2) as u8,
            end_reason: (n % 3) as u8,
            ssh_version_id: if n.is_multiple_of(4) { u32::MAX } else { n },
            login_list_id: n,
            cmd_list_id: 0,
            uri_list_id: n << 9,
            hash_list_id: u32::MAX - 1,
            dl_list_id: n << 20,
        }
    }

    fn encode(rows: &[Row]) -> Vec<u8> {
        let mut out = Vec::new();
        ChunkEncoder::default().encode(rows, &mut out);
        out
    }

    fn decode(payload: &[u8], n: usize) -> Result<Vec<Row>, SnapshotError> {
        let mut rows = Vec::new();
        decode_chunk(payload, n, &mut rows).map(|()| rows)
    }

    /// Offset of column `name` in a payload with `k` dictionary clients.
    fn column_at(payload: &[u8], k: usize, name: &str) -> usize {
        let dir = 4 + k * CLIENT_BYTES;
        let idx = COLUMNS.iter().position(|c| *c == name).unwrap();
        dir + 4 * COLUMNS.len()
            + (0..idx)
                .map(|i| u32_at(payload, dir + 4 * i) as usize)
                .sum::<usize>()
    }

    #[test]
    fn rows_roundtrip_through_every_field_width() {
        // Starts that go back in time, 1- to 5-byte varints, NONE_ID and
        // u32::MAX - 1 ids, and a client seen again after others.
        let mut rows: Vec<Row> = (0..300).map(row).collect();
        rows[7].start_secs = 0;
        rows[8].start_secs = u32::MAX;
        rows[9].duration_secs = u32::MAX;
        let payload = encode(&rows);
        assert_eq!(decode(&payload, rows.len()).expect("decode"), rows);
        assert!(payload.len() <= max_payload(rows.len()));
        assert_eq!(u32_at(&payload, 0), 5, "one dictionary entry per client");
    }

    #[test]
    fn more_clients_than_cache_slots_roundtrip() {
        // Twice as many clients as the encoder's cache has slots, in an
        // order that revisits each: slots are shared and overwritten.
        let n = 2 << RECENT_BITS;
        let rows: Vec<Row> = (0..3 * n as u32)
            .map(|i| Row {
                client_ip: i * 7 % n as u32,
                client_asn: 64_500,
                client_country: 3,
                ..row(i)
            })
            .collect();
        let payload = encode(&rows);
        assert_eq!(u32_at(&payload, 0) as usize, n);
        assert_eq!(decode(&payload, rows.len()).expect("decode"), rows);
    }

    #[test]
    fn the_dictionary_keys_the_whole_triple() {
        let mut rows = vec![row(0), row(0), row(0)];
        rows[1].client_asn += 1;
        rows[2].client_country += 1;
        let payload = encode(&rows);
        assert_eq!(u32_at(&payload, 0), 3);
        assert_eq!(decode(&payload, 3).expect("decode"), rows);
    }

    #[test]
    fn encoding_reuses_nothing_of_the_previous_chunk() {
        let (a, b): (Vec<Row>, Vec<Row>) = ((0..50).map(row).collect(), (9..20).map(row).collect());
        let mut enc = ChunkEncoder::default();
        let mut out = Vec::new();
        enc.encode(&a, &mut out);
        out.clear();
        enc.encode(&b, &mut out);
        assert_eq!(out, encode(&b));
    }

    #[test]
    fn the_widest_row_fits_the_declared_bound() {
        // Every varint at five bytes but the client index, which is one.
        let far = u32::MAX - 1;
        let r = Row {
            start_secs: 1 << 31,
            duration_secs: u32::MAX,
            ssh_version_id: far,
            login_list_id: far,
            cmd_list_id: far,
            uri_list_id: far,
            hash_list_id: far,
            dl_list_id: far,
            ..row(1)
        };
        assert_eq!(encode(&[r]).len(), max_payload(1) - (VARINT_MAX - 1));
    }

    #[test]
    fn an_out_of_range_enum_is_written_so_the_reader_refuses_it() {
        for (protocol, end_reason) in [(2, 0), (200, 0), (0, 3), (0, 255)] {
            let payload = encode(&[Row {
                protocol,
                end_reason,
                ..row(0)
            }]);
            match decode(&payload, 1) {
                Err(SnapshotError::Corrupt { section, .. }) => assert_eq!(section, "rows"),
                other => panic!("({protocol}, {end_reason}): expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_client_index_past_the_dictionary_is_dangling() {
        let mut payload = encode(&[row(0), row(1)]);
        let at = column_at(&payload, 2, "client");
        assert_eq!(&payload[at..at + 2], &[0, 1]);
        payload[at + 1] = 2;
        match decode(&payload, 2) {
            Err(SnapshotError::DanglingId { kind, id }) => assert_eq!((kind, id), ("client", 2)),
            other => panic!("expected DanglingId, got {other:?}"),
        }
    }

    #[test]
    fn an_overlong_or_unfinished_varint_is_refused() {
        let cases: [(&[u8], &str); 3] = [
            (&[0xff, 0xff, 0xff, 0xff, 0x10], "varint overflow"),
            (&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], "varint overflow"),
            (&[0x80, 0x80], "a value runs past the end"),
        ];
        for (value, want) in cases {
            let mut payload = encode(&[row(0)]);
            let at = column_at(&payload, 1, "login_list");
            assert_eq!(payload[at], 1, "login list 0 codes as one byte");
            payload.splice(at..at + 1, value.iter().copied());
            let dir = 4 + CLIENT_BYTES + 4 * 7;
            payload[dir..dir + 4].copy_from_slice(&(value.len() as u32).to_le_bytes());
            let err = decode(&payload, 1).expect_err("bad varint").to_string();
            assert!(
                err.contains(&format!("{want} in the login_list column")),
                "{err}"
            );
        }
    }

    #[test]
    fn every_truncation_and_every_extension_is_typed() {
        let rows: Vec<Row> = (0..40).map(row).collect();
        let payload = encode(&rows);
        for cut in 0..payload.len() {
            let err = decode(&payload[..cut], rows.len()).expect_err("cut payload");
            assert!(
                matches!(
                    err,
                    SnapshotError::Corrupt {
                        section: "rows",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
        let mut longer = payload.clone();
        longer.push(0);
        let err = decode(&longer, rows.len())
            .expect_err("trailing byte")
            .to_string();
        assert!(
            err.contains("1 trailing bytes after the last column"),
            "{err}"
        );
        // The same payload read as fewer or more rows than it holds.
        for n in [rows.len() - 1, rows.len() + 1] {
            assert!(decode(&payload, n).is_err(), "{n} rows");
        }
    }

    #[test]
    fn a_column_with_a_spare_value_is_refused() {
        let mut payload = encode(&[row(0)]);
        let at = column_at(&payload, 1, "duration");
        payload.insert(at, 0);
        let dir = 4 + CLIENT_BYTES + 4;
        let len = u32_at(&payload, dir) + 1;
        payload[dir..dir + 4].copy_from_slice(&len.to_le_bytes());
        let err = decode(&payload, 1).expect_err("spare value").to_string();
        assert!(
            err.contains("bytes left over in the duration column"),
            "{err}"
        );
    }
}
