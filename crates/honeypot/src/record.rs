//! Per-session summary records — the unit of the honeyfarm's central
//! database and of every analysis in the paper.

use hf_geo::Ip4;
use hf_hash::Digest;
use hf_proto::creds::Credentials;
use hf_proto::Protocol;
use hf_shell::CommandRecord;
use hf_simclock::SimInstant;
use serde::{Deserialize, Serialize};

/// How a session ended (Section 4: "a session is ended either by a TCP
/// connection tear down from the client or a timeout by the honeypot").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EndReason {
    /// Client closed the connection.
    ClientClose,
    /// Honeypot pre-auth or idle timeout fired.
    Timeout,
    /// Honeypot disconnected the client after the auth-attempt cap
    /// ("terminated after 3 unsuccessful tries" — 0.3% of SSH sessions).
    AuthLimit,
}

/// One login attempt and its outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoginAttempt {
    /// Credentials offered.
    pub creds: Credentials,
    /// Whether the honeypot accepted them.
    pub accepted: bool,
}

/// The full summary of one session, as reported to the collector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Index of the honeypot in the farm (0..221).
    pub honeypot: u16,
    /// Protocol used.
    pub protocol: Protocol,
    /// Client address (TCP handshake completed, so not spoofable — Section 7.1).
    pub client_ip: Ip4,
    /// Client source port.
    pub client_port: u16,
    /// Session start time.
    pub start: SimInstant,
    /// Session duration in seconds.
    pub duration_secs: u32,
    /// How the session ended.
    pub ended_by: EndReason,
    /// Client SSH version string from the identification exchange, if SSH.
    pub ssh_client_version: Option<String>,
    /// All login attempts in order.
    pub logins: Vec<LoginAttempt>,
    /// Commands executed after a successful login.
    pub commands: Vec<CommandRecord>,
    /// URIs referenced by commands (deduplicated).
    pub uris: Vec<String>,
    /// SHA-256 hashes of files created or modified, in event order.
    pub file_hashes: Vec<Digest>,
    /// Hashes of downloaded bodies (wget/curl/tftp/ftpget), in order.
    pub download_hashes: Vec<Digest>,
}

impl SessionRecord {
    /// Did any login attempt happen?
    pub fn attempted_login(&self) -> bool {
        !self.logins.is_empty()
    }

    /// Did a login succeed?
    pub fn login_succeeded(&self) -> bool {
        self.logins.iter().any(|l| l.accepted)
    }

    /// Did any command reference a URI?
    pub fn accessed_uri(&self) -> bool {
        !self.uris.is_empty()
    }

    /// End time of the session.
    pub fn end(&self) -> SimInstant {
        self.start.add_secs(self.duration_secs as u64)
    }

    /// Day index of the session start.
    pub fn day(&self) -> u32 {
        self.start.day()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_record() -> SessionRecord {
        SessionRecord {
            honeypot: 3,
            protocol: Protocol::Ssh,
            client_ip: Ip4::new(198, 51, 100, 7),
            client_port: 40111,
            start: SimInstant::from_day_and_secs(10, 3600),
            duration_secs: 42,
            ended_by: EndReason::ClientClose,
            ssh_client_version: Some("SSH-2.0-Go".into()),
            logins: vec![],
            commands: vec![],
            uris: vec![],
            file_hashes: vec![],
            download_hashes: vec![],
        }
    }

    #[test]
    fn predicates_on_empty_session() {
        let r = base_record();
        assert!(!r.attempted_login());
        assert!(!r.login_succeeded());
        assert!(r.commands.is_empty());
        assert!(!r.accessed_uri());
        assert_eq!(r.day(), 10);
        assert_eq!(r.end().delta_secs(r.start), 42);
    }

    #[test]
    fn login_predicates() {
        let mut r = base_record();
        r.logins.push(LoginAttempt {
            creds: Credentials::new("root", "root"),
            accepted: false,
        });
        assert!(r.attempted_login());
        assert!(!r.login_succeeded());
        r.logins.push(LoginAttempt {
            creds: Credentials::new("root", "1234"),
            accepted: true,
        });
        assert!(r.login_succeeded());
    }

    #[test]
    fn serde_roundtrip() {
        let r = base_record();
        let json = serde_json::to_string(&r).unwrap();
        let back: SessionRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
