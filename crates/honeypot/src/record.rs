//! Per-session summary records — the unit of the honeyfarm's central
//! database and of every analysis in the paper.

use hf_geo::Ip4;
use hf_hash::Digest;
use hf_proto::creds::Credentials;
use hf_proto::Protocol;
use hf_shell::CommandRecord;
use hf_simclock::SimInstant;

/// How a session ended (Section 4: "a session is ended either by a TCP
/// connection tear down from the client or a timeout by the honeypot").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoginAttempt {
    /// Credentials offered.
    pub creds: Credentials,
    /// Whether the honeypot accepted them.
    pub accepted: bool,
}

/// The full summary of one session, as reported to the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Strings longer than this are freed when a record is reclaimed, not kept:
/// a kept string keeps its largest capacity, so the cap bounds what each
/// spare string can hold on to.
const SPARE_STRING_MAX: usize = 256;

/// The buffers of finished records, kept for the next records to reuse.
///
/// [`RecordSpares::reclaim`] takes a record apart once its reader is done
/// with it: each list keeps its capacity, and each string (SSH version,
/// command inputs, URIs) goes back empty. A
/// [`SessionDriver`](crate::SessionDriver) given the spares
/// ([`SessionDriver::with_spares`](crate::SessionDriver::with_spares)) draws
/// a list only when its record first needs one, and a string each time it
/// writes one, and allocates only when none is left. A holder that reclaims
/// one batch of records before producing the next keeps at most the
/// buffers of its largest batch, and a string longer than 256 bytes is
/// freed rather than kept.
#[derive(Debug, Default)]
pub struct RecordSpares {
    strings: Vec<String>,
    pub(crate) logins: Vec<Vec<LoginAttempt>>,
    pub(crate) commands: Vec<Vec<CommandRecord>>,
    pub(crate) uris: Vec<Vec<String>>,
    pub(crate) hashes: Vec<Vec<Digest>>,
}

impl RecordSpares {
    /// Take `record` apart into the spares.
    pub fn reclaim(&mut self, record: SessionRecord) {
        let SessionRecord {
            ssh_client_version,
            logins,
            mut commands,
            mut uris,
            file_hashes,
            download_hashes,
            ..
        } = record;
        self.keep_strings(ssh_client_version);
        self.keep_strings(commands.drain(..).map(|c| c.input));
        self.keep_strings(uris.drain(..));
        keep_list(&mut self.logins, logins);
        keep_list(&mut self.commands, commands);
        keep_list(&mut self.uris, uris);
        keep_list(&mut self.hashes, file_hashes);
        keep_list(&mut self.hashes, download_hashes);
    }

    fn keep_strings(&mut self, strings: impl IntoIterator<Item = String>) {
        for mut s in strings {
            if s.capacity() > 0 && s.capacity() <= SPARE_STRING_MAX {
                s.clear();
                self.strings.push(s);
            }
        }
    }

    /// A string holding `text`, reusing a spare one if any is left.
    pub(crate) fn string(&mut self, text: &str) -> String {
        let mut s = self.strings.pop().unwrap_or_default();
        s.push_str(text);
        s
    }
}

fn keep_list<T>(spares: &mut Vec<Vec<T>>, mut list: Vec<T>) {
    if list.capacity() > 0 {
        list.clear();
        spares.push(list);
    }
}

/// `list`, first given one of `spares` if it has no buffer yet.
pub(crate) fn refill<'a, T>(list: &'a mut Vec<T>, spares: &mut Vec<Vec<T>>) -> &'a mut Vec<T> {
    if list.capacity() == 0 {
        if let Some(spare) = spares.pop() {
            *list = spare;
        }
    }
    list
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
}
