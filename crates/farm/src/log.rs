//! Cowrie-style JSON event log.
//!
//! Cowrie emits one JSON object per event (`cowrie.session.connect`,
//! `cowrie.login.success`, `cowrie.command.input`, …), and that log is the
//! paper's raw data. The farm's collector consumes [`SessionRecord`]s
//! directly, so nothing in the pipeline writes these lines; [`EventLog`]
//! renders a record as the events Cowrie would have logged for it, the
//! format an importer of real Cowrie logs would read.

use hf_honeypot::SessionRecord;
use hf_obs::json;
use hf_simclock::SimInstant;

/// One JSON log event (a faithful subset of Cowrie's schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CowrieEvent {
    /// Event id, e.g. `cowrie.login.success`.
    pub eventid: String,
    /// ISO timestamp.
    pub timestamp: String,
    /// Session identifier.
    pub session: String,
    /// Source IP.
    pub src_ip: String,
    /// Free-form human message.
    pub message: String,
    /// Username for login events.
    pub username: Option<String>,
    /// Password for login events.
    pub password: Option<String>,
    /// Command line for command events.
    pub input: Option<String>,
    /// SHA-256 for file/download events.
    pub shasum: Option<String>,
    /// URL for download events.
    pub url: Option<String>,
}

impl CowrieEvent {
    fn base(eventid: &str, at: SimInstant, session: &str, src_ip: &str, message: String) -> Self {
        CowrieEvent {
            eventid: eventid.to_string(),
            timestamp: at.to_rfc3339(),
            session: session.to_string(),
            src_ip: src_ip.to_string(),
            message,
            username: None,
            password: None,
            input: None,
            shasum: None,
            url: None,
        }
    }

    /// One compact JSON object, fields in declaration order; absent
    /// optional fields are left out.
    pub fn to_json(&self) -> String {
        let fields = [
            ("eventid", Some(&self.eventid)),
            ("timestamp", Some(&self.timestamp)),
            ("session", Some(&self.session)),
            ("src_ip", Some(&self.src_ip)),
            ("message", Some(&self.message)),
            ("username", self.username.as_ref()),
            ("password", self.password.as_ref()),
            ("input", self.input.as_ref()),
            ("shasum", self.shasum.as_ref()),
            ("url", self.url.as_ref()),
        ];
        let body: Vec<String> = fields
            .iter()
            .filter_map(|&(k, v)| Some(format!("{}:{}", json::string(k), json::string(v?))))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Expands a finished [`SessionRecord`] into the event stream Cowrie would
/// have logged for it, serialized one-JSON-object-per-line.
#[derive(Debug, Default, Clone)]
pub struct EventLog;

impl EventLog {
    /// Render the event lines for a session.
    pub fn render(record: &SessionRecord) -> Vec<String> {
        let sid = format!(
            "s{:08x}",
            record.start.0 as u32 ^ ((record.honeypot as u32) << 20)
        );
        let ip = record.client_ip.to_string();
        let mut events = Vec::new();
        let mut t = record.start;

        let mut connect = CowrieEvent::base(
            "cowrie.session.connect",
            t,
            &sid,
            &ip,
            format!(
                "New connection: {}:{} ({}) [session: {}]",
                ip,
                record.client_port,
                record.protocol.label(),
                sid
            ),
        );
        if let Some(v) = &record.ssh_client_version {
            connect.message.push_str(&format!(" version: {v}"));
        }
        events.push(connect);

        for l in &record.logins {
            t = t.add_secs(1);
            let eventid = if l.accepted {
                "cowrie.login.success"
            } else {
                "cowrie.login.failed"
            };
            let mut e = CowrieEvent::base(
                eventid,
                t,
                &sid,
                &ip,
                format!(
                    "login attempt [{}/{}] {}",
                    l.creds.username,
                    l.creds.password,
                    if l.accepted { "succeeded" } else { "failed" }
                ),
            );
            e.username = Some(l.creds.username.to_string());
            e.password = Some(l.creds.password.to_string());
            events.push(e);
        }

        for c in &record.commands {
            t = t.add_secs(1);
            let eventid = if c.known {
                "cowrie.command.input"
            } else {
                "cowrie.command.failed"
            };
            let mut e = CowrieEvent::base(eventid, t, &sid, &ip, format!("CMD: {}", c.input));
            e.input = Some(c.input.clone());
            events.push(e);
        }

        for (i, h) in record.download_hashes.iter().enumerate() {
            t = t.add_secs(1);
            let mut e = CowrieEvent::base(
                "cowrie.session.file_download",
                t,
                &sid,
                &ip,
                format!("Downloaded file with SHA-256 {h}"),
            );
            e.shasum = Some(h.to_hex());
            e.url = record.uris.get(i).cloned();
            events.push(e);
        }

        for h in &record.file_hashes {
            t = t.add_secs(1);
            let mut e = CowrieEvent::base(
                "cowrie.session.file_upload",
                t,
                &sid,
                &ip,
                format!("file created/modified, SHA-256 {h}"),
            );
            e.shasum = Some(h.to_hex());
            events.push(e);
        }

        let end = record.end();
        events.push(CowrieEvent::base(
            "cowrie.session.closed",
            end,
            &sid,
            &ip,
            format!(
                "Connection lost after {} seconds ({:?})",
                record.duration_secs, record.ended_by
            ),
        ));

        events.iter().map(CowrieEvent::to_json).collect()
    }
}
