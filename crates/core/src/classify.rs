//! Session classification (paper Section 6, Fig. 5).
//!
//! The flow diagram: did the client send credentials? → did a login succeed?
//! → were commands executed? → did a command reference a URI? Five leaves:
//! NO_CRED, FAIL_LOG, NO_CMD, CMD, CMD+URI; grouped into three behaviour
//! classes (scanning / scouting / intrusion).

use hf_farm::SessionView;

/// The five session categories of Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// No credentials ever offered (port scan).
    NoCred,
    /// Login attempted, never succeeded.
    FailLog,
    /// Successful login, no commands.
    NoCmd,
    /// Successful login + commands, no URI.
    Cmd,
    /// Successful login + commands + external URI.
    CmdUri,
}

impl Category {
    /// All categories in paper order.
    pub const ALL: [Category; 5] = [
        Category::NoCred,
        Category::FailLog,
        Category::NoCmd,
        Category::Cmd,
        Category::CmdUri,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Category::NoCred => "NO_CRED",
            Category::FailLog => "FAIL_LOG",
            Category::NoCmd => "NO_CMD",
            Category::Cmd => "CMD",
            Category::CmdUri => "CMD+URI",
        }
    }

    /// Dense index (0..5) for array-based aggregation.
    pub fn index(self) -> usize {
        match self {
            Category::NoCred => 0,
            Category::FailLog => 1,
            Category::NoCmd => 2,
            Category::Cmd => 3,
            Category::CmdUri => 4,
        }
    }

    /// Inverse of [`Category::index`].
    pub fn from_index(i: usize) -> Category {
        Category::ALL[i]
    }

    /// The behaviour class this category belongs to.
    pub fn behavior(self) -> BehaviorClass {
        match self {
            Category::NoCred => BehaviorClass::Scanning,
            Category::FailLog => BehaviorClass::Scouting,
            _ => BehaviorClass::Intrusion,
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The paper's three client behaviour classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BehaviorClass {
    /// NO_CRED: checking for open ports.
    Scanning,
    /// FAIL_LOG: trying credentials.
    Scouting,
    /// NO_CMD / CMD / CMD+URI: shell access obtained.
    Intrusion,
}

impl BehaviorClass {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            BehaviorClass::Scanning => "scanning",
            BehaviorClass::Scouting => "scouting",
            BehaviorClass::Intrusion => "intrusion",
        }
    }
}

/// The Fig. 5 flow diagram, the one statement of the taxonomy: were
/// credentials offered, did a login succeed, were commands run, did one
/// reference a URI? The first "no" names the leaf; answers after it do not
/// matter.
pub const fn taxonomy(credentials: bool, login: bool, commands: bool, uri: bool) -> Category {
    if !credentials {
        Category::NoCred
    } else if !login {
        Category::FailLog
    } else if !commands {
        Category::NoCmd
    } else if !uri {
        Category::Cmd
    } else {
        Category::CmdUri
    }
}

/// Classify one stored session. Each fact is read only when [`taxonomy`]
/// asks for it, as the fold calls this once per row.
pub fn classify(v: &SessionView<'_>) -> Category {
    let credentials = v.attempted_login();
    let login = credentials && v.login_succeeded();
    let commands = login && v.n_commands() != 0;
    taxonomy(credentials, login, commands, commands && v.has_uri())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_farm::SessionStore;
    use hf_geo::Ip4;
    use hf_honeypot::{EndReason, LoginAttempt, SessionRecord};
    use hf_proto::creds::Credentials;
    use hf_proto::Protocol;
    use hf_shell::CommandRecord;
    use hf_simclock::SimInstant;

    fn base() -> SessionRecord {
        SessionRecord {
            honeypot: 0,
            protocol: Protocol::Ssh,
            client_ip: Ip4::new(16, 0, 0, 1),
            client_port: 1,
            start: SimInstant::EPOCH,
            duration_secs: 1,
            ended_by: EndReason::ClientClose,
            ssh_client_version: None,
            logins: vec![],
            commands: vec![],
            uris: vec![],
            file_hashes: vec![],
            download_hashes: vec![],
        }
    }

    fn classify_record(rec: SessionRecord) -> Category {
        let mut store = SessionStore::new();
        store.ingest(&rec, None);
        classify(&store.view(0))
    }

    #[test]
    fn taxonomy_leaves() {
        // NO_CRED
        assert_eq!(classify_record(base()), Category::NoCred);
        // FAIL_LOG
        let mut r = base();
        r.logins.push(LoginAttempt {
            creds: Credentials::new("root", "root"),
            accepted: false,
        });
        assert_eq!(classify_record(r), Category::FailLog);
        // NO_CMD
        let mut r = base();
        r.logins.push(LoginAttempt {
            creds: Credentials::new("root", "x"),
            accepted: true,
        });
        assert_eq!(classify_record(r), Category::NoCmd);
        // CMD
        let mut r = base();
        r.logins.push(LoginAttempt {
            creds: Credentials::new("root", "x"),
            accepted: true,
        });
        r.commands.push(CommandRecord {
            input: "uname".into(),
            known: true,
        });
        assert_eq!(classify_record(r), Category::Cmd);
        // CMD+URI
        let mut r = base();
        r.logins.push(LoginAttempt {
            creds: Credentials::new("root", "x"),
            accepted: true,
        });
        r.commands.push(CommandRecord {
            input: "wget http://h/x".into(),
            known: true,
        });
        r.uris.push("http://h/x".into());
        assert_eq!(classify_record(r), Category::CmdUri);
    }

    #[test]
    fn failed_then_successful_login_is_intrusion() {
        // "there might have been unsuccessful login attempts prior to the
        // successful one within the same session" — still NO_CMD.
        let mut r = base();
        r.logins.push(LoginAttempt {
            creds: Credentials::new("admin", "x"),
            accepted: false,
        });
        r.logins.push(LoginAttempt {
            creds: Credentials::new("root", "x"),
            accepted: true,
        });
        assert_eq!(classify_record(r), Category::NoCmd);
    }

    #[test]
    fn the_leaf_is_the_number_of_leading_yes_answers() {
        for bits in 0..16u8 {
            let a = [0, 1, 2, 3].map(|i| bits & (1 << i) != 0);
            let leading = a.iter().take_while(|&&yes| yes).count();
            assert_eq!(taxonomy(a[0], a[1], a[2], a[3]).index(), leading, "{a:?}");
        }
    }

    #[test]
    fn behavior_classes() {
        assert_eq!(Category::NoCred.behavior(), BehaviorClass::Scanning);
        assert_eq!(Category::FailLog.behavior(), BehaviorClass::Scouting);
        for c in [Category::NoCmd, Category::Cmd, Category::CmdUri] {
            assert_eq!(c.behavior(), BehaviorClass::Intrusion);
        }
    }

    #[test]
    fn index_roundtrip() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(Category::from_index(i), *c);
        }
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = Category::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec!["NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD+URI"]
        );
    }
}
