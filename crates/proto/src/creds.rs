//! Credentials and the honeypot's authentication policy.
//!
//! Section 4 of the paper describes the farm's policy precisely: only
//! password auth; the username must be `root`; any password is accepted
//! *except* the literal string `root`; public-key auth is unsupported; the
//! same rules apply to Telnet. [`AuthPolicy`] encodes that as data so tests
//! and ablations can vary it.

/// A username/password pair offered at login.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Credentials {
    /// Login name.
    pub username: String,
    /// Password string.
    pub password: String,
}

impl Credentials {
    /// Convenience constructor.
    pub fn new(username: &str, password: &str) -> Self {
        Credentials {
            username: username.to_string(),
            password: password.to_string(),
        }
    }
}

impl std::fmt::Display for Credentials {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.username, self.password)
    }
}

/// Outcome of an authentication attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthOutcome {
    /// Credentials accepted; the client gets a shell.
    Accepted,
    /// Credentials rejected; the client may retry (up to the attempt cap).
    Rejected,
}

/// The honeypot's authentication policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthPolicy {
    /// The only username that can succeed.
    pub required_username: String,
    /// Passwords that are explicitly denied even for the right username.
    pub denied_passwords: Vec<String>,
    /// Maximum login attempts per session before disconnect.
    pub max_attempts: u32,
}

impl Default for AuthPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

impl AuthPolicy {
    /// The paper's policy: root / anything-but-"root", three attempts.
    pub fn paper() -> Self {
        AuthPolicy {
            required_username: "root".to_string(),
            denied_passwords: vec!["root".to_string()],
            max_attempts: 3,
        }
    }

    /// Evaluate one attempt.
    pub fn check(&self, creds: &Credentials) -> AuthOutcome {
        if creds.username == self.required_username
            && !self.denied_passwords.contains(&creds.password)
        {
            AuthOutcome::Accepted
        } else {
            AuthOutcome::Rejected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_accepts_root_with_any_other_password() {
        let p = AuthPolicy::paper();
        assert_eq!(
            p.check(&Credentials::new("root", "1234")),
            AuthOutcome::Accepted
        );
        assert_eq!(
            p.check(&Credentials::new("root", "admin")),
            AuthOutcome::Accepted
        );
        assert_eq!(
            p.check(&Credentials::new("root", "")),
            AuthOutcome::Accepted
        );
    }

    #[test]
    fn paper_policy_rejects_root_root() {
        let p = AuthPolicy::paper();
        assert_eq!(
            p.check(&Credentials::new("root", "root")),
            AuthOutcome::Rejected
        );
    }

    #[test]
    fn paper_policy_rejects_non_root_users() {
        let p = AuthPolicy::paper();
        for user in ["admin", "user", "nproc", "ubuntu"] {
            assert_eq!(
                p.check(&Credentials::new(user, "password")),
                AuthOutcome::Rejected,
                "user {user} must be rejected"
            );
        }
    }

    #[test]
    fn max_attempts_is_three() {
        assert_eq!(AuthPolicy::paper().max_attempts, 3);
    }
}
