//! Credentials and the honeypot's authentication policy.
//!
//! Section 4 of the paper describes the farm's policy precisely: only
//! password auth; the username must be `root`; any password is accepted
//! *except* the literal string `root`; public-key auth is unsupported; the
//! same rules apply to Telnet. [`AuthPolicy`] encodes that as data so tests
//! and ablations can vary it.

use std::borrow::Cow;

/// A username/password pair offered at login.
///
/// Each string is a `Cow`: what a client sent over the wire is owned
/// ([`Credentials::new`]), while a simulated attacker drawing from a static
/// dictionary borrows it ([`Credentials::from_static`]) and allocates
/// nothing. Equality, ordering and hashing compare the text either way.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Credentials {
    /// Login name.
    pub username: Cow<'static, str>,
    /// Password string.
    pub password: Cow<'static, str>,
}

impl Credentials {
    /// Credentials holding their own copies of `username` and `password`.
    pub fn new(username: &str, password: &str) -> Self {
        Credentials {
            username: Cow::Owned(username.to_string()),
            password: Cow::Owned(password.to_string()),
        }
    }

    /// Credentials that borrow static strings: no allocation.
    pub const fn from_static(username: &'static str, password: &'static str) -> Self {
        Credentials {
            username: Cow::Borrowed(username),
            password: Cow::Borrowed(password),
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
            && !self.denied_passwords.iter().any(|p| *p == creds.password)
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
    fn borrowed_and_owned_credentials_compare_by_text() {
        let owned = Credentials::new("root", "1234");
        let borrowed = Credentials::from_static("root", "1234");
        assert!(matches!(borrowed.password, Cow::Borrowed(_)));
        assert_eq!(owned, borrowed);
        assert_eq!(owned.cmp(&borrowed), std::cmp::Ordering::Equal);
        assert_eq!(owned.to_string(), borrowed.to_string());
        let p = AuthPolicy::paper();
        assert_eq!(p.check(&borrowed), AuthOutcome::Accepted);
        assert_eq!(
            p.check(&Credentials::from_static("root", "root")),
            AuthOutcome::Rejected
        );
    }

    #[test]
    fn max_attempts_is_three() {
        assert_eq!(AuthPolicy::paper().max_attempts, 3);
    }
}
