//! Credential catalogs, calibrated to the paper's Table 2 and Section 6.
//!
//! Table 2 lists the ten most-used *successful* passwords — a blend of
//! classics ("admin", "1234", "passw0rd") and oddly specific strings
//! ("3245gs5662d34", "vertex25ektks123", "GM8182") that the paper attributes
//! to campaign wordlists or leaked databases. Among failed usernames the
//! paper names "nproc", "admin", and "user".

use rand::Rng;

use hf_proto::creds::Credentials;

/// The paper's Table 2 passwords with generator weights (descending).
pub const TOP_PASSWORDS: &[(&str, u32)] = &[
    ("admin", 180),
    ("1234", 170),
    ("3245gs5662d34", 130),
    ("dreambox", 110),
    ("vertex25ektks123", 95),
    ("12345", 90),
    ("h3c", 80),
    ("1qaz2wsx3edc", 75),
    ("passw0rd", 70),
    ("GM8182", 65),
];

/// Long-tail password pool (weights far below the head).
pub const TAIL_PASSWORDS: &[&str] = &[
    "password",
    "123456",
    "admin123",
    "default",
    "support",
    "qwerty",
    "111111",
    "666666",
    "user",
    "guest",
    "service",
    "system",
    "super",
    "letmein",
    "abc123",
    "pass",
    "raspberry",
    "ubnt",
    "oracle",
    "test",
    "changeme",
    "alpine",
    "anko",
    "xc3511",
    "vizxv",
    "888888",
    "juantech",
    "123321",
    "fucker",
    "klv123",
];

/// Usernames offered in failed attempts (paper: "nproc", "admin", "user" are
/// the most common non-root usernames).
pub const FAIL_USERNAMES: &[(&str, u32)] = &[
    ("nproc", 220),
    ("admin", 200),
    ("user", 150),
    ("ubuntu", 90),
    ("test", 80),
    ("oracle", 70),
    ("postgres", 60),
    ("git", 50),
    ("ftp", 40),
    ("pi", 40),
];

/// Weighted sampler over the credential catalogs.
#[derive(Debug, Clone)]
pub struct CredentialModel {
    pw_cum: Vec<(u32, &'static str)>,
    pw_total: u32,
    user_cum: Vec<(u32, &'static str)>,
    user_total: u32,
}

impl Default for CredentialModel {
    fn default() -> Self {
        Self::new()
    }
}

impl CredentialModel {
    /// Build the default model: head passwords get their Table 2 weights,
    /// tail passwords weight 4 each.
    pub fn new() -> Self {
        let mut pw_cum = Vec::new();
        let mut acc = 0;
        for &(p, w) in TOP_PASSWORDS {
            acc += w;
            pw_cum.push((acc, p));
        }
        for &p in TAIL_PASSWORDS {
            acc += 4;
            pw_cum.push((acc, p));
        }
        let pw_total = acc;
        let mut user_cum = Vec::new();
        let mut uacc = 0;
        for &(u, w) in FAIL_USERNAMES {
            uacc += w;
            user_cum.push((uacc, u));
        }
        CredentialModel {
            pw_cum,
            pw_total,
            user_cum,
            user_total: uacc,
        }
    }

    /// A password for a *successful* login (username is always root).
    pub fn successful_password<R: Rng + ?Sized>(&self, rng: &mut R) -> &'static str {
        let x = rng.gen_range(0..self.pw_total);
        self.pw_cum[self.pw_cum.partition_point(|&(c, _)| c <= x)].1
    }

    /// Credentials for a successful login.
    pub fn successful<R: Rng + ?Sized>(&self, rng: &mut R) -> Credentials {
        Credentials::from_static("root", self.successful_password(rng))
    }

    /// Credentials for a *failed* attempt: either a non-root username, or the
    /// one password that fails for root ("root" itself).
    pub fn failed<R: Rng + ?Sized>(&self, rng: &mut R) -> Credentials {
        if rng.gen_ratio(3, 10) {
            // root:root — the only rejected root password.
            Credentials::from_static("root", "root")
        } else {
            let x = rng.gen_range(0..self.user_total);
            let user = self.user_cum[self.user_cum.partition_point(|&(c, _)| c <= x)].1;
            let pw = self.successful_password(rng);
            Credentials::from_static(user, pw)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_proto::creds::{AuthOutcome, AuthPolicy};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn successful_creds_pass_paper_policy() {
        let m = CredentialModel::new();
        let policy = AuthPolicy::paper();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..500 {
            let c = m.successful(&mut rng);
            assert_eq!(policy.check(&c), AuthOutcome::Accepted, "{c}");
        }
    }

    #[test]
    fn failed_creds_fail_paper_policy() {
        let m = CredentialModel::new();
        let policy = AuthPolicy::paper();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..500 {
            let c = m.failed(&mut rng);
            assert_eq!(policy.check(&c), AuthOutcome::Rejected, "{c}");
        }
    }

    #[test]
    fn table2_passwords_dominate() {
        let m = CredentialModel::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts: std::collections::HashMap<&str, u32> = Default::default();
        for _ in 0..50_000 {
            *counts.entry(m.successful_password(&mut rng)).or_default() += 1;
        }
        let mut ranked: Vec<(&str, u32)> = counts.into_iter().collect();
        ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let top10: std::collections::BTreeSet<&str> =
            ranked[..10].iter().map(|(p, _)| *p).collect();
        let expected: std::collections::BTreeSet<&str> =
            TOP_PASSWORDS.iter().map(|(p, _)| *p).collect();
        assert_eq!(top10, expected, "empirical top-10 must match Table 2");
    }

    #[test]
    fn failed_usernames_include_papers_named_ones() {
        let m = CredentialModel::new();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..5_000 {
            seen.insert(m.failed(&mut rng).username);
        }
        for u in ["nproc", "admin", "user", "root"] {
            assert!(seen.contains(u), "missing {u}");
        }
    }
}
