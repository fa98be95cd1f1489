//! Honeypot instance configuration.

use hf_proto::creds::AuthPolicy;
use hf_shell::SystemProfile;
use serde::{Deserialize, Serialize};

/// Configuration of one honeypot instance. All 221 instances in the paper's
/// farm are "identically configured" — the only thing that varies here is the
/// presented machine profile (hostname etc.), which does not affect policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoneypotConfig {
    /// Authentication policy (paper: root / anything-but-"root", 3 attempts).
    pub auth: AuthPolicy,
    /// Seconds a connected-but-unauthenticated client may idle before the
    /// honeypot closes the session (the lower dashed line in Fig. 7).
    pub preauth_timeout_secs: u32,
    /// Seconds an authenticated client may idle before timeout — the paper's
    /// "three minutes" (the upper dashed line in Fig. 7).
    pub idle_timeout_secs: u32,
    /// Machine identity shown by the shell.
    pub profile: SystemProfile,
}

impl Default for HoneypotConfig {
    fn default() -> Self {
        Self::paper(SystemProfile::default())
    }
}

impl HoneypotConfig {
    /// The paper's configuration with a given machine profile.
    pub fn paper(profile: SystemProfile) -> Self {
        HoneypotConfig {
            auth: AuthPolicy::paper(),
            preauth_timeout_secs: 60,
            idle_timeout_secs: 180,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = HoneypotConfig::default();
        assert_eq!(c.idle_timeout_secs, 180);
        assert_eq!(c.preauth_timeout_secs, 60);
        assert_eq!(c.auth.max_attempts, 3);
    }
}
