//! Honeypot instance configuration.

use std::sync::{Arc, OnceLock};

use hf_proto::creds::AuthPolicy;
use hf_shell::{SystemProfile, Vfs};

/// Configuration of one honeypot instance. All 221 instances in the paper's
/// farm are "identically configured" — the only thing that varies here is the
/// presented machine profile (hostname etc.), which does not affect policy.
///
/// Sessions share their node's config, its profile and its seeded
/// filesystem image by reference count (`SessionDriver::accept` takes an
/// `Arc`), so starting one copies nothing: each shell gets a copy-on-write
/// view of the image, the per-session copy-on-login filesystem Cowrie gives
/// each client.
#[derive(Debug, Clone)]
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
    pub profile: Arc<SystemProfile>,
    /// The filesystem every shell on this node starts from, seeded from
    /// `profile` once, when the node's first shell starts: a node no client
    /// logs in to never builds one.
    image: OnceLock<Vfs>,
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
            profile: Arc::new(profile),
            image: OnceLock::new(),
        }
    }

    /// The node's seeded filesystem image, built on first use.
    pub fn image(&self) -> &Vfs {
        self.image.get_or_init(|| Vfs::seeded(&self.profile))
    }

    /// The paper's configuration for each of a farm's nodes, which present
    /// `profiles` in node order. Nodes that present the same profile share
    /// one config, and so one seeded image.
    pub fn per_node(profiles: impl IntoIterator<Item = SystemProfile>) -> Vec<Arc<Self>> {
        let mut configs: Vec<Arc<Self>> = Vec::new();
        for profile in profiles {
            let config = match configs.iter().find(|c| *c.profile == profile) {
                Some(same) => Arc::clone(same),
                None => Arc::new(Self::paper(profile)),
            };
            configs.push(config);
        }
        configs
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
        assert_eq!(c.image(), &Vfs::seeded(&c.profile));
    }

    #[test]
    fn nodes_with_one_profile_share_one_config() {
        let configs = HoneypotConfig::per_node((0..130).map(SystemProfile::for_node));
        assert_eq!(configs.len(), 130);
        for (n, c) in configs.iter().enumerate() {
            assert_eq!(*c.profile, SystemProfile::for_node(n as u32));
        }
        assert!(Arc::ptr_eq(&configs[3], &configs[67]));
        assert!(!Arc::ptr_eq(&configs[3], &configs[4]));
        let mut distinct: Vec<*const HoneypotConfig> = configs.iter().map(Arc::as_ptr).collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 64, "the profiles cycle every 64 nodes");
    }
}
