//! The medium-interaction SSH/Telnet honeypot (Cowrie-class), from scratch.
//!
//! A honeypot instance accepts sessions on ports 22/23, applies the paper's
//! authentication policy (root / anything-but-"root", three attempts), hands
//! successful logins an emulated shell ([`hf_shell`]), enforces the pre-auth
//! and post-auth timeouts described in Section 4 (sessions end by client
//! teardown or a three-minute timeout), and records per-session summaries —
//! start/end time, client endpoint, SSH client version, credentials,
//! commands (known/unknown), URIs, and SHA-256 hashes of files created or
//! modified.
//!
//! The crate is transport-agnostic: [`session::SessionDriver`] is a pure
//! state machine driven by inputs. The `hf-wire` crate drives it from real
//! TCP connections; the `hf-sim` crate drives it from synthetic attacker
//! scripts. Both paths produce identical [`record::SessionRecord`]s, which is
//! what makes the simulated dataset a faithful substitute for the paper's.

pub mod artifacts;
pub mod config;
pub mod record;
pub mod session;

pub use artifacts::ArtifactStore;
pub use config::HoneypotConfig;
pub use record::{EndReason, LoginAttempt, SessionRecord};
pub use session::{AuthResult, SessionDriver};
