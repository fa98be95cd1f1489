//! The honeyfarm simulator.
//!
//! Takes the attacker ecosystem's daily [`hf_agents::SessionPlan`]s and
//! executes each one against the *real* honeypot implementation — the
//! [`hf_honeypot::SessionDriver`] state machine with its auth policy and
//! timeouts, and the [`hf_shell`] emulator for every intrusion script. The
//! collector ingests the resulting [`hf_honeypot::SessionRecord`]s exactly
//! as it would from live deployments, yielding the 15-month dataset the
//! analyses in `hf-core` run against, plus the hash [`hf_farm::TagDb`].
//!
//! This is the data-gate substitution documented in DESIGN.md: the paper's
//! private 402M-session database is replaced by a synthetic dataset that
//! flows through the identical honeypot code path.

pub mod error;
pub mod exec;
pub mod parallel;
pub mod runner;

pub use error::SimError;
pub use exec::{ExecCtx, PreparedScripts};
pub use parallel::DayMode;
pub use runner::{FoldOutput, SimConfig, SimOutput, Simulation};
