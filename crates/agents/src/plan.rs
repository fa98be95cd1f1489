//! Session plans: the unit of work a traffic source hands the simulator.
//!
//! A plan says *who* (client), *where* (honeypot), *when* (day + second of
//! day), *how* (protocol), and *what* (behavior). The simulator executes each
//! plan through the real honeypot state machine; per-session details that
//! don't change aggregate shapes (think times, the exact failed password of
//! attempt #2, the SSH banner) are derived from the plan's `seed`.

use hf_proto::Protocol;

use crate::campaigns::CampaignId;
use crate::clients::ClientRef;

/// What the client does once connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Port scan: connect, never send credentials (NO_CRED).
    /// `linger_secs` is how long the client keeps the connection open; 60+
    /// means the honeypot's pre-auth timeout fires instead.
    Scan { linger_secs: u16 },
    /// Brute-force attempt: `attempts` failed logins (1..=3), then either the
    /// client gives up or, at 3, the honeypot disconnects it (FAIL_LOG).
    Scout { attempts: u8 },
    /// Successful login, then nothing (NO_CMD). If `idle_to_timeout`, the
    /// client waits for the honeypot's 3-minute timer (the paper observes
    /// >90% of NO_CMD sessions end by timeout); otherwise it closes early.
    LoginIdle { idle_to_timeout: bool },
    /// Successful login followed by the campaign's command script
    /// (CMD or CMD+URI depending on the script).
    Script { campaign: CampaignId },
    /// Successful login followed by a file-less reconnaissance script
    /// (uname / free / cpuinfo …) — the two thirds of CMD sessions that
    /// never touch the filesystem (Section 8.1).
    Recon { variant: u16 },
}

/// One planned session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlan {
    /// Day index within the study window.
    pub day: u32,
    /// Start second within the day.
    pub start_secs: u32,
    /// Target honeypot id.
    pub honeypot: u16,
    /// Protocol used.
    pub protocol: Protocol,
    /// The acting client.
    pub client: ClientRef,
    /// What happens.
    pub behavior: Behavior,
    /// Seed for per-session execution details.
    pub seed: u64,
}
