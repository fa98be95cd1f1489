//! Live network front-end for the honeyfarm.
//!
//! The simulator exercises the honeypot state machine in-process; this crate
//! exposes the *same* state machine on real TCP sockets, so the reproduction
//! demonstrably contains a working honeypot farm — not just a model of one.
//! A single-threaded epoll reactor (no async runtime; the offline build
//! vendors nothing) multiplexes every virtual node's SSH and Telnet
//! listeners, drives each accepted connection through
//! [`hf_honeypot::SessionDriver`] / the emulated shell / `hf-proto`
//! negotiation — the exact code path `Scenario::replay` uses — and ingests
//! each completed [`hf_honeypot::SessionRecord`] into its own
//! [`hf_farm::Collector`] before the socket closes.
//!
//! Module map:
//!
//! - [`epoll`]: minimal epoll(7) wrapper (raw glibc symbols, no libc crate),
//! - [`conn`]: per-connection session state machine — telnet/SSH dialogue,
//!   the `@hfs` in-band control channel, fault policies,
//! - [`farm`]: the [`LiveFarm`] — listener set, the reactor thread (which
//!   also collects), graceful drain-on-shutdown,
//! - [`stats`]: [`FarmStats`] accounting (`accepted == ingested + rejected`),
//! - [`script`]: `.hfs` [`Scenario`] → client wire bytes,
//! - [`client`]: blocking one-shot session client for tests and tools,
//! - [`loadgen`]: epoll-driven load generator (rolling and hold-all modes).
//!
//! Every virtual node keeps its distinct address on loopback via
//! [`mirror_addr`]: the deployment plan's `198.18.x.y` becomes `127.18.x.y`,
//! which Linux binds without configuration.
//!
//! [`Scenario`]: hf_testkit::Scenario

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod conn;
pub mod epoll;
pub mod farm;
pub mod loadgen;
pub mod script;
pub mod stats;

pub use client::run_script;
pub use conn::{ConnParams, SessionConn, Timing, MAX_LINE, NEGOTIATION_BUDGET};
pub use farm::{mirror_addr, FarmConfig, FarmOutput, LiveFarm, NodeAddrs};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use script::{wire_script, wire_script_as};
pub use stats::FarmStats;
