//! The honeyfarm: deployment plan and central collector.
//!
//! The paper's farm is 221 identically-configured Cowrie honeypots in 55
//! countries and 65 ASes, reporting per-session summaries to a central
//! database (Section 4). This crate provides:
//!
//! - [`deployment`]: the node plan — per-honeypot IP, AS, country, and
//!   machine profile, with the paper's country/AS cardinalities,
//! - [`intern`]: string/digest/list interning pools that make a
//!   hundreds-of-millions-of-sessions store feasible (campaign sessions
//!   repeat identical credential and command lists, so interning collapses
//!   them to one id),
//! - [`store`]: the columnar [`store::SessionStore`] with a typed
//!   [`store::SessionView`] query API,
//! - [`collector`]: the ingest pipeline gluing honeypot
//!   [`hf_honeypot::SessionRecord`]s, geolocation, and the artifact store
//!   into a finished [`collector::Dataset`],
//! - [`snapshot`]: the `hfstore` on-disk format — versioned, per-section
//!   checksummed snapshots of store + tags + deployment, so reanalysis
//!   (`hfarm report`) never has to re-simulate.

pub mod collector;
pub mod deployment;
pub mod intern;
pub mod snapshot;
pub mod store;
pub mod tags;

pub use collector::{Collector, Dataset};
pub use deployment::{FarmPlan, HoneypotNode};
pub use intern::{DigestPool, ListPool, StringPool};
pub use snapshot::{DayOrder, Snapshot, SnapshotError, SnapshotMeta, SnapshotReader};
pub use store::{Row, SessionStore, SessionView};
pub use tags::{TagDb, TagEntry};
