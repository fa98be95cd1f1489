//! The paper's measurement pipeline — the primary contribution of
//! *"Fifteen Months in the Life of a Honeyfarm"* (IMC '23), reimplemented as
//! a library over the honeyfarm dataset.
//!
//! - [`classify`](mod@classify): the five-way session taxonomy of Section 6 (NO_CRED /
//!   FAIL_LOG / NO_CMD / CMD / CMD+URI) and the scanner/scouter/intruder
//!   behaviour classes,
//! - [`metrics`]: the statistics toolkit — ECDFs, daily percentile bands
//!   (median/IQR/5–95), rank curves, hash-freshness windows, regional
//!   diversity,
//! - [`aggregates`]: a single streaming pass over the session store that
//!   computes every per-day / per-honeypot / per-client / per-hash grouping
//!   the reports need,
//! - [`report`]: one reproducer per table (T1–T6) and figure (F1–F24) of the
//!   paper, each returning typed rows/series and rendering to text,
//! - [`claims`]: the headline scalar findings (top-10 honeypots ≈ 14% of
//!   sessions, >60% of hashes seen by one honeypot, ~40% multi-role IPs, …)
//!   computed from the dataset for the EXPERIMENTS.md comparison,
//! - [`federation`] and [`birth`]: the Discussion-section analyses —
//!   quantifying the coverage/early-warning gain of federating independent
//!   honeyfarms, and the farm's discovery timeline after launch.
//!
//! ```no_run
//! use hf_sim::{SimConfig, Simulation};
//! use hf_core::{aggregates::Aggregates, report::Report};
//!
//! let out = Simulation::run(SimConfig::default());
//! let agg = Aggregates::compute(&out.dataset);
//! let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);
//! println!("{}", report.table1);
//! ```

pub mod aggregates;
pub mod birth;
pub mod claims;
pub mod classify;
pub mod federation;
pub mod idhash;
pub mod metrics;
pub mod report;

pub use aggregates::{Aggregates, StreamingFold};
pub use birth::{birth_report, BirthReport};
pub use claims::Claims;
pub use classify::{classify, BehaviorClass, Category};
pub use federation::{federate, FarmSightings, FederationReport};
pub use report::{Report, Tsv};
