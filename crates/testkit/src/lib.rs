//! # hf-testkit — correctness tooling for the honeyfarm reproduction
//!
//! Four pillars, each its own module:
//!
//! * [`scenario`] — a textual `.hfs` format describing one attacker session
//!   (protocol, credential attempts, command lines, idle periods), replayed
//!   through the real honeypot state machine, shell interpreter, and VFS.
//!   The resulting [`scenario::Scenario::event_log`] is a stable line
//!   rendering suitable for golden-file comparison.
//! * [`golden`] — golden-file checking with readable line diffs and
//!   `UPDATE_GOLDENS=1` regeneration.
//! * [`oracle`] — differential oracles over [`hf_sim::SimOutput`]: typed,
//!   field-level comparison of two outputs (rows, pools, artifacts, tags)
//!   that names exactly which field diverged instead of asserting on an
//!   opaque blob. Used to prove thread-count invariance, ingest-batch
//!   invariance, and snapshot round-trip equivalence.
//! * [`strategies`] — structured proptest generators for the parsing
//!   surfaces (telnet negotiation, SSH ident lines, shell command lines,
//!   URI payloads) and targeted snapshot corruption, powering the
//!   panic-freedom fuzz suites.
//! * [`claims`] — the declarative paper-claims table: every Table/Figure
//!   tolerance as one [`claims::ClaimSpec`], shared between
//!   `tests/paper_claims.rs` and `hfarm verify --claims`.
//! * [`alloc`] — a counting `#[global_allocator]` so allocation-budget
//!   tests can pin the hot path's zero-steady-state-allocation discipline.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod alloc;
pub mod claims;
pub mod cluster_oracle;
pub mod golden;
pub mod oracle;
pub mod scenario;
pub mod strategies;

pub use alloc::{allocated_bytes, allocation_count, CountingAlloc};
pub use claims::{claim_specs, evaluate, ClaimCtx, ClaimResult, ClaimSpec, Expectation};
pub use cluster_oracle::{diff_clusters, diff_features};
pub use golden::{assert_golden, check_golden, GoldenError, GoldenOutcome};
pub use oracle::{
    assert_outputs_identical, diff_aggregates, diff_datasets, diff_manifests, diff_reports,
    diff_sim_outputs, diff_tagdbs, DiffReport, Mismatch,
};
pub use scenario::{Scenario, ScenarioError};
pub use strategies::{
    command_line, render_statements, snapshot_mutation, ssh_ident_line, telnet_stream,
    uri_command_line, MutOp,
};
