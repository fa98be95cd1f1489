//! # hf-testkit — correctness tooling for the honeyfarm reproduction
//!
//! One pillar per module:
//!
//! * [`mod@reference`] — an independent, deliberately naive implementation of
//!   the paper's definitions over session records, from Table 1's taxonomy
//!   to the 24 cluster features.
//! * [`oracle`] — field-level comparisons that name the field that
//!   diverged: [`diff_reference`] checks a fold's output against the
//!   reference; the run-vs-run oracles ([`diff_sim_outputs`],
//!   [`diff_reports`], [`diff_manifests`], [`diff_clusters`]) prove repeat
//!   runs, metrics on/off, reloads and the wire farm bit-identical.
//! * [`scenario`] — a textual `.hfs` format describing one attacker session
//!   (protocol, credential attempts, command lines, idle periods), replayed
//!   through the real honeypot state machine, shell interpreter, and VFS.
//!   The resulting [`scenario::Scenario::event_log`] is a stable line
//!   rendering suitable for golden-file comparison.
//! * [`golden`] — golden-file checking with readable line diffs and
//!   `UPDATE_GOLDENS=1` regeneration.
//! * [`strategies`] — structured proptest generators: whole session
//!   records ([`session_record`]), the parsing surfaces (telnet
//!   negotiation, SSH ident lines, shell command lines, URI payloads),
//!   targeted snapshot corruption, and rows-chunk edits re-stamped to reach
//!   the column decoder ([`ChunkEdit`], over [`RowsLayout`]).
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
pub mod reference;
pub mod scenario;
pub mod strategies;

pub use alloc::{allocated_bytes, allocation_count, CountingAlloc};
pub use claims::{claim_specs, evaluate, ClaimCtx, ClaimResult, ClaimSpec, Expectation};
pub use cluster_oracle::diff_clusters;
pub use golden::{assert_golden, check_golden, GoldenError, GoldenOutcome};
pub use oracle::{
    assert_outputs_identical, diff_datasets, diff_manifests, diff_reference, diff_reports,
    diff_sim_outputs, diff_tagdbs, measure_run, project, project_federation, records_of,
    DiffReport, Mismatch,
};
pub use reference::Measures;
pub use scenario::{Scenario, ScenarioError};
pub use strategies::{
    chunk_edit, command_line, record_world, render_statements, restamp_rows, session_record,
    snapshot_mutation, ssh_ident_line, telnet_stream, uri_command_line, ChunkEdit, MutOp,
    RowsLayout,
};
