//! Paper-claims regression suite, driven by the testkit's declarative
//! claim table (`honeyfarm::testkit::claims`): every Table 1/4–6 number and
//! figure shape the reproduction asserts lives in one `ClaimSpec` row,
//! shared with `hfarm verify --claims`, so the test suite and the
//! EXPERIMENTS.md report can never drift apart.
//!
//! The fixture runs the canonical full-window simulation once, through the
//! day loop's two-stage pipeline, so the claims below are also a regression
//! suite for that pipeline over the paper's whole window.

use std::sync::OnceLock;

use honeyfarm::prelude::*;
use honeyfarm::testkit::claims;

fn fixture() -> &'static SimOutput {
    static FIXTURE: OnceLock<SimOutput> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        Simulation::run(SimConfig {
            seed: 0x0e0e_fa20,
            scale: Scale::of(0.002),
            window: StudyWindow::paper(),
            ..SimConfig::default()
        })
    })
}

/// Every claim in the declarative table holds on the canonical fixture.
/// On failure the message lists each out-of-tolerance claim with its
/// paper expectation and the measured value.
#[test]
fn all_paper_claims_hold() {
    let ctx = claims::ClaimCtx::new(fixture());
    let results = claims::evaluate(&ctx);
    assert!(results.len() >= 40, "claim table unexpectedly small");
    let failed: Vec<_> = results.iter().filter(|r| !r.pass).collect();
    assert!(
        failed.is_empty(),
        "{} claim(s) out of tolerance:\n{}",
        failed.len(),
        claims::render_text(&results)
    );
}

/// The claim table covers every paper surface the suite used to assert
/// piecemeal: all five categories, the hash tables, and each figure family.
#[test]
fn claim_table_covers_the_paper_surfaces() {
    let ids: Vec<&str> = claims::claim_specs().iter().map(|s| s.id).collect();
    for prefix in [
        "table1.", "table2.", "table3.", "table4.", "table6.", "fig2.", "fig7.", "fig10.",
        "fig11.", "fig12.", "fig13.", "fig16.", "fig17.", "clients.", "hashes.", "roles.",
        "anomaly.",
    ] {
        assert!(
            ids.iter().any(|id| id.starts_with(prefix)),
            "no claim covers {prefix}*"
        );
    }
}
