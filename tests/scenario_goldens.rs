//! Scenario-replay conformance: every checked-in `.hfs` scenario under
//! `tests/scenarios/` replays through the real honeypot stack and its
//! event log must match the checked-in `.golden` next to it.
//!
//! After an intended behavior change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test scenario_goldens
//! ```
//!
//! Stale goldens fail with a line-level diff naming exactly what moved.

use std::collections::BTreeSet;
use std::path::PathBuf;

use honeyfarm::core::classify::Category;
use honeyfarm::testkit::scenario::classify_record;
use honeyfarm::testkit::{assert_golden, Scenario};

fn scenario_paths() -> Vec<PathBuf> {
    Scenario::paths_in(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios"))
}

/// Each scenario's event log matches its golden (or regenerates it under
/// `UPDATE_GOLDENS=1`).
#[test]
fn scenario_event_logs_match_goldens() {
    let paths = scenario_paths();
    assert!(
        paths.len() >= 6,
        "expected ≥6 scenarios, found {}",
        paths.len()
    );
    for path in paths {
        let scenario = Scenario::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_golden(&path.with_extension("golden"), &scenario.event_log());
    }
}

/// Replaying the same scenario twice yields byte-identical event logs —
/// the precondition for golden regeneration being deterministic.
#[test]
fn replay_is_deterministic() {
    for path in scenario_paths() {
        let scenario = Scenario::load(&path).expect("scenario loads");
        assert_eq!(
            scenario.event_log(),
            scenario.event_log(),
            "{} replays nondeterministically",
            path.display()
        );
    }
}

/// The checked-in scenarios cover every leaf of the paper's session
/// taxonomy, and the intrusion leaves include a download.
#[test]
fn scenarios_cover_the_taxonomy() {
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut saw_download = false;
    let mut saw_file_touch = false;
    for path in scenario_paths() {
        let scenario = Scenario::load(&path).expect("scenario loads");
        let record = scenario.replay();
        seen.insert(classify_record(&record).label());
        saw_download |= !record.download_hashes.is_empty();
        saw_file_touch |= !record.file_hashes.is_empty();
    }
    for cat in Category::ALL {
        assert!(
            seen.contains(cat.label()),
            "no scenario covers {}: have {seen:?}",
            cat.label()
        );
    }
    assert!(saw_download, "no scenario produces a download hash");
    assert!(saw_file_touch, "no scenario touches a file");
}
