//! Golden-pinned clustering conformance (ISSUE 10, satellite 1): the
//! checked-in `.hfs` scenario corpus replays through the real honeypot
//! stack into a dataset, the clustering pipeline runs over it, and the
//! rendered assignment + summary TSVs must match their goldens
//! byte-for-byte. A second golden pins the summary of a small full-sim
//! fixture, so both the hand-authored corpus and the generative engine
//! are covered.
//!
//! After an intended behavior change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --release --test cluster_goldens
//! ```

use std::path::PathBuf;

use honeyfarm::cluster::{assignments_tsv, summary_tsv, ClusterRun, KMeansConfig};
use honeyfarm::geo::{World, WorldConfig};
use honeyfarm::prelude::*;
use honeyfarm::testkit::{assert_golden, Scenario};

fn scenario_paths() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/scenarios exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "hfs"))
        .collect();
    paths.sort();
    paths
}

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{name}"))
}

/// Replay the whole scenario corpus into one dataset. Records are sorted
/// by start time before ingest so the store is day-ordered (the same
/// contract the simulation runner guarantees).
fn corpus_dataset() -> Dataset {
    let mut records: Vec<SessionRecord> = scenario_paths()
        .into_iter()
        .map(|p| {
            Scenario::load(&p)
                .unwrap_or_else(|e| panic!("{}: {e}", p.display()))
                .replay()
        })
        .collect();
    assert!(records.len() >= 6, "expected a non-trivial corpus");
    records.sort_by_key(|r| r.start);
    let world = World::build(1, &WorldConfig::tiny());
    let mut collector = Collector::new(&world, FarmPlan::paper());
    collector.ingest_batch(&records);
    collector.finish()
}

/// The corpus clustering's per-client assignment table, byte-for-byte.
/// Every scenario client appears with its full normalized feature vector,
/// so a drifted feature definition fails here with the exact cell named
/// in the diff.
#[test]
fn corpus_assignments_match_golden() {
    let run = ClusterRun::over(&corpus_dataset(), 1, &KMeansConfig::default());
    assert_golden(
        &golden("cluster_assignments.tsv.golden"),
        &assignments_tsv(&run.features, &run.matrix, &run.output),
    );
}

/// The corpus clustering's summary table (k, silhouette, sweep, and
/// per-cluster centroids), byte-for-byte.
#[test]
fn corpus_summary_matches_golden() {
    let run = ClusterRun::over(&corpus_dataset(), 1, &KMeansConfig::default());
    assert_golden(
        &golden("cluster_summary.tsv.golden"),
        &summary_tsv(&run.output),
    );
}

/// Clustering a small full-simulation fixture pins the generative path:
/// the chosen k, the whole silhouette sweep, and every centroid cell of
/// `SimConfig::test(12)` must not move without a golden update.
#[test]
fn sim_fixture_summary_matches_golden() {
    let out = Simulation::run(SimConfig::test(12));
    assert!(out.dataset.len() > 100, "fixture must be non-trivial");
    let run = ClusterRun::over(&out.dataset, 1, &KMeansConfig::default());
    assert_golden(
        &golden("cluster_sim_summary.tsv.golden"),
        &summary_tsv(&run.output),
    );
}

/// Golden regeneration is only trustworthy if the pipeline is
/// deterministic over the corpus: two fresh end-to-end runs must render
/// identical bytes.
#[test]
fn corpus_clustering_is_deterministic() {
    let render = || {
        let run = ClusterRun::over(&corpus_dataset(), 1, &KMeansConfig::default());
        (
            assignments_tsv(&run.features, &run.matrix, &run.output),
            summary_tsv(&run.output),
        )
    };
    assert_eq!(render(), render(), "corpus clustering must be repeatable");
}
