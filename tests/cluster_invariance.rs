//! The attacker-clustering pipeline against the independent reference for
//! the paper's definitions (`hf_testkit::reference`), whose 24 features
//! are computed from the records alone:
//!
//! * streaming feature extraction from a snapshot
//!   (`features_from_snapshot_stream`, chunk at a time, rows never
//!   materialized);
//! * extraction over a snapshot's write → load round trip;
//! * a proptest that cuts the rows anywhere — mid-day included — into
//!   `FeatureFold::ingest_rows` calls.
//!
//! k-means itself is no definition of the paper's, so its outputs are
//! compared run against run (`diff_clusters`). Plus the pinned edge cases:
//! empty store, single client, all-identical clients (k collapse), and
//! degenerate columns through the NaN guard.

use std::sync::OnceLock;

use honeyfarm::cluster::{
    assignments_tsv, cluster, extract, features_from_snapshot_stream, summary_text, summary_tsv,
    unit01, ClusterRun, FeatureFold, FeatureMatrix, HeadMap, KMeansConfig, N_FEATURES,
};
use honeyfarm::farm::SessionStore;
use honeyfarm::honeypot::ArtifactStore;
use honeyfarm::prelude::*;
use honeyfarm::testkit::{
    diff_clusters, diff_reference, measure_run, project, DiffReport, Measures, Scenario,
};
use proptest::prelude::*;

fn fixture_config() -> SimConfig {
    SimConfig::test(16)
}

/// One run, its aggregates and the reference's measures of its records.
fn fixture() -> &'static (SimOutput, Aggregates, Measures) {
    static FIXTURE: OnceLock<(SimOutput, Aggregates, Measures)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = Simulation::run(fixture_config());
        let agg = Aggregates::compute(&out.dataset);
        let measures = measure_run(&fixture_config(), &out);
        (out, agg, measures)
    })
}

/// A feature matrix of the fixture's rows against the reference.
fn against_reference(features: &FeatureMatrix) -> DiffReport {
    let (out, agg, want) = fixture();
    diff_reference(want, &project(&out.dataset, agg, features))
}

// ---------------------------------------------------------------------------
// Streaming and snapshot round trip
// ---------------------------------------------------------------------------

/// The fixture in 97-row chunks: many chunks, most ending mid-day, so the
/// reader's overlapped arm runs, as it does on every multi-chunk file.
fn snapshot_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    fixture()
        .0
        .to_snapshot(&fixture_config())
        .write_to_chunked(&mut bytes, 97)
        .expect("write snapshot");
    bytes
}

#[test]
fn streaming_features_match_materialized() {
    assert!(
        fixture().0.dataset.len() > 100,
        "fixture must be non-trivial"
    );
    let bytes = snapshot_bytes();
    let (plan, streamed) =
        features_from_snapshot_stream(bytes.as_slice()).expect("streaming extract");
    assert_eq!(plan.len(), fixture().0.dataset.plan.len());
    against_reference(&streamed.matrix()).assert_identical();

    let cfg = KMeansConfig::default();
    let mat_run = ClusterRun::finish(extract(&fixture().0.dataset), &cfg);
    assert!(mat_run.output.k >= 2, "fixture must actually cluster");
    let stream_run = ClusterRun::finish(streamed, &cfg);
    diff_clusters(
        &mat_run.output,
        &stream_run.output,
        "materialized",
        "streaming",
    )
    .assert_identical();
}

#[test]
fn snapshot_roundtrip_clusters_identically() {
    let bytes = snapshot_bytes();
    let reloaded = SimOutput::from_snapshot(
        Snapshot::read_from(&mut bytes.as_slice()).expect("snapshot load"),
    );
    let cfg = KMeansConfig::default();
    let original = ClusterRun::over(&fixture().0.dataset, 1, &cfg);
    let roundtrip = ClusterRun::over(&reloaded.dataset, 1, &cfg);
    against_reference(&roundtrip.matrix).assert_identical();
    diff_clusters(&original.output, &roundtrip.output, "original", "roundtrip").assert_identical();
}

// ---------------------------------------------------------------------------
// Arbitrary cuts (proptest)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cut the fixture's rows at arbitrary row indices and fold each piece
    /// with its own `ingest_rows` call: the finished matrix matches the
    /// reference. Cuts come from every row index, so they fall mid-day the
    /// way 64 Ki-row snapshot chunk boundaries do, and every partition has
    /// at least one such cut.
    #[test]
    fn any_day_partition_folds_to_the_same_features(
        mut cuts in prop::collection::vec(1..fixture().0.dataset.len(), 1..12)
    ) {
        let dataset = &fixture().0.dataset;
        let store = &dataset.sessions;
        let rows = store.rows();
        cuts.sort_unstable();
        cuts.dedup();
        prop_assert!(
            cuts.iter().any(|&c| store.view(c - 1).day() == store.view(c).day()),
            "no cut falls inside a day: {cuts:?}"
        );

        let mut heads = HeadMap::new();
        heads.sync(&store.commands);
        let mut fold = FeatureFold::new();
        let mut start = 0;
        for end in cuts.into_iter().chain([rows.len()]) {
            fold.ingest_rows(store, &dataset.plan, &heads, &rows[start..end]);
            start = end;
        }
        let diff = against_reference(&fold.finish(dataset.plan.len()).matrix());
        prop_assert!(diff.is_identical(), "{}", diff.render());
    }
}

// ---------------------------------------------------------------------------
// Edge cases — defined, non-panicking output
// ---------------------------------------------------------------------------

fn empty_dataset() -> Dataset {
    Dataset {
        sessions: SessionStore::new(),
        artifacts: ArtifactStore::new(),
        plan: FarmPlan::paper(),
    }
}

#[test]
fn empty_store_yields_empty_defined_output() {
    let run = ClusterRun::over(&empty_dataset(), 1, &KMeansConfig::default());
    assert!(run.matrix.is_empty());
    assert_eq!(run.output.k, 0);
    assert!(run.output.assignments.is_empty());
    assert!(run.output.sizes.is_empty());

    // The report surfaces still render (header-only TSVs, no panic).
    let a = assignments_tsv(&run.features, &run.matrix, &run.output);
    assert_eq!(a.lines().count(), 1, "assignments TSV is header-only:\n{a}");
    let s = summary_tsv(&run.output);
    assert!(
        s.contains("# clients\t0"),
        "summary renders its preamble:\n{s}"
    );
    let t = summary_text(&run.features, &run.output);
    assert!(t.contains("clients 0"), "text summary renders:\n{t}");
}

/// One client cannot be split: k = 1, one cluster of size 1, and the
/// degenerate silhouette is pinned rather than NaN.
#[test]
fn single_client_collapses_to_one_cluster() {
    let world = honeyfarm::geo::World::build(1, &honeyfarm::geo::WorldConfig::tiny());
    let text = "name solo\nprotocol ssh\nhoneypot 0\nclient 203.0.113.7\nport 40001\n\
                login root root\ncmd uname -a\nclose\n";
    let rec = Scenario::parse(text).expect("scenario").replay();
    let mut c = Collector::new(&world, FarmPlan::paper());
    c.ingest(&rec);
    let run = ClusterRun::over(&c.finish(), 1, &KMeansConfig::default());
    assert_eq!(run.matrix.len(), 1);
    assert_eq!(run.output.k, 1);
    assert_eq!(run.output.sizes, vec![1]);
    assert_eq!(run.output.assignments[0].1, 0);
    assert_eq!(run.output.silhouette, -1.0);
}

/// All-identical feature rows: every candidate k collapses to a single
/// nonempty cluster, so the canonical output is k = 1 with the pinned
/// degenerate silhouette — not a panic, not an arbitrary split.
#[test]
fn identical_clients_collapse_to_one_cluster() {
    let n = 12usize;
    let mut row = [0.0f64; N_FEATURES];
    row[0] = 0.25;
    row[7] = 0.5;
    let m = FeatureMatrix {
        clients: (1..=n as u32).collect(),
        data: row.iter().copied().cycle().take(n * N_FEATURES).collect(),
    };
    let out = cluster(&m, &KMeansConfig::default());
    assert_eq!(out.k, 1);
    assert_eq!(out.sizes, vec![n as u64]);
    assert_eq!(out.silhouette, -1.0);
    assert!(out.assignments.iter().all(|&(_, c)| c == 0));
}

/// Degenerate columns (0/0 rates on clients with no logins, no commands)
/// must come out of the NaN guard as finite unit-interval cells — checked
/// on the guard itself and on every cell of the real fixture matrix.
#[test]
fn matrix_cells_are_finite_unit_interval() {
    assert_eq!(unit01(f64::NAN), 0.0);
    assert_eq!(unit01(f64::INFINITY), 0.0);
    assert_eq!(unit01(-3.0), 0.0);
    assert_eq!(unit01(7.5), 1.0);

    let m = extract(&fixture().0.dataset).matrix();
    assert!(!m.is_empty());
    for i in 0..m.len() {
        for (f, &v) in m.row(i).iter().enumerate() {
            assert!(
                v.is_finite() && (0.0..=1.0).contains(&v),
                "cell [{i}][{f}] out of range: {v}"
            );
        }
    }
}
