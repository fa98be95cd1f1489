//! Streaming-vs-materialized differential suite — the oracle behind the
//! out-of-core analysis path (ISSUE 7 tentpole).
//!
//! Three equivalences, all required to be **bit-for-bit**:
//!
//! * `Simulation::run_fold` (day-windowed fold, rows retired as days
//!   complete) against the materialized `Simulation::run` +
//!   `Aggregates::compute`, across thread counts {1, 2, 8} and scales
//!   {0.001, 0.01} — aggregates, tags, reports, and the claims table.
//! * `FoldOutput::from_snapshot_stream` (chunked snapshot reader feeding
//!   the fold) against materializing the same snapshot.
//! * A proptest that *any* day-aligned partition of the row range folds
//!   and assembles (`Aggregates::partial` + `Aggregates::assemble`) to the
//!   same state as the one-shot pass — the associativity the whole
//!   streaming design rests on.

use std::sync::OnceLock;

use honeyfarm::prelude::*;
use honeyfarm::testkit::{claims, diff_aggregates, diff_datasets, diff_reports, diff_tagdbs};
use proptest::prelude::*;

/// Run one streaming-vs-materialized differential at the given config.
fn assert_fold_matches(scale: f64, days: u32, threads: usize) {
    let config = SimConfig {
        seed: 0x57e4,
        scale: Scale::of(scale),
        window: StudyWindow::first_days(days),
        use_script_cache: false,
        threads: 1,
    };
    let out = Simulation::run(config.clone());
    let agg = Aggregates::compute(&out.dataset);

    let fold = Simulation::run_fold(SimConfig {
        threads,
        ..config.clone()
    });
    let label = format!("fold threads={threads}");

    assert!(
        fold.dataset.sessions.is_empty(),
        "fold mode must retire every row"
    );
    assert_eq!(out.n_clients, fold.n_clients, "{label}: n_clients");
    diff_aggregates("materialized", &agg, &label, &fold.aggregates).assert_identical();
    diff_tagdbs("materialized", &out.tags, &label, &fold.tags).assert_identical();

    // Reports built from the row-free dataset + folded aggregates must be
    // byte-identical to the materialized pipeline's.
    let report_mat = Report::build_with_tags(&out.dataset, &agg, &out.tags);
    let report_fold = Report::build_with_tags(&fold.dataset, &fold.aggregates, &fold.tags);
    diff_reports("materialized", &report_mat, &label, &report_fold).assert_identical();

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
}

#[test]
fn fold_matches_materialized_scale_0_001() {
    for threads in [1usize, 2, 8] {
        assert_fold_matches(0.001, 20, threads);
    }
}

#[test]
fn fold_matches_materialized_scale_0_01() {
    for threads in [1usize, 2, 8] {
        assert_fold_matches(0.01, 8, threads);
    }
}

/// Streaming a snapshot chunk-by-chunk into the fold must equal
/// materializing the whole snapshot and computing over it.
#[test]
fn snapshot_stream_fold_matches_materialized_load() {
    let config = SimConfig::test(10);
    let out = Simulation::run(config.clone());
    let mut bytes = Vec::new();
    out.to_snapshot(&config)
        .write_to(&mut bytes)
        .expect("write snapshot");

    let materialized = SimOutput::from_snapshot(
        Snapshot::read_from(&mut bytes.as_slice()).expect("materialized load"),
    );
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

/// Shared fixture for the partition property: one materialized run plus
/// its day-boundary row indices.
fn partition_fixture() -> &'static (SimOutput, Aggregates, Vec<usize>) {
    static FIXTURE: OnceLock<(SimOutput, Aggregates, Vec<usize>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = Simulation::run(SimConfig::test(12));
        let agg = Aggregates::compute(&out.dataset);
        let store = &out.dataset.sessions;
        // Row indices where a new day starts — the only legal cut points.
        let mut boundaries = Vec::new();
        let mut last_day = u32::MAX;
        for i in 0..store.len() {
            let day = store.view(i).day();
            if day != last_day {
                boundaries.push(i);
                last_day = day;
            }
        }
        assert!(boundaries.len() > 4, "fixture needs several days");
        (out, agg, boundaries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any subset of day boundaries partitions the rows into contiguous
    /// day-aligned shards; folding each shard with `Aggregates::partial`
    /// and combining with `Aggregates::assemble` is bit-identical to the
    /// one-shot materialized pass.
    #[test]
    fn day_window_partitions_assemble_identically(cut_mask in prop::collection::vec(any::<bool>(), 16..64)) {
        let (out, agg, boundaries) = partition_fixture();
        let store = &out.dataset.sessions;

        // Cut points: always row 0, plus any selected interior boundary.
        let mut cuts = vec![0usize];
        for (i, &b) in boundaries.iter().enumerate().skip(1) {
            if *cut_mask.get(i % cut_mask.len()).unwrap_or(&false) {
                cuts.push(b);
            }
        }
        cuts.push(store.len());

        let parts: Vec<_> = cuts
            .windows(2)
            .map(|w| Aggregates::partial(&out.dataset, w[0]..w[1]))
            .collect();
        let assembled = Aggregates::assemble(out.dataset.plan.len(), parts);
        diff_aggregates("one-shot", agg, "partitioned", &assembled).assert_identical();
    }
}
