//! Property tests: the columnar session store is a lossless encoding of
//! session records, and every analysis over it agrees with the independent
//! reference for the paper's definitions (`hf_testkit::reference`).

use honeyfarm::cluster::extract;
use honeyfarm::core::{federate, FarmSightings};
use honeyfarm::farm::SessionStore;
use honeyfarm::prelude::*;
use honeyfarm::testkit::reference::{federation, Measures};
use honeyfarm::testkit::{
    diff_reference, project, project_federation, record_world, records_of, session_record,
};
use proptest::prelude::*;

/// Collect `records` in order, as the farm's collector would.
fn collect(records: &[SessionRecord]) -> Dataset {
    let mut collector = Collector::new(&record_world(), FarmPlan::paper());
    collector.ingest_batch(records);
    collector.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rebuilding records from the store's views gives back every field,
    /// client ports and download hashes included.
    #[test]
    fn prop_store_roundtrip(records in prop::collection::vec(session_record(), 1..40)) {
        let mut store = SessionStore::new();
        for r in &records {
            store.ingest(r, None);
        }
        prop_assert_eq!(records_of(&store), records);
    }

    /// Sessions fold into the paper's measures exactly as the reference
    /// computes them from the records: the Fig. 5 leaves, every aggregate
    /// a table or figure reads, the F18 factor, the birth timeline and the
    /// 24 cluster features; and three farms cut from the records federate
    /// as the reference pools them.
    #[test]
    fn prop_classification_partitions(records in prop::collection::vec(session_record(), 1..60)) {
        let dataset = collect(&records);
        let mut got = project(&dataset, &Aggregates::compute(&dataset), &extract(&dataset).matrix());
        let mut want = Measures::of(&records, &record_world(), &FarmPlan::paper());

        let farms: Vec<Vec<SessionRecord>> = (0..3)
            .map(|i| records.iter().filter(|r| r.honeypot % 3 == i).cloned().collect())
            .collect();
        let sightings: Vec<FarmSightings> = farms
            .iter()
            .map(|farm| FarmSightings::from_dataset("farm", &collect(farm)))
            .collect();
        got.federation = Some(project_federation(&federate(&sightings)));
        let slices: Vec<&[SessionRecord]> = farms.iter().map(Vec::as_slice).collect();
        want.federation = Some(federation(&slices));

        let diff = diff_reference(&want, &got);
        prop_assert!(diff.is_identical(), "{}", diff.render());
    }
}
