//! Property tests: the hfstore snapshot is a lossless, deterministic
//! encoding of the session store, tag database, and deployment plan —
//! arbitrary ingested batches survive write → load row-for-row and
//! pool-for-pool. Companion to `store_roundtrip.rs` (in-memory) and
//! `snapshot_faults.rs` (corruption handling).

use honeyfarm::farm::{
    Dataset, DigestPool, FarmPlan, SessionStore, Snapshot, SnapshotMeta, StringPool, TagDb,
};
use honeyfarm::hash::Sha256;
use honeyfarm::honeypot::{ArtifactStore, SessionRecord};
use honeyfarm::testkit::{diff_datasets, records_of, session_record};
use proptest::prelude::*;

fn snapshot_of(records: &[SessionRecord]) -> Snapshot {
    let mut store = SessionStore::new();
    let mut tags = TagDb::new();
    for (i, r) in records.iter().enumerate() {
        store.ingest(r, None);
        for h in r.file_hashes.iter().chain(r.download_hashes.iter()) {
            tags.record(*h, if i % 2 == 0 { "mirai" } else { "unknown" }, "H1");
        }
    }
    Snapshot {
        meta: SnapshotMeta {
            seed: 7,
            scale_volume: 0.01,
            scale_hashes: 0.1,
            days: 486,
            n_clients: records.len() as u64,
        },
        plan: FarmPlan::paper(),
        sessions: store,
        tags,
    }
}

fn pool_strings(p: &StringPool) -> Vec<String> {
    p.iter().map(|(_, s)| s.to_string()).collect()
}

/// The store as a dataset, its artifacts replayed from its own rows.
fn dataset(sessions: SessionStore) -> Dataset {
    let mut artifacts = ArtifactStore::new();
    for v in sessions.iter() {
        v.replay_artifacts(&mut artifacts);
    }
    Dataset {
        sessions,
        artifacts,
        plan: FarmPlan::paper(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary batches survive ingest → snapshot write → load with
    /// row-for-row and pool-for-pool equality.
    #[test]
    fn prop_snapshot_roundtrip(records in prop::collection::vec(session_record(), 1..40)) {
        let snap = snapshot_of(&records);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).expect("write snapshot");
        let back = Snapshot::read_from(&mut bytes.as_slice()).expect("load snapshot");

        prop_assert_eq!(back.meta, snap.meta);
        prop_assert_eq!(&back.plan, &snap.plan);

        // Row-for-row.
        prop_assert_eq!(back.sessions.len(), records.len());
        prop_assert_eq!(back.sessions.rows(), snap.sessions.rows());

        // Pool-for-pool, in insertion order.
        prop_assert_eq!(pool_strings(&back.sessions.creds), pool_strings(&snap.sessions.creds));
        prop_assert_eq!(
            pool_strings(&back.sessions.commands),
            pool_strings(&snap.sessions.commands)
        );
        prop_assert_eq!(pool_strings(&back.sessions.uris), pool_strings(&snap.sessions.uris));
        prop_assert_eq!(
            pool_strings(&back.sessions.ssh_versions),
            pool_strings(&snap.sessions.ssh_versions)
        );
        prop_assert_eq!(
            back.sessions.digests.iter().collect::<Vec<_>>(),
            snap.sessions.digests.iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(back.sessions.lists.len(), snap.sessions.lists.len());
        for (id, list) in snap.sessions.lists.iter() {
            prop_assert_eq!(back.sessions.lists.get(id), list);
        }

        // Tag database.
        prop_assert_eq!(back.tags.len(), snap.tags.len());
        for (h, e) in snap.tags.iter() {
            prop_assert_eq!(back.tags.tag(h), Some(e.tag.as_str()));
            prop_assert_eq!(back.tags.campaign(h), Some(e.campaign.as_str()));
        }

        // And the typed views still read every field.
        prop_assert_eq!(records_of(&back.sessions), records);
    }

    /// Writing the same data twice — or a reloaded copy — is byte-identical.
    #[test]
    fn prop_serialization_deterministic(records in prop::collection::vec(session_record(), 1..20)) {
        let snap = snapshot_of(&records);
        let mut a = Vec::new();
        let mut b = Vec::new();
        snap.write_to(&mut a).expect("write a");
        snap.write_to(&mut b).expect("write b");
        prop_assert_eq!(&a, &b);
        let back = Snapshot::read_from(&mut a.as_slice()).expect("load");
        let mut c = Vec::new();
        back.write_to(&mut c).expect("rewrite");
        prop_assert_eq!(&a, &c);
    }

    /// A store read back from a snapshot keeps interning like the one that
    /// was written: its decoded list pool returns the old id for a list it
    /// holds and `len()` for a new one, and ingesting more records gives
    /// the store that was never written at all.
    #[test]
    fn prop_read_back_store_keeps_interning(
        records in prop::collection::vec(session_record(), 2..40),
        cut in 1usize..40,
    ) {
        let cut = cut.min(records.len() - 1);
        let (written, later) = records.split_at(cut);
        let mut bytes = Vec::new();
        snapshot_of(written).write_to(&mut bytes).expect("write snapshot");

        let mut pool = Snapshot::read_from(&mut bytes.as_slice())
            .expect("load snapshot")
            .sessions
            .lists;
        let held: Vec<(u32, Vec<u32>)> = pool.iter().map(|(id, l)| (id, l.to_vec())).collect();
        for (id, list) in &held {
            prop_assert_eq!(pool.intern(list), *id);
        }
        let fresh = vec![u32::MAX - 1; 3];
        let next = pool.len() as u32;
        prop_assert_eq!(pool.intern(&fresh), next);
        prop_assert_eq!(pool.intern(&fresh), next);
        prop_assert_eq!(pool.get(next), &fresh[..]);

        let mut resumed = Snapshot::read_from(&mut bytes.as_slice()).expect("load snapshot").sessions;
        let mut never_written = SessionStore::new();
        for r in written {
            never_written.ingest(r, None);
        }
        for r in later {
            resumed.ingest(r, None);
            never_written.ingest(r, None);
        }
        let diff = diff_datasets(
            "resumed", &dataset(resumed), "never written", &dataset(never_written),
        );
        prop_assert!(diff.is_identical(), "{}", diff.render());
    }
}

// Out-of-range pool behavior the snapshot loader leans on: `try_get`
// refuses, `get` panics (documented — loaders must validate first).

#[test]
fn string_pool_out_of_range() {
    let mut p = StringPool::new();
    let id = p.intern("root");
    assert_eq!(p.try_get(id), Some("root"));
    assert_eq!(p.try_get(id + 1), None);
    assert_eq!(p.try_get(u32::MAX), None);
}

#[test]
#[should_panic]
fn string_pool_get_panics_out_of_range() {
    let p = StringPool::new();
    let _ = p.get(0);
}

#[test]
fn digest_pool_out_of_range() {
    let mut p = DigestPool::new();
    let h = Sha256::digest(b"x");
    let id = p.intern(h);
    assert_eq!(p.try_get(id), Some(h));
    assert_eq!(p.try_get(id + 1), None);
}

#[test]
#[should_panic]
fn digest_pool_get_panics_out_of_range() {
    let p = DigestPool::new();
    let _ = p.get(3);
}
