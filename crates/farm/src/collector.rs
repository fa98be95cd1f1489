//! The central collector: honeypots report session records; the collector
//! geolocates clients, maintains the artifact store, and produces the final
//! [`Dataset`] every analysis runs against.

use hf_geo::{Asn, CountryId, World};
use hf_honeypot::{ArtifactStore, SessionRecord};

use crate::deployment::FarmPlan;
use crate::store::SessionStore;

/// The collector's finished output: everything the paper's analyses need.
#[derive(Debug)]
pub struct Dataset {
    /// All sessions.
    pub sessions: SessionStore,
    /// Artifact metadata by hash.
    pub artifacts: ArtifactStore,
    /// The deployment that produced the data.
    pub plan: FarmPlan,
}

impl Dataset {
    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Is the dataset empty?
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

/// Ingest pipeline for session records. Owns a copy of the world's routing
/// view, like a real collector resolving client geography from its own
/// routing/geolocation snapshot.
pub struct Collector {
    world: World,
    plan: FarmPlan,
    store: SessionStore,
    artifacts: ArtifactStore,
}

impl Collector {
    /// New collector for a deployment, using `world` for client geolocation.
    pub fn new(world: &World, plan: FarmPlan) -> Self {
        Collector {
            world: world.clone(),
            plan,
            store: SessionStore::new(),
            artifacts: ArtifactStore::new(),
        }
    }

    /// Pre-allocate for an expected session count.
    pub fn with_capacity(world: &World, plan: FarmPlan, n: usize) -> Self {
        Collector {
            world: world.clone(),
            plan,
            store: SessionStore::with_capacity(n),
            artifacts: ArtifactStore::new(),
        }
    }

    /// Ingest one finished session.
    pub fn ingest(&mut self, rec: &SessionRecord) {
        let geo: Option<(CountryId, Asn)> = self
            .world
            .locate(rec.client_ip)
            .map(|info| (info.country, info.asn));
        let mut observations = 0u64;
        for h in rec.file_hashes.iter().chain(rec.download_hashes.iter()) {
            self.artifacts.observe_hash(*h, 0, rec.start);
            observations += 1;
        }
        self.store.ingest(rec, geo);
        hf_obs::counter!("farm.sessions_ingested", 1);
        hf_obs::counter!("farm.artifact_observations", observations);
    }

    /// Ingest a batch of finished sessions in slice order.
    ///
    /// Order matters: artifact `first_seen` and store row order follow
    /// ingest order, so callers must hand batches over in plan order (see
    /// `hf-sim`'s day loop).
    pub fn ingest_batch(&mut self, recs: &[SessionRecord]) {
        let _span = hf_obs::span!("farm.ingest_batch");
        hf_obs::observe!("farm.batch_sessions", recs.len());
        self.store.reserve(recs.len());
        for rec in recs {
            self.ingest(rec);
        }
    }

    /// The session store as ingested so far (fold-mode runs scan the
    /// current day's rows through this before retiring them).
    pub fn sessions(&self) -> &SessionStore {
        &self.store
    }

    /// The deployment plan this collector serves.
    pub fn plan(&self) -> &FarmPlan {
        &self.plan
    }

    /// Drop all buffered rows, keeping interning pools, artifacts, and row
    /// capacity. The out-of-core fold calls this after each completed day;
    /// [`Collector::finish`] then yields a row-free [`Dataset`] whose pools
    /// and artifact store still cover the whole run.
    pub fn retire_rows(&mut self) {
        self.store.retire_rows();
    }

    /// Sessions ingested so far.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Is the collector empty?
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Finish, producing the dataset.
    pub fn finish(self) -> Dataset {
        Dataset {
            sessions: self.store,
            artifacts: self.artifacts,
            plan: self.plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_geo::{Ip4, WorldConfig};
    use hf_hash::Sha256;
    use hf_honeypot::{EndReason, SessionRecord};
    use hf_proto::Protocol;
    use hf_simclock::SimInstant;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rec(ip: Ip4, day: u32) -> SessionRecord {
        SessionRecord {
            honeypot: 0,
            protocol: Protocol::Ssh,
            client_ip: ip,
            client_port: 1,
            start: SimInstant::from_day_and_secs(day, 0),
            duration_secs: 5,
            ended_by: EndReason::ClientClose,
            ssh_client_version: None,
            logins: vec![],
            commands: vec![],
            uris: vec![],
            file_hashes: vec![Sha256::digest(b"art")],
            download_hashes: vec![],
        }
    }

    #[test]
    fn geolocates_known_clients() {
        let world = World::build(1, &WorldConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(2);
        let info = world.ases()[0];
        let ip = world.random_ip_in_as(info.asn, &mut rng);
        let mut col = Collector::new(&world, FarmPlan::paper());
        col.ingest(&rec(ip, 0));
        let ds = col.finish();
        let v = ds.sessions.view(0);
        assert_eq!(v.client_asn(), Some(info.asn));
        assert_eq!(v.client_country(), Some(info.country));
    }

    #[test]
    fn unroutable_client_has_no_geo() {
        let world = World::build(1, &WorldConfig::tiny());
        let mut col = Collector::new(&world, FarmPlan::paper());
        col.ingest(&rec(Ip4::new(1, 1, 1, 1), 0));
        let ds = col.finish();
        assert_eq!(ds.sessions.view(0).client_country(), None);
    }

    #[test]
    fn artifacts_tracked_with_first_seen() {
        let world = World::build(1, &WorldConfig::tiny());
        let mut col = Collector::new(&world, FarmPlan::paper());
        col.ingest(&rec(Ip4::new(1, 1, 1, 1), 5));
        col.ingest(&rec(Ip4::new(1, 1, 1, 2), 3));
        let ds = col.finish();
        assert_eq!(ds.artifacts.len(), 1);
        let meta = ds.artifacts.get(&Sha256::digest(b"art")).unwrap();
        assert_eq!(meta.occurrences, 2);
        // first_seen keeps the earliest ingest even when out of order
        assert_eq!(meta.first_seen.day(), 5, "ingest order defines first_seen");
    }

    #[test]
    fn dataset_len_matches() {
        let world = World::build(1, &WorldConfig::tiny());
        let mut col = Collector::with_capacity(&world, FarmPlan::paper(), 10);
        for d in 0..10 {
            col.ingest(&rec(Ip4::new(1, 1, 1, d as u8), d));
        }
        assert_eq!(col.len(), 10);
        assert_eq!(col.finish().len(), 10);
    }
}
