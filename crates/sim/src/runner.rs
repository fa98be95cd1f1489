//! The day-loop runner: ecosystem → plans → honeypot execution → collector.
//!
//! Two terminal modes share one day loop:
//!
//! - **Materialized** ([`Simulation::run`]): every session row accumulates in
//!   the collector's [`hf_farm::SessionStore`]; analyses run afterwards over
//!   the full store. Memory grows with the window (~19 GB of rows at scale
//!   1.0).
//! - **Out-of-core fold** ([`Simulation::run_fold`]): after each completed
//!   day, the day's rows are folded straight into an incremental
//!   [`StreamingFold`] and then retired. Peak RSS is bounded by the largest
//!   single day plus the interning pools, independent of window length; the
//!   resulting [`Aggregates`] are bit-identical to
//!   [`Aggregates::compute`] over the materialized store (proven by
//!   `tests/streaming_analysis.rs`).

use std::io::Read;

use hf_agents::{Ecosystem, EcosystemConfig, Scale};
use hf_core::{Aggregates, StreamingFold};
use hf_farm::{Collector, Dataset, DayOrder, Snapshot, SnapshotError, SnapshotMeta, TagDb};
use hf_honeypot::ArtifactStore;
use hf_simclock::StudyWindow;

use crate::error::SimError;
use crate::exec::{build_configs, ExecCtx, PreparedScripts, ScriptCache};
use crate::parallel::{execute_day_shards, DayMode};

/// Simulation configuration (mirrors [`EcosystemConfig`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Root seed.
    pub seed: u64,
    /// Volume scale.
    pub scale: Scale,
    /// Observation window.
    pub window: StudyWindow,
    /// Use the script-result cache (shell content computed once per distinct
    /// campaign variant / recon template). Roughly halves simulation time on
    /// command-heavy runs; session *content* is identical, only per-session
    /// timing randomness differs from the reference path. Default off.
    pub use_script_cache: bool,
    /// Worker threads for day execution. `1` (the default) executes each
    /// day's plans inline in plan order; `N > 1` shards them across `N`
    /// scoped workers with an ordered merge. Both run the same prepared
    /// pipeline (scripts parsed once per campaign variant per day, not once
    /// per session) and produce byte-identical output for every thread
    /// count (see `crate::parallel`).
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x0e0e_fa20,
            scale: Scale::default_bench(),
            window: StudyWindow::paper(),
            use_script_cache: false,
            threads: 1,
        }
    }
}

impl SimConfig {
    /// Tiny config for tests: truncated window, tiny scale.
    pub fn test(days: u32) -> Self {
        SimConfig {
            seed: 0x7e57,
            scale: Scale::tiny(),
            window: StudyWindow::first_days(days),
            use_script_cache: false,
            threads: 1,
        }
    }
}

/// Everything a run produces.
pub struct SimOutput {
    /// The collected dataset (sessions + artifacts + deployment).
    pub dataset: Dataset,
    /// Hash → tag/campaign database.
    pub tags: TagDb,
    /// Distinct client IPs allocated by the ecosystem.
    pub n_clients: usize,
}

impl SimOutput {
    /// Package the run as an hfstore [`Snapshot`] (see
    /// [`hf_farm::snapshot`]), ready for [`Snapshot::write_file`]. `config`
    /// must be the configuration the run was produced with; it becomes the
    /// snapshot's metadata so `hfarm report` can label its output.
    pub fn to_snapshot(&self, config: &SimConfig) -> Snapshot {
        Snapshot {
            meta: SnapshotMeta {
                seed: config.seed,
                scale_volume: config.scale.volume,
                scale_hashes: config.scale.hashes,
                days: config.window.num_days(),
                n_clients: self.n_clients as u64,
            },
            plan: self.dataset.plan.clone(),
            sessions: self.dataset.sessions.clone(),
            tags: self.tags.clone(),
        }
    }

    /// Reassemble a run from a loaded snapshot without re-simulating. The
    /// artifact store is replayed deterministically from the stored rows,
    /// so the result feeds the Section 6/7 report pipeline exactly like a
    /// fresh [`Simulation::run`] of the same seed.
    pub fn from_snapshot(snapshot: Snapshot) -> SimOutput {
        let (dataset, tags, meta) = snapshot.into_dataset();
        SimOutput {
            dataset,
            tags,
            n_clients: meta.n_clients as usize,
        }
    }
}

/// Everything an out-of-core run produces: a **rowless** dataset (interning
/// pools, artifact store, and deployment plan survive; session rows were
/// folded and retired day by day) plus the finished [`Aggregates`]. The
/// report/claims pipeline runs from `aggregates` + the rowless `dataset`.
pub struct FoldOutput {
    /// Pools + artifacts + plan; `dataset.sessions` holds no rows.
    pub dataset: Dataset,
    /// Hash → tag/campaign database.
    pub tags: TagDb,
    /// Distinct client IPs allocated by the ecosystem.
    pub n_clients: usize,
    /// The whole-run aggregates, bit-identical to
    /// [`Aggregates::compute`] over the materialized store.
    pub aggregates: Aggregates,
}

impl FoldOutput {
    /// Stream an hfstore snapshot through the incremental fold without ever
    /// materializing the rows section: chunks are decoded, folded, and
    /// dropped (`hfarm report`). The artifact store is replayed
    /// per row exactly like the live collector
    /// ([`hf_farm::SessionView::replay_artifacts`]), so `dataset.artifacts`
    /// matches a materialized [`SimOutput::from_snapshot`] load of the same
    /// bytes.
    ///
    /// The incremental freshness series requires day-ordered rows (which
    /// every runner-produced snapshot has); an unordered store surfaces as
    /// [`SnapshotError::Corrupt`] rather than silently wrong freshness.
    ///
    /// Chunks are driven through [`hf_farm::SnapshotReader::fold_chunks`],
    /// so (unless `HF_SNAPSHOT_NO_OVERLAP` is set) the next chunk is read
    /// and checksummed on a prefetch thread while the current one folds —
    /// the `snapshot.chunk_wait` span records how long the fold actually
    /// waited on bytes.
    pub fn from_snapshot_stream<R: Read + Send>(r: R) -> Result<FoldOutput, SnapshotError> {
        // Umbrella span: the whole verify → decode → replay → fold pass,
        // so `hfarm metrics` has an end-to-end wall to derive global hash
        // throughput against (the per-phase spans nest under it).
        let _span = hf_obs::span!("analysis.stream_fold");
        let reader = hf_farm::SnapshotReader::open(r)?;
        let mut fold = StreamingFold::new(reader.plan().len());
        let mut artifacts = ArtifactStore::new();
        let mut order = DayOrder::new("streaming fold");
        let (meta, plan, sessions, tags) = reader.fold_chunks(|store, plan, rows| {
            for row in rows {
                let v = store.view_row(row);
                order.check(v.day())?;
                v.replay_artifacts(&mut artifacts);
                fold.ingest(plan, &v);
            }
            fold.drain_freshness();
            hf_obs::counter!("analysis.rows_folded", rows.len() as u64);
            Ok(())
        })?;
        hf_obs::sample_peak_rss();
        Ok(FoldOutput {
            dataset: Dataset {
                sessions,
                artifacts,
                plan,
            },
            tags,
            n_clients: meta.n_clients as usize,
            aggregates: fold.finish(),
        })
    }
}

/// The simulator.
pub struct Simulation;

impl Simulation {
    /// Run the full window. A day pre-pass coverage gap (a `prepare_day` /
    /// `precompute_day` bug) panics with the typed [`SimError`] naming the
    /// missing key.
    pub fn run(config: SimConfig) -> SimOutput {
        let (collector, tags, n_clients) = Self::run_loop(&config, &mut |_| {})
            .unwrap_or_else(|e| panic!("simulation failed: {e}"));
        SimOutput {
            dataset: collector.finish(),
            tags,
            n_clients,
        }
    }

    /// Out-of-core form of [`Simulation::run`]: fold each completed day into
    /// incremental [`Aggregates`] and retire its rows, so peak memory is
    /// bounded by one day of sessions (plus the interning pools), not the
    /// whole window. Panics on internal coverage bugs like
    /// [`Simulation::run`].
    ///
    /// The fold hook runs after each day's ingest: it scans the day's rows
    /// into a [`StreamingFold`] (same per-row ingest as
    /// [`Aggregates::compute`], same row order, so the result is
    /// bit-identical), drains completed days into the freshness series, and
    /// retires the rows. Peak RSS is sampled once per day into the
    /// `process.peak_rss_kb` gauge for the run manifest.
    pub fn run_fold(config: SimConfig) -> FoldOutput {
        let mut fold: Option<StreamingFold> = None;
        let (collector, tags, n_clients) = Self::run_loop(&config, &mut |collector| {
            let f = fold.get_or_insert_with(|| StreamingFold::new(collector.plan().len()));
            let store = collector.sessions();
            let plan = collector.plan();
            for i in 0..store.len() {
                f.ingest(plan, &store.view(i));
            }
            f.drain_freshness();
            hf_obs::counter!("analysis.rows_folded", store.len() as u64);
            collector.retire_rows();
            hf_obs::sample_peak_rss();
        })
        .unwrap_or_else(|e| panic!("simulation failed: {e}"));
        // Rowless: every day was folded and retired; pools/artifacts remain.
        let dataset = collector.finish();
        let aggregates = match fold {
            Some(f) => f.finish(),
            // Zero-day window: an empty fold still yields the canonical
            // empty aggregates (one all-zero day, like `compute`).
            None => StreamingFold::new(dataset.plan.len()).finish(),
        };
        FoldOutput {
            dataset,
            tags,
            n_clients,
            aggregates,
        }
    }

    /// The shared day loop. `after_day` runs once per simulated day after
    /// the day's records are ingested; the materialized path passes a
    /// no-op, the fold path scans and retires the day's rows.
    fn run_loop(
        config: &SimConfig,
        after_day: &mut dyn FnMut(&mut Collector),
    ) -> Result<(Collector, TagDb, usize), SimError> {
        let mut eco = Ecosystem::new(EcosystemConfig {
            seed: config.seed,
            scale: config.scale,
            window: config.window,
        });
        let configs = build_configs(&eco.plan);
        let mut collector =
            Collector::with_capacity(&eco.world, eco.plan.clone(), eco.estimated_sessions());
        let mut tags = TagDb::new();
        // Both per-day pre-passes persist across days: campaign variants
        // repeat day after day, so parse/outcome work amortizes across the
        // whole window, not just within one day.
        let mut cache = ScriptCache::new();
        let mut prepared = PreparedScripts::new();
        let days = config.window.num_days();
        let threads = config.threads.max(1);
        hf_obs::gauge!("sim.threads", threads);
        hf_obs::gauge!("sim.days", days);
        for day in 0..days {
            let _day_span = hf_obs::span!("sim.day");
            let plans = eco.plan_day(day);
            hf_obs::counter!("sim.days_executed", 1);
            hf_obs::counter!("sim.sessions_executed", plans.len() as u64);
            hf_obs::observe!("sim.day_sessions", plans.len());
            let ctx = ExecCtx {
                plan: &eco.plan,
                configs: &configs,
                catalog: &eco.catalog,
                creds: &eco.creds,
                pool: eco.pool_ref(),
            };
            // Serial pre-pass: parse each distinct campaign/recon script
            // once (or pre-compute its cached outcome), then execute the
            // day's plans through the shard machinery. With `threads == 1`
            // the single shard runs inline — same plan order, no spawn.
            let mode = if config.use_script_cache {
                cache.precompute_day(&ctx, &plans);
                DayMode::Cached(&cache)
            } else {
                prepared.prepare_day(&ctx, &plans);
                DayMode::Full(&prepared)
            };
            // Ingest shard-by-shard in shard order — same row/tag order
            // as a serial loop without concatenating the whole day's
            // records into one intermediate vector first.
            for (records, day_tags) in execute_day_shards(&ctx, &plans, threads, mode)? {
                collector.ingest_batch(&records);
                tags.merge(day_tags);
            }
            after_day(&mut collector);
        }
        Ok((collector, tags, eco.n_clients()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_produces_consistent_dataset() {
        let out = Simulation::run(SimConfig::test(10));
        assert!(out.dataset.len() > 500, "sessions: {}", out.dataset.len());
        assert!(out.n_clients > 50);
        assert!(!out.tags.is_empty());
        // Every stored session has a valid honeypot and a start within range.
        for v in out.dataset.sessions.iter() {
            assert!((v.honeypot() as usize) < out.dataset.plan.len());
            assert!(v.day() < 10);
        }
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let a = Simulation::run(SimConfig::test(6));
        let b = Simulation::run(SimConfig::test(6));
        assert_eq!(a.dataset.len(), b.dataset.len());
        assert_eq!(a.n_clients, b.n_clients);
        let rows_equal = a
            .dataset
            .sessions
            .rows()
            .iter()
            .zip(b.dataset.sessions.rows())
            .all(|(x, y)| x == y);
        assert!(rows_equal, "identical seeds must give identical stores");
        assert_eq!(a.tags.len(), b.tags.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::run(SimConfig::test(5));
        let mut cfg = SimConfig::test(5);
        cfg.seed = 999;
        let b = Simulation::run(cfg);
        assert_ne!(
            a.dataset.sessions.rows().first().map(|r| r.client_ip),
            b.dataset.sessions.rows().first().map(|r| r.client_ip)
        );
    }

    #[test]
    fn all_categories_present_in_a_run() {
        let out = Simulation::run(SimConfig::test(12));
        let mut no_cred = 0;
        let mut fail_log = 0;
        let mut no_cmd = 0;
        let mut cmd = 0;
        let mut cmd_uri = 0;
        for v in out.dataset.sessions.iter() {
            if !v.attempted_login() {
                no_cred += 1;
            } else if !v.login_succeeded() {
                fail_log += 1;
            } else if v.n_commands() == 0 {
                no_cmd += 1;
            } else if !v.has_uri() {
                cmd += 1;
            } else {
                cmd_uri += 1;
            }
        }
        assert!(no_cred > 0, "no_cred");
        assert!(fail_log > 0, "fail_log");
        assert!(no_cmd > 0, "no_cmd");
        assert!(cmd > 0, "cmd");
        assert!(cmd_uri > 0, "cmd_uri {cmd_uri}");
        // FAIL_LOG should be the biggest bucket even in a short window.
        assert!(fail_log > no_cred / 4);
    }

    #[test]
    fn script_cache_preserves_session_content() {
        let mut slow_cfg = SimConfig::test(8);
        let mut fast_cfg = SimConfig::test(8);
        slow_cfg.use_script_cache = false;
        fast_cfg.use_script_cache = true;
        let slow = Simulation::run(slow_cfg);
        let fast = Simulation::run(fast_cfg);
        // Same session count and identical hash/command/URI universes; only
        // per-session timing randomness differs between the paths.
        assert_eq!(slow.dataset.len(), fast.dataset.len());
        let digests = |out: &SimOutput| {
            let mut v: Vec<_> = out
                .dataset
                .sessions
                .digests
                .iter()
                .map(|(_, d)| d)
                .collect();
            v.sort();
            v
        };
        assert_eq!(digests(&slow), digests(&fast));
        assert_eq!(slow.tags.len(), fast.tags.len());
        let cmd_count = |out: &SimOutput| {
            out.dataset
                .sessions
                .iter()
                .map(|v| v.n_commands())
                .sum::<usize>()
        };
        assert_eq!(cmd_count(&slow), cmd_count(&fast));
        let uri_sessions =
            |out: &SimOutput| out.dataset.sessions.iter().filter(|v| v.has_uri()).count();
        assert_eq!(uri_sessions(&slow), uri_sessions(&fast));
    }

    #[test]
    fn artifacts_match_stored_hashes() {
        let out = Simulation::run(SimConfig::test(8));
        // Every distinct digest in the store is known to the artifact store.
        for (_, digest) in out.dataset.sessions.digests.iter() {
            assert!(out.dataset.artifacts.get(&digest).is_some());
        }
        // And tagged (tail campaigns are 'unknown' but still present).
        let tagged = out
            .dataset
            .sessions
            .digests
            .iter()
            .filter(|(_, d)| out.tags.tag(d).is_some())
            .count();
        assert_eq!(tagged, out.dataset.sessions.digests.len());
    }

    #[test]
    fn snapshot_roundtrip_reproduces_the_run() {
        let cfg = SimConfig::test(6);
        let out = Simulation::run(cfg.clone());
        let mut bytes = Vec::new();
        out.to_snapshot(&cfg).write_to(&mut bytes).expect("write");
        let loaded =
            SimOutput::from_snapshot(Snapshot::read_from(&mut bytes.as_slice()).expect("read"));
        // Sessions: identical rows in identical order.
        assert_eq!(loaded.dataset.sessions.rows(), out.dataset.sessions.rows());
        assert_eq!(loaded.n_clients, out.n_clients);
        // Tags: same associations.
        assert_eq!(loaded.tags.len(), out.tags.len());
        for (h, e) in out.tags.iter() {
            assert_eq!(loaded.tags.tag(h), Some(e.tag.as_str()));
            assert_eq!(loaded.tags.campaign(h), Some(e.campaign.as_str()));
        }
        // Artifacts: the deterministic replay matches the live collector.
        assert_eq!(loaded.dataset.artifacts.len(), out.dataset.artifacts.len());
        for (h, meta) in out.dataset.artifacts.iter() {
            let r = loaded.dataset.artifacts.get(h).expect("artifact");
            assert_eq!(r.first_seen, meta.first_seen);
            assert_eq!(r.last_seen, meta.last_seen);
            assert_eq!(r.occurrences, meta.occurrences);
        }
        // Deployment metadata survives.
        assert_eq!(loaded.dataset.plan, out.dataset.plan);
    }

    #[test]
    fn fold_run_matches_materialized_run() {
        let out = Simulation::run(SimConfig::test(8));
        let agg = Aggregates::compute(&out.dataset);
        let fold = Simulation::run_fold(SimConfig::test(8));
        // Rows were retired day by day; pools and artifacts survive.
        assert!(fold.dataset.sessions.is_empty());
        assert_eq!(fold.n_clients, out.n_clients);
        assert_eq!(fold.tags.len(), out.tags.len());
        assert_eq!(
            fold.dataset.sessions.digests.len(),
            out.dataset.sessions.digests.len()
        );
        assert_eq!(fold.dataset.artifacts.len(), out.dataset.artifacts.len());
        for (h, meta) in out.dataset.artifacts.iter() {
            let r = fold.dataset.artifacts.get(h).expect("artifact");
            assert_eq!(r.first_seen, meta.first_seen);
            assert_eq!(r.occurrences, meta.occurrences);
        }
        // Aggregates: same totals (the full bit-for-bit differential lives
        // in tests/streaming_analysis.rs via the testkit oracle).
        assert_eq!(fold.aggregates.total_sessions, agg.total_sessions);
        assert_eq!(fold.aggregates.day_total, agg.day_total);
        assert_eq!(fold.aggregates.asns, agg.asns);
    }

    #[test]
    fn fold_streams_a_snapshot_identically() {
        let cfg = SimConfig::test(6);
        let out = Simulation::run(cfg.clone());
        let mut bytes = Vec::new();
        out.to_snapshot(&cfg).write_to(&mut bytes).expect("write");
        let agg = Aggregates::compute(&out.dataset);
        let fold = FoldOutput::from_snapshot_stream(bytes.as_slice()).expect("stream");
        assert!(fold.dataset.sessions.is_empty());
        assert_eq!(fold.n_clients, out.n_clients);
        assert_eq!(fold.tags.len(), out.tags.len());
        assert_eq!(fold.dataset.artifacts.len(), out.dataset.artifacts.len());
        for (h, meta) in out.dataset.artifacts.iter() {
            let r = fold.dataset.artifacts.get(h).expect("artifact");
            assert_eq!(r.first_seen, meta.first_seen);
            assert_eq!(r.last_seen, meta.last_seen);
            assert_eq!(r.occurrences, meta.occurrences);
        }
        assert_eq!(fold.aggregates.total_sessions, agg.total_sessions);
        assert_eq!(fold.aggregates.day_total, agg.day_total);
    }
}
