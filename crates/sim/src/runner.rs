//! The day-loop runner: ecosystem → plans → honeypot execution → collector.
//!
//! One day loop, one per-day hook. [`Simulation::run_days`] hands the hook
//! the rows of each finished day — `FnMut(&SessionStore, &FarmPlan, &[Row])`,
//! the shape [`hf_farm::SnapshotReader::fold_chunks`] hands a chunk in — and
//! then keeps or retires them as its [`DayRows`] argument says:
//!
//! - **Rows kept** ([`Simulation::run`]: a no-op hook): every session row
//!   accumulates in the collector's [`hf_farm::SessionStore`]. Memory grows
//!   with the window (~19 GB of rows at scale 1.0); only a run that persists
//!   its rows as a snapshot needs this.
//! - **Rows retired** ([`Simulation::run_fold`]: a [`StreamingFold`] hook):
//!   each day is folded and then dropped, so peak RSS is bounded by the
//!   largest single day plus the interning pools, independent of window
//!   length. [`Aggregates::compute`] runs the same fold over a whole
//!   materialized store in one call, and where the rows are cut never
//!   reaches the result, so the two are bit-identical (proven by
//!   `tests/streaming_analysis.rs`).
//!
//! Any fold that takes rows a day at a time rides the same hook: `hfarm
//! simulate` folds a [`StreamingFold`] while keeping rows for its snapshot,
//! and `hfarm cluster` folds per-client features while retiring them.

use std::io::Read;

use hf_agents::{Ecosystem, EcosystemConfig, Scale, SessionPlan};
use hf_core::{Aggregates, StreamingFold};
use hf_farm::snapshot::ROWS_PER_CHUNK;
use hf_farm::{
    Collector, Dataset, DayOrder, FarmPlan, Row, SessionStore, Snapshot, SnapshotError,
    SnapshotMeta, TagDb,
};
use hf_honeypot::{ArtifactStore, SessionRecord};
use hf_simclock::StudyWindow;

use crate::error::SimError;
use crate::exec::{build_configs, ExecCtx, PreparedScripts};
use crate::parallel::execute_batch;

/// Simulation configuration (mirrors [`EcosystemConfig`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Root seed.
    pub seed: u64,
    /// Volume scale.
    pub scale: Scale,
    /// Observation window.
    pub window: StudyWindow,
    /// No longer an option: must be `false`, or the run panics. Every
    /// session runs its script through the real shell. The field stays only
    /// so exhaustive `SimConfig` literals outside the workspace keep
    /// compiling; ROADMAP 1(b) deletes it. Write `..SimConfig::default()`.
    pub use_script_cache: bool,
    /// No longer an option: must be `1`, or the run panics. A window of
    /// more than one day already runs as a two-stage pipeline (see
    /// [`Simulation::run_days`]); there is no further fan-out. The field
    /// stays only so exhaustive `SimConfig` literals outside the workspace
    /// keep compiling; ROADMAP 1(b) deletes it.
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
    /// so (when the file has more than one chunk) the next chunk is read
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
            }
            fold.ingest_rows(store, plan, rows);
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

/// Plans per day-loop batch, the snapshot codec's chunk size. A batch is
/// one item of the day loop's two-stage pipeline, and at most two are alive
/// at once: at scale 1.0 that is less than the one whole day the serial
/// loop held.
const BATCH_PLANS: usize = ROWS_PER_CHUNK as usize;

/// One batch: its records in plan order and its tag shard. The buffer
/// returns to the producer, which frees the records on the thread that
/// allocated them.
type Batch = (Vec<SessionRecord>, TagDb);

/// What the day loop does with a finished day's rows once the per-day hook
/// of [`Simulation::run_days`] has seen them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DayRows {
    /// Keep them: the output dataset holds every row of the window.
    Keep,
    /// Retire them: the output dataset is rowless (its pools, artifacts and
    /// plan still cover the whole run), and peak memory is one day of rows.
    Retire,
}

/// The simulator.
pub struct Simulation;

impl Simulation {
    /// Run the full window, keeping every row. A day pre-pass coverage gap
    /// (a `prepare_day` bug) panics with the typed [`SimError`] naming the
    /// missing key.
    pub fn run(config: SimConfig) -> SimOutput {
        Self::run_days(config, DayRows::Keep, |_, _, _| {})
    }

    /// Out-of-core form of [`Simulation::run`]: fold each finished day into
    /// a [`StreamingFold`] and retire its rows, so peak memory is bounded by
    /// one day of sessions (plus the interning pools), not the whole window.
    /// The fold sees the same rows in the same order as
    /// [`Aggregates::compute`] over the materialized store, only cut at day
    /// ends, so the result is bit-identical. Panics on internal coverage
    /// bugs like [`Simulation::run`].
    pub fn run_fold(config: SimConfig) -> FoldOutput {
        let mut fold: Option<StreamingFold> = None;
        let out = Self::run_days(config, DayRows::Retire, |store, plan, rows| {
            fold.get_or_insert_with(|| StreamingFold::new(plan.len()))
                .ingest_rows(store, plan, rows)
        });
        // Zero-day window: an empty fold still yields the canonical empty
        // aggregates (one all-zero day, like `compute`).
        let fold = fold.unwrap_or_else(|| StreamingFold::new(out.dataset.plan.len()));
        FoldOutput {
            aggregates: fold.finish(),
            dataset: out.dataset,
            tags: out.tags,
            n_clients: out.n_clients,
        }
    }

    /// Run the full window and hand `after_day` the rows of each finished
    /// day — exactly that day's rows, in collector order, resolved against
    /// the store's pools — then keep or retire them as `rows` says. With
    /// [`DayRows::Retire`], peak RSS is sampled once per day into the
    /// `process.peak_rss_kb` gauge. Panics on internal coverage bugs like
    /// [`Simulation::run`].
    ///
    /// The day loop is a two-stage [`hf_obs::overlapped`] pipeline over
    /// batches of at most 65,536 plans, each from one day. The
    /// producer — a helper thread whenever the window has more than one
    /// day — plans each day, runs its script pre-pass, and executes the
    /// day's batches one after another in plan order. The calling thread
    /// ingests each batch's records and tags, then runs the hook after a
    /// day's last batch. Records reach the collector in the serial loop's
    /// order, so the output is identical on either arm; `sim.execute_wait`
    /// records how long ingest waited on execution.
    pub fn run_days(
        config: SimConfig,
        rows: DayRows,
        mut after_day: impl FnMut(&SessionStore, &FarmPlan, &[Row]),
    ) -> SimOutput {
        let (collector, tags, n_clients) =
            Self::run_loop(&config, BATCH_PLANS, true, rows, &mut after_day)
                .unwrap_or_else(|e| panic!("simulation failed: {e}"));
        SimOutput {
            dataset: collector.finish(),
            tags,
            n_clients,
        }
    }

    /// The day loop of [`Simulation::run_days`] over batches of at most
    /// `batch` plans. `overlap: false` keeps both stages on the calling
    /// thread.
    fn run_loop(
        config: &SimConfig,
        batch: usize,
        overlap: bool,
        rows: DayRows,
        after_day: &mut dyn FnMut(&SessionStore, &FarmPlan, &[Row]),
    ) -> Result<(Collector, TagDb, usize), SimError> {
        assert!(
            !config.use_script_cache,
            "SimConfig::use_script_cache is no longer an option: the script cache \
             was deleted and every session runs through the shell; leave it false \
             (ROADMAP 1(b) removes the field)"
        );
        assert_eq!(
            config.threads, 1,
            "SimConfig::threads is no longer an option: the day loop's two-stage \
             pipeline is the only concurrency; leave it 1 (ROADMAP 1(b) removes the field)"
        );
        let mut eco = Ecosystem::new(EcosystemConfig {
            seed: config.seed,
            scale: config.scale,
            window: config.window,
        });
        let configs = build_configs(&eco.plan);
        let mut collector =
            Collector::with_capacity(&eco.world, eco.plan.clone(), eco.estimated_sessions());
        let mut tags = TagDb::new();
        // The per-day pre-pass persists across days: campaign variants
        // repeat day after day, so parsing amortizes across the whole
        // window, not just within one day.
        let mut prepared = PreparedScripts::new();
        let days = config.window.num_days();
        hf_obs::gauge!("sim.days", days);
        // Producer state: the day being executed, its plans, the first plan
        // of its next batch (`None` between days) and its span, which
        // closes when the day's last batch has executed.
        let mut day = 0;
        let mut plans: Vec<SessionPlan> = Vec::new();
        let mut next: Option<usize> = None;
        let mut day_span = None;
        // Consumer state: the first row of the day being ingested.
        let mut day_start = 0;
        hf_obs::overlapped(
            if overlap { days as usize } else { 1 },
            "sim.execute_wait",
            [Batch::default(), Batch::default()],
            |batch_out: &mut Batch| {
                // The records the consumer handed back die here, on the
                // thread that allocated them.
                batch_out.0.clear();
                let start = match next {
                    Some(start) => start,
                    None if day == days => return Ok(None),
                    None => {
                        day_span = Some(hf_obs::span!("sim.day"));
                        plans = eco.plan_day(day);
                        hf_obs::counter!("sim.days_executed", 1);
                        hf_obs::counter!("sim.sessions_executed", plans.len() as u64);
                        hf_obs::observe!("sim.day_sessions", plans.len());
                        0
                    }
                };
                let ctx = ExecCtx {
                    plan: &eco.plan,
                    configs: &configs,
                    catalog: &eco.catalog,
                    creds: &eco.creds,
                    pool: eco.pool_ref(),
                };
                // Pre-pass, once per day: parse each distinct
                // campaign/recon script once, then execute the batch.
                if start == 0 {
                    prepared.prepare_day(&ctx, &plans);
                }
                let end = plans.len().min(start + batch);
                execute_batch(&ctx, &plans[start..end], &prepared, batch_out)?;
                let day_done = end == plans.len();
                if day_done {
                    next = None;
                    day += 1;
                    day_span = None;
                } else {
                    next = Some(end);
                }
                Ok(Some(day_done))
            },
            |day_done, (records, batch_tags)| {
                // Batches arrive in plan order: the serial loop's row order,
                // and `merge` keeps the first tag of each hash.
                collector.ingest_batch(records);
                tags.merge(std::mem::take(batch_tags));
                if day_done {
                    let store = collector.sessions();
                    after_day(store, collector.plan(), &store.rows()[day_start..]);
                    match rows {
                        DayRows::Keep => day_start = store.len(),
                        DayRows::Retire => {
                            collector.retire_rows();
                            hf_obs::sample_peak_rss();
                        }
                    }
                }
                Ok(())
            },
        )?;
        Ok((collector, tags, eco.n_clients()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run of the private day loop: the dataset, tags, client count and
    /// the rows the per-day hook was handed, one slice per call.
    type Arm = (Dataset, TagDb, usize, Vec<Vec<Row>>);

    fn run_arm(batch: usize, overlap: bool, rows: DayRows) -> Arm {
        let config = SimConfig::test(8);
        let mut slices = Vec::new();
        let mut days = Vec::new();
        let (collector, tags, n_clients) =
            Simulation::run_loop(&config, batch, overlap, rows, &mut |store, _, day_rows| {
                let day = store.view_row(&day_rows[0]).day();
                assert!(
                    day_rows.iter().all(|r| store.view_row(r).day() == day),
                    "a slice holds exactly one day"
                );
                days.push(day);
                slices.push(day_rows.to_vec());
            })
            .expect("day loop");
        assert_eq!(days, (0..8).collect::<Vec<_>>(), "days arrive in order");
        let dataset = collector.finish();
        match rows {
            DayRows::Keep => assert_eq!(dataset.sessions.rows(), slices.concat(), "rows kept"),
            DayRows::Retire => assert!(dataset.sessions.is_empty(), "rows retired"),
        }
        (dataset, tags, n_clients, slices)
    }

    fn assert_same_arm(a: &Arm, b: &Arm, what: &str) {
        let ((da, ta, na, ea), (db, tb, nb, eb)) = (a, b);
        assert_eq!(ea, eb, "{what}: the rows handed to the per-day hook");
        let strings = |s: &SessionStore| {
            [&s.creds, &s.commands, &s.uris, &s.ssh_versions].map(|p| {
                p.iter()
                    .map(|(i, v)| (i, v.to_string()))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(
            strings(&da.sessions),
            strings(&db.sessions),
            "{what}: string pools"
        );
        let digests = |s: &SessionStore| s.digests.iter().collect::<Vec<_>>();
        assert_eq!(
            digests(&da.sessions),
            digests(&db.sessions),
            "{what}: digests"
        );
        let lists = |s: &SessionStore| {
            s.lists
                .iter()
                .map(|(i, l)| (i, l.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(lists(&da.sessions), lists(&db.sessions), "{what}: lists");
        assert_eq!(ta.len(), tb.len(), "{what}: tags");
        for (h, e) in ta.iter() {
            assert_eq!(tb.tag(h), Some(e.tag.as_str()), "{what}: tag");
            assert_eq!(
                tb.campaign(h),
                Some(e.campaign.as_str()),
                "{what}: campaign"
            );
        }
        assert_eq!(da.artifacts.len(), db.artifacts.len(), "{what}: artifacts");
        for (h, meta) in da.artifacts.iter() {
            assert_eq!(db.artifacts.get(h), Some(meta), "{what}: artifact");
        }
        assert_eq!(da.plan, db.plan, "{what}: plan");
        assert_eq!(na, nb, "{what}: clients");
    }

    #[test]
    fn overlapped_day_loop_matches_the_serial_loop() {
        // The serial reference: one batch per day on the calling thread, rows
        // kept. Its hook slices concatenate to its rows (checked in
        // `run_arm`), so every arm that matches its slices matches its rows
        // too, whether it kept them or retired them.
        let serial = run_arm(BATCH_PLANS, false, DayRows::Keep);
        let small = 128;
        for day in &serial.3 {
            assert!(day.len() > 2 * small, "each day splits into ≥ 3 batches");
        }
        for (batch, overlap) in [(BATCH_PLANS, true), (small, false), (small, true)] {
            for rows in [DayRows::Keep, DayRows::Retire] {
                let arm = run_arm(batch, overlap, rows);
                let what = format!("batch={batch} overlap={overlap} {rows:?}");
                assert_same_arm(&serial, &arm, &what);
            }
        }
    }

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
    #[should_panic(expected = "use_script_cache is no longer an option")]
    fn script_cache_is_refused() {
        Simulation::run(SimConfig {
            use_script_cache: true,
            ..SimConfig::test(2)
        });
    }

    #[test]
    #[should_panic(expected = "SimConfig::threads is no longer an option")]
    fn more_than_one_thread_is_refused() {
        Simulation::run(SimConfig {
            threads: 2,
            ..SimConfig::test(2)
        });
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
}
