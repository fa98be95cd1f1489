//! Batch execution: one serial executor runs a batch of plans in plan order.
//!
//! The simulation's unit of work is one planned session: given the immutable
//! [`ExecCtx`] and a [`SessionPlan`], `execute_plan_reusing` derives everything
//! else from the plan's own seed. The only cross-session state is
//! *recording* — the collector's ingest order and the tag database's
//! first-wins rule — and both are functions of plan order alone. The day
//! loop (`crate::runner`) cuts each day's plans into batches, runs each
//! batch through `execute_batch` into a `Batch` (a record vector and the
//! spare buffers of the batch it held before) while tagging into the run's
//! one `TagDb`, and ingests the batches in order, so the run equals one
//! serial pass over the whole window.
//!
//! The module keeps its name, [`DayMode`] and [`execute_day_shards`] only
//! because code outside the workspace still imports them from here (ROADMAP
//! 1(b) deletes them).

use hf_agents::SessionPlan;
use hf_farm::TagDb;
use hf_honeypot::record::RecordSpares;
use hf_honeypot::SessionRecord;

use crate::error::SimError;
use crate::exec::{execute_plan_reusing, ExecCtx, PreparedScripts};

/// The day state a day's sessions execute against: full shell emulation
/// per session, with scripts pre-parsed once per `(campaign, variant)` by
/// [`PreparedScripts::prepare_day`]. A one-variant enum only so
/// `DayMode::Full(&prepared)` call sites outside the workspace keep
/// compiling (ROADMAP 1(b) collapses it into a plain `&PreparedScripts`).
#[derive(Clone, Copy, Debug)]
pub enum DayMode<'a> {
    /// Full shell emulation over pre-parsed scripts.
    Full(&'a PreparedScripts),
}

/// One batch of the day loop: its records in plan order and the spare
/// buffers its records are built from.
#[derive(Default)]
pub(crate) struct Batch {
    pub(crate) records: Vec<SessionRecord>,
    spares: RecordSpares,
}

impl Batch {
    /// Take the records a consumer is done with apart into the spares, so
    /// the next batch produced into this one reuses their buffers instead
    /// of freeing and allocating them again.
    pub(crate) fn recycle(&mut self) {
        let _span = hf_obs::span!("sim.recycle");
        for record in self.records.drain(..) {
            self.spares.reclaim(record);
        }
    }
}

/// Execute `plans` in order, appending their records to `batch.records`
/// and tagging their hashes in `tags` (first association wins, so plan
/// order decides). `prepared` must already cover these plans; a gap
/// surfaces as `Err(SimError)` naming the missing key.
pub(crate) fn execute_batch(
    ctx: &ExecCtx<'_>,
    plans: &[SessionPlan],
    prepared: &PreparedScripts,
    batch: &mut Batch,
    tags: &mut TagDb,
) -> Result<(), SimError> {
    let _span = hf_obs::span!("sim.execute");
    let Batch { records, spares } = batch;
    // Exact: the day loop recycles `records`, and amortized doubling would
    // leave each of its two buffers up to twice the largest batch.
    records.reserve_exact(plans.len());
    for plan in plans {
        records.push(execute_plan_reusing(ctx, plan, tags, prepared, spares)?);
    }
    Ok(())
}

/// No longer a fan-out: `threads` must be `1`, or this panics, and the
/// result is exactly one shard, `plans`' records in plan order plus their
/// tag shard. The signature stays only so callers outside the workspace
/// keep compiling; ROADMAP 1(b) deletes it.
pub fn execute_day_shards(
    ctx: &ExecCtx<'_>,
    plans: &[SessionPlan],
    threads: usize,
    mode: DayMode<'_>,
) -> Result<Vec<(Vec<SessionRecord>, TagDb)>, SimError> {
    assert_eq!(
        threads, 1,
        "execute_day_shards no longer fans out: plans execute on one thread; \
         pass 1 (ROADMAP 1(b) removes this function)"
    );
    let DayMode::Full(prepared) = mode;
    let mut batch = Batch::default();
    let mut tags = TagDb::new();
    execute_batch(ctx, plans, prepared, &mut batch, &mut tags)?;
    Ok(vec![(batch.records, tags)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::build_configs;
    use hf_agents::{Behavior, Ecosystem, EcosystemConfig, Scale};
    use hf_proto::Protocol;
    use hf_simclock::StudyWindow;

    /// Day 0's plans of a tiny ecosystem, its configs, and the day's
    /// prepared scripts, handed to `f` as an execution context.
    fn with_day(f: impl FnOnce(&ExecCtx<'_>, &[SessionPlan], &PreparedScripts)) {
        let mut eco = Ecosystem::new(EcosystemConfig {
            seed: 1234,
            scale: Scale::tiny(),
            window: StudyWindow::first_days(10),
        });
        let plans = eco.plan_day(0);
        let configs = build_configs(&eco.plan);
        let ctx = ExecCtx {
            plan: &eco.plan,
            configs: &configs,
            catalog: &eco.catalog,
            creds: &eco.creds,
            pool: eco.pool_ref(),
        };
        let mut prepared = PreparedScripts::new();
        prepared.prepare_day(&ctx, &plans);
        f(&ctx, &plans, &prepared)
    }

    #[test]
    fn the_shim_returns_the_executors_one_shard() {
        with_day(|ctx, plans, prepared| {
            let mut batch = Batch::default();
            let mut batch_tags = TagDb::new();
            execute_batch(ctx, plans, prepared, &mut batch, &mut batch_tags).unwrap();
            assert_eq!(batch.records.len(), plans.len());
            let shards = execute_day_shards(ctx, plans, 1, DayMode::Full(prepared)).unwrap();
            let [(records, tags)] = &shards[..] else {
                panic!("{} shards, not one", shards.len())
            };
            assert_eq!(
                records, &batch.records,
                "records must match in content and order"
            );
            assert_eq!(tags.len(), batch_tags.len());
            assert!(batch_tags
                .iter()
                .all(|(h, e)| tags.tag(h) == Some(e.tag.as_str())));
        });
    }

    #[test]
    fn a_recycled_batch_equals_fresh_records_whatever_it_held_before() {
        with_day(|ctx, plans, prepared| {
            let scripted: Vec<SessionPlan> = (plans.iter())
                .filter(|p| matches!(p.behavior, Behavior::Script { .. } | Behavior::Recon { .. }))
                .copied()
                .collect();
            let scans_and_telnet: Vec<SessionPlan> = (plans.iter())
                .filter(|p| {
                    p.protocol == Protocol::Telnet || matches!(p.behavior, Behavior::Scan { .. })
                })
                .copied()
                .collect();
            let reversed: Vec<SessionPlan> = scripted.iter().rev().copied().collect();
            assert!(scripted.len() > 30 && scans_and_telnet.len() > 30);
            assert!(scans_and_telnet.iter().any(
                |p| p.protocol == Protocol::Ssh && matches!(p.behavior, Behavior::Scan { .. })
            ));
            // One buffer, recycled between batches as the day loop does: a
            // script-heavy batch, a scan- and Telnet-heavy one, then the
            // scripts again in another order, so slots that held SSH
            // versions, commands, URIs, logins and hashes are rebuilt as
            // records that have fewer or none, and the other way round.
            let mut batch = Batch::default();
            for shape in [&scripted, &scans_and_telnet, &reversed] {
                batch.recycle();
                execute_batch(ctx, shape, prepared, &mut batch, &mut TagDb::new()).unwrap();
                let mut tags = TagDb::new();
                let fresh: Vec<SessionRecord> = (shape.iter())
                    .map(|p| {
                        execute_plan_reusing(
                            ctx,
                            p,
                            &mut tags,
                            prepared,
                            &mut RecordSpares::default(),
                        )
                        .unwrap()
                    })
                    .collect();
                assert_eq!(batch.records, fresh, "recycled records equal fresh ones");
            }
        });
    }

    #[test]
    #[should_panic(expected = "execute_day_shards no longer fans out")]
    fn the_shim_refuses_more_than_one_thread() {
        with_day(|ctx, plans, prepared| {
            let _ = execute_day_shards(ctx, plans, 2, DayMode::Full(prepared));
        });
    }
}
