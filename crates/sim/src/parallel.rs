//! Deterministic parallel day execution.
//!
//! The simulation's unit of work is one planned session: given the immutable
//! [`ExecCtx`] and a [`SessionPlan`], `execute_plan*` derives everything else
//! from the plan's own seed. Sessions within a day therefore have no data
//! dependencies on each other — the only cross-session state is *recording*
//! (the collector's ingest order and the tag database's first-wins rule),
//! and both are functions of plan order alone.
//!
//! That makes the day loop parallelizable without giving up bit-for-bit
//! reproducibility:
//!
//! 1. `plan_day` returns plans in a total deterministic order (it sorts by a
//!    unique key; see `Ecosystem::plan_day`).
//! 2. The plan slice is split into `threads` *contiguous* chunks. Each worker
//!    executes its chunk in order into a private record vector and a private
//!    [`TagDb`] shard. Workers share nothing mutable — both [`DayMode`]s
//!    carry day state that was pre-filled serially (pre-parsed scripts or
//!    pre-computed outcomes) and is read immutably.
//! 3. Shards come back from [`hf_obs::map_ordered`] and are merged *in chunk
//!    order*: record vectors are concatenated (which reproduces the serial
//!    ingest order exactly, because concatenating in-order chunks of an
//!    ordered sequence yields the sequence), and tag shards are folded with
//!    [`TagDb::merge`], whose keep-existing rule makes "first shard wins"
//!    equal "first plan wins".
//!
//! The result: `threads = N` produces byte-identical output to `threads = 1`
//! for every N, and the scheduler's interleaving of workers is invisible.

use hf_agents::SessionPlan;
use hf_farm::TagDb;
use hf_honeypot::SessionRecord;

use crate::error::SimError;
use crate::exec::{
    execute_plan_full, execute_plan_prepared, ExecCtx, PreparedScripts, ScriptCache,
};

/// How a day's sessions are executed. Both variants borrow day state that a
/// serial pre-pass filled (and that workers read immutably), so the choice
/// here is purely fidelity-vs-speed:
///
/// * [`DayMode::Full`] drives the real honeypot state machine and shell
///   emulator per session, with scripts pre-parsed once per
///   `(campaign, variant)` by [`PreparedScripts::prepare_day`].
/// * [`DayMode::Cached`] replays pre-computed script outcomes filled by
///   [`ScriptCache::precompute_day`], skipping shell execution entirely.
#[derive(Clone, Copy, Debug)]
pub enum DayMode<'a> {
    /// Full shell emulation over pre-parsed scripts.
    Full(&'a PreparedScripts),
    /// Script-cache replay fast path.
    Cached(&'a ScriptCache),
}

impl DayMode<'_> {
    fn min_shard_plans(&self) -> usize {
        match self {
            DayMode::Full(_) => MIN_SHARD_PLANS,
            DayMode::Cached(_) => MIN_SHARD_PLANS_CACHED,
        }
    }
}

/// Minimum plans per worker shard (full shell emulation). Below this,
/// thread spawn/join overhead outweighs the work — on short days, 8
/// workers on a few hundred plans ran *slower* than 4 (the old 8-thread
/// regression). The effective shard count is capped so each shard gets at
/// least this many plans; the cap never changes output, only how the
/// (order-preserving) split is cut.
pub const MIN_SHARD_PLANS: usize = 192;

/// Minimum plans per worker shard on the script-cache fast path, where
/// per-session work is much lighter and the same spawn/merge overhead
/// needs more plans to amortize.
pub const MIN_SHARD_PLANS_CACHED: usize = 384;

fn execute_chunk(
    ctx: &ExecCtx<'_>,
    chunk: &[SessionPlan],
    mode: DayMode<'_>,
) -> Result<(Vec<SessionRecord>, TagDb), SimError> {
    let mut records = Vec::with_capacity(chunk.len());
    let mut tags = TagDb::new();
    for plan in chunk {
        let rec = match mode {
            DayMode::Full(prepared) => execute_plan_full(ctx, plan, &mut tags, prepared)?,
            DayMode::Cached(cache) => execute_plan_prepared(ctx, plan, &mut tags, cache)?,
        };
        records.push(rec);
    }
    Ok((records, tags))
}

/// Execute one day's plans across up to `threads` workers, returning each
/// shard's records (in plan order) and private tag shard, in shard order.
///
/// Callers consume shards in order (ingest shard 0's records, then shard
/// 1's, …; fold tags with [`TagDb::merge`]) which reproduces the serial
/// execution exactly while skipping the whole-day record concatenation the
/// old single-vector API paid. The `mode`'s day state must already cover
/// these plans (see [`DayMode`]); a gap surfaces as `Err(SimError)` naming
/// the missing key. Shards fan out through [`hf_obs::map_ordered`], so a
/// single shard runs inline and a worker panic (a bug, not a coverage gap)
/// is resumed on the caller's thread.
pub fn execute_day_shards(
    ctx: &ExecCtx<'_>,
    plans: &[SessionPlan],
    threads: usize,
    mode: DayMode<'_>,
) -> Result<Vec<(Vec<SessionRecord>, TagDb)>, SimError> {
    let threads = threads.max(1);
    let max_useful = plans.len().div_ceil(mode.min_shard_plans()).max(1);
    let shards_n = threads.min(max_useful);
    // One shard is the whole day, even an empty one.
    let chunks: Vec<&[SessionPlan]> = if shards_n == 1 {
        vec![plans]
    } else {
        plans.chunks(plans.len().div_ceil(shards_n)).collect()
    };
    hf_obs::map_ordered(chunks, |chunk| {
        hf_obs::counter!("sim.shards_executed", 1);
        let _span = hf_obs::span!("sim.shard_execute");
        execute_chunk(ctx, chunk, mode)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::build_configs;
    use hf_agents::{Ecosystem, EcosystemConfig, Scale};
    use hf_simclock::StudyWindow;

    /// One day's records in plan order plus the merged tag shard — the
    /// shards of [`execute_day_shards`] consumed the way the runner does.
    fn execute_day_sharded(
        ctx: &ExecCtx<'_>,
        plans: &[SessionPlan],
        threads: usize,
        mode: DayMode<'_>,
    ) -> Result<(Vec<SessionRecord>, TagDb), SimError> {
        let mut records = Vec::with_capacity(plans.len());
        let mut tags = TagDb::new();
        for (shard_records, shard_tags) in execute_day_shards(ctx, plans, threads, mode)? {
            records.extend(shard_records);
            tags.merge(shard_tags);
        }
        Ok((records, tags))
    }

    fn day_plans() -> (Ecosystem, Vec<SessionPlan>) {
        let mut eco = Ecosystem::new(EcosystemConfig {
            seed: 1234,
            scale: Scale::tiny(),
            window: StudyWindow::first_days(10),
        });
        let plans = eco.plan_day(0);
        (eco, plans)
    }

    fn run(threads: usize, use_cache: bool) -> (Vec<SessionRecord>, TagDb) {
        let (eco, plans) = day_plans();
        let configs = build_configs(&eco.plan);
        let ctx = ExecCtx {
            plan: &eco.plan,
            configs: &configs,
            catalog: &eco.catalog,
            creds: &eco.creds,
            pool: eco.pool_ref(),
        };
        if use_cache {
            let mut cache = ScriptCache::new();
            cache.precompute_day(&ctx, &plans);
            execute_day_sharded(&ctx, &plans, threads, DayMode::Cached(&cache)).unwrap()
        } else {
            let mut prepared = PreparedScripts::new();
            prepared.prepare_day(&ctx, &plans);
            execute_day_sharded(&ctx, &plans, threads, DayMode::Full(&prepared)).unwrap()
        }
    }

    fn assert_same(a: &(Vec<SessionRecord>, TagDb), b: &(Vec<SessionRecord>, TagDb)) {
        assert_eq!(a.0, b.0, "records must match in content and order");
        assert_eq!(a.1.len(), b.1.len());
        for (h, e) in a.1.iter() {
            assert_eq!(b.1.tag(h), Some(e.tag.as_str()));
            assert_eq!(b.1.campaign(h), Some(e.campaign.as_str()));
        }
    }

    #[test]
    fn sharded_execution_is_thread_count_invariant() {
        let one = run(1, false);
        assert!(!one.0.is_empty());
        for threads in [2, 3, 4, 7] {
            assert_same(&run(threads, false), &one);
        }
    }

    #[test]
    fn sharded_execution_with_cache_is_thread_count_invariant() {
        let one = run(1, true);
        for threads in [2, 4] {
            assert_same(&run(threads, true), &one);
        }
    }

    #[test]
    fn more_threads_than_plans_is_fine() {
        let (eco, plans) = day_plans();
        let configs = build_configs(&eco.plan);
        let ctx = ExecCtx {
            plan: &eco.plan,
            configs: &configs,
            catalog: &eco.catalog,
            creds: &eco.creds,
            pool: eco.pool_ref(),
        };
        let few = &plans[..3.min(plans.len())];
        let mut prepared = PreparedScripts::new();
        prepared.prepare_day(&ctx, few);
        let (records, _) = execute_day_sharded(&ctx, few, 64, DayMode::Full(&prepared)).unwrap();
        assert_eq!(records.len(), few.len());
    }

    #[test]
    fn shard_cap_preserves_order_and_content() {
        let (eco, plans) = day_plans();
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
        let reference = execute_day_sharded(&ctx, &plans, 1, DayMode::Full(&prepared)).unwrap();
        for threads in [2, 8, 64] {
            let shards =
                execute_day_shards(&ctx, &plans, threads, DayMode::Full(&prepared)).unwrap();
            // The cap bounds worker count by available work.
            assert!(shards.len() <= plans.len().div_ceil(MIN_SHARD_PLANS).max(1));
            assert!(shards.len() <= threads);
            let flat: Vec<SessionRecord> = shards.into_iter().flat_map(|(r, _)| r).collect();
            assert_eq!(flat, reference.0, "threads={threads}");
        }
    }

    #[test]
    fn coverage_gap_surfaces_as_error_not_panic() {
        let (eco, plans) = day_plans();
        let configs = build_configs(&eco.plan);
        let ctx = ExecCtx {
            plan: &eco.plan,
            configs: &configs,
            catalog: &eco.catalog,
            creds: &eco.creds,
            pool: eco.pool_ref(),
        };
        let empty = PreparedScripts::new();
        let err = execute_day_sharded(&ctx, &plans, 4, DayMode::Full(&empty));
        assert!(err.is_err(), "empty prepared set must be a typed error");
    }
}
