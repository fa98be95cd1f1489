//! `sim-fold`: what `hfarm simulate --fold` does. The attacker ecosystem
//! plans each day, every plan runs against the honeypot and its shell, the
//! collector ingests the records, the day is folded into the aggregates and
//! its rows retired; then the report is built and written.

use std::path::Path;

use honeyfarm::agents::{Ecosystem, EcosystemConfig};
use honeyfarm::core::StreamingFold;
use honeyfarm::farm::{Collector, TagDb};
use honeyfarm::prelude::{SimConfig, Simulation};
use honeyfarm::sim::exec::build_configs;
use honeyfarm::sim::parallel::execute_day_shards;
use honeyfarm::sim::{DayMode, ExecCtx, PreparedScripts};

use super::{write_report, Config, Rep, Workload};
use crate::ledger::Ledger;

pub struct SimFold {
    config: SimConfig,
}

impl SimFold {
    pub fn set_up(cfg: &Config) -> Self {
        SimFold { config: cfg.sim() }
    }
}

impl Workload for SimFold {
    fn one_call(&mut self, out: &Path) -> Rep {
        let fold = Simulation::run_fold(self.config.clone());
        write_report(
            &mut Ledger::off(),
            &fold.dataset,
            &fold.aggregates,
            &fold.tags,
            out,
        );
        Rep {
            attempted: fold.aggregates.total_sessions,
            ..Rep::default()
        }
    }

    /// The day loop of `crates/sim/src/runner.rs` (`run_loop` with the fold
    /// hook of `try_run_fold_with_progress`), restated call by call.
    fn staged(&mut self, out: &Path, l: &mut Ledger) -> Rep {
        let config = &self.config;
        let threads = config.threads.max(1);
        let (mut eco, configs, mut collector) = l.time("agents.init", |_| {
            let eco = Ecosystem::new(EcosystemConfig {
                seed: config.seed,
                scale: config.scale,
                window: config.window,
            });
            let configs = build_configs(&eco.plan);
            let collector =
                Collector::with_capacity(&eco.world, eco.plan.clone(), eco.estimated_sessions());
            (eco, configs, collector)
        });
        let mut tags = TagDb::new();
        let mut prepared = PreparedScripts::new();
        let mut fold = StreamingFold::new(collector.plan().len());
        let (mut n_plans, mut n_records, mut n_rows) = (0u64, 0u64, 0u64);
        for day in 0..config.window.num_days() {
            let plans = l.time("agents.plan_day", |_| eco.plan_day(day));
            n_plans += plans.len() as u64;
            let ctx = ExecCtx {
                plan: &eco.plan,
                configs: &configs,
                catalog: &eco.catalog,
                creds: &eco.creds,
                pool: eco.pool_ref(),
            };
            l.time("sim.prepare_day", |_| prepared.prepare_day(&ctx, &plans));
            let shards = l.time("sim.execute", |_| {
                execute_day_shards(&ctx, &plans, threads, DayMode::Full(&prepared))
                    .expect("prepare_day covered every plan of the day")
            });
            l.time("farm.collector_ingest", |_| {
                for (records, day_tags) in shards {
                    n_records += records.len() as u64;
                    collector.ingest_batch(&records);
                    tags.merge(day_tags);
                }
            });
            l.time("core.fold_ingest", |_| {
                let store = collector.sessions();
                let plan = collector.plan();
                for i in 0..store.len() {
                    fold.ingest(plan, &store.view(i));
                }
                fold.drain_freshness();
                n_rows += store.len() as u64;
            });
            l.time("farm.retire_rows", |_| collector.retire_rows());
        }
        let dataset = l.time("farm.collector_ingest", |_| collector.finish());
        let aggregates = l.time("core.fold_finish", |_| fold.finish());
        write_report(l, &dataset, &aggregates, &tags, out);
        assert!(
            n_plans == n_records && n_records == n_rows,
            "every plan gives one record and one folded row: {n_plans} {n_records} {n_rows}"
        );
        Rep {
            attempted: aggregates.total_sessions,
            layer: vec![
                ("agents.plans".into(), n_plans as f64),
                ("sim.sessions".into(), n_records as f64),
                ("farm.rows_ingested".into(), n_rows as f64),
            ],
            ..Rep::default()
        }
    }
}
