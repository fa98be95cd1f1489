//! The four workloads. Each runs one repetition two ways: through the
//! library's one-call entry points, as `hfarm` does, and through a staged
//! driver that makes the same public calls one layer at a time with a span
//! around each. Both write their outputs under the same directory, so the
//! runner can check that they agree byte for byte.

pub mod sim_fold;
pub mod snapshot;
pub mod wire;

use std::path::Path;

use honeyfarm::cluster::{self, ClusterRun};
use honeyfarm::core::{Aggregates, Claims, Report};
use honeyfarm::farm::{Dataset, TagDb};
use honeyfarm::hash::Sha256;
use honeyfarm::prelude::{Scale, SimConfig, StudyWindow};

use crate::ledger::Ledger;

/// Seed and input sizes of one workload's run.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Volume scale of the simulated dataset (1.0 is the paper's 402 M
    /// sessions over 486 days).
    pub scale: f64,
    /// Days simulated; 486 and above is the paper's window.
    pub days: u32,
    /// Sessions driven over the wire per repetition.
    pub wire_sessions: usize,
}

impl Config {
    pub fn sim(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            scale: Scale::of(self.scale),
            window: if self.days >= 486 {
                StudyWindow::paper()
            } else {
                StudyWindow::first_days(self.days)
            },
            // The shipped defaults: one thread, full shell emulation.
            use_script_cache: false,
            threads: 1,
        }
    }
}

/// What one repetition did, as far as the timed code itself can tell.
#[derive(Default)]
pub struct Rep {
    /// Sessions simulated, rows analysed or connections driven.
    pub attempted: u64,
    /// How many of them failed or were refused.
    pub failed: u64,
    /// Per-session completion times in µs, where sessions complete one by
    /// one (the wire); empty on the batch workloads.
    pub latencies_us: Vec<f64>,
    /// Exact counts a staged repetition made along the way, by per-layer
    /// metric name.
    pub layer: Vec<(String, f64)>,
}

/// What checking a repetition found, outside the timed code.
#[derive(Default)]
pub struct Verdict {
    pub errors: Vec<String>,
    /// Per-layer values that take work to derive from the repetition's
    /// records (percentiles, file sizes), so are derived here, untimed.
    pub layer: Vec<(String, f64)>,
}

pub trait Workload {
    /// One repetition through the one-call entry points, outputs under `out`.
    fn one_call(&mut self, out: &Path) -> Rep;
    /// The same repetition through the staged driver, recording spans.
    fn staged(&mut self, out: &Path, l: &mut Ledger) -> Rep;
    /// Check the repetition that just ended, given the digests of what it
    /// wrote (see [`digest_outputs`]). Untimed.
    fn verify(&mut self, _out: &Path, _digests: &[(String, String)]) -> Verdict {
        Verdict::default()
    }
    /// Bytes the workload keeps on disk for its sessions: what the
    /// repetition wrote under `out`, plus any stored input it read.
    fn stored_bytes(&self, out: &Path) -> u64 {
        dir_bytes(out)
    }
    /// Measurements a traced run takes once, beside the repetitions.
    fn beside(&mut self) -> Vec<(String, f64)> {
        Vec::new()
    }
    /// Checks made once after the timed phase, however much memory they need.
    fn final_checks(&mut self, _out: &Path) -> Vec<String> {
        Vec::new()
    }
}

/// Build a workload's inputs from the seed; `work` is its scratch directory.
/// This is the set-up the runner times (together with a first, discarded
/// repetition).
pub fn set_up(name: &str, cfg: &Config, work: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim-fold" => Box::new(sim_fold::SimFold::set_up(cfg)),
        "snapshot-analyze" => Box::new(snapshot::Analyze::set_up(cfg, work)),
        "snapshot-persist" => Box::new(snapshot::Persist::set_up(cfg)),
        "wire-table1" => Box::new(wire::WireTable1::set_up(cfg)),
        _ => return None,
    })
}

/// Build and write every table and figure plus the claims, as `hfarm`'s
/// `write_report` does.
fn write_report(l: &mut Ledger, dataset: &Dataset, agg: &Aggregates, tags: &TagDb, out: &Path) {
    let dir = out.join("report");
    let report = l.time("core.report_build", |_| {
        Report::build_with_tags(dataset, agg, tags)
    });
    l.time("core.report_write", |_| {
        report
            .write_dir(&dir)
            .expect("report directory is writable")
    });
    l.time("core.claims", |_| {
        let claims = Claims::compute(agg);
        std::fs::write(dir.join("claims.json"), claims.to_json()).expect("claims.json is writable")
    });
}

/// Write both cluster tables, as `hfarm cluster` does.
fn write_cluster(l: &mut Ledger, run: &ClusterRun, out: &Path) {
    l.time("cluster.render", |_| {
        let dir = out.join("cluster");
        std::fs::create_dir_all(&dir).expect("cluster directory is writable");
        let assignments = cluster::assignments_tsv(&run.features, &run.matrix, &run.output);
        std::fs::write(dir.join("cluster_assignments.tsv"), assignments)
            .expect("assignments table is writable");
        std::fs::write(
            dir.join("cluster_summary.tsv"),
            cluster::summary_tsv(&run.output),
        )
        .expect("summary table is writable");
    });
}

/// SHA-256 over the files under `dir`, as `name length bytes` in name order,
/// directories descended into; hex.
pub fn digest_tree(dir: &Path) -> String {
    fn feed(h: &mut Sha256, dir: &Path, prefix: &str) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for path in entries {
            let name = format!(
                "{prefix}{}",
                path.file_name()
                    .expect("listed entry has a name")
                    .to_string_lossy()
            );
            if path.is_dir() {
                feed(h, &path, &format!("{name}/"));
            } else {
                let bytes = std::fs::read(&path).expect("output file reads");
                h.update(format!("{name} {}\n", bytes.len()).as_bytes());
                h.update(&bytes);
            }
        }
    }
    let mut h = Sha256::new();
    feed(&mut h, dir, "");
    h.finalize().to_hex()
}

/// The parts of a repetition's output that must not change from one
/// repetition, driver or ingest path to another, each with its digest.
pub fn digest_outputs(out: &Path) -> Vec<(String, String)> {
    ["report", "cluster", "farm.hfstore"]
        .iter()
        .map(|part| (part, out.join(part)))
        .filter(|(_, path)| path.exists())
        .map(|(part, path)| {
            let digest = if path.is_dir() {
                digest_tree(&path)
            } else {
                Sha256::digest(&std::fs::read(&path).expect("output file reads")).to_hex()
            };
            (part.to_string(), digest)
        })
        .collect()
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
