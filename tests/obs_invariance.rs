//! The observability layer's hard invariant: enabling metrics never
//! perturbs any simulation, snapshot, or report byte, and the counters it
//! records are themselves deterministic.
//!
//! Two families of proof, both via the testkit oracles:
//!
//! 1. **Metrics-off vs metrics-on** at threads ∈ {1, 2, 8}: the full
//!    pipeline (simulate → snapshot encode/decode → aggregates → report)
//!    produces bit-identical results whether or not recording is enabled.
//! 2. **Thread-count invariance of the deterministic counters**: the
//!    subset of metrics that count *work done* (sessions executed and
//!    ingested, rows written/loaded/folded, artifacts written) must not
//!    depend on the thread count, even though scheduling does. Manifests
//!    are restricted to that subset with [`RunManifest::filtered`] and
//!    compared field-by-field with `diff_manifests`.
//!
//! The obs registry is process-global, so every test serializes on one
//! mutex and starts from `obs::reset()`.

use std::sync::Mutex;

use honeyfarm::core::{Aggregates, Report};
use honeyfarm::obs::{self, RunManifest};
use honeyfarm::prelude::*;
use honeyfarm::testkit::{diff_aggregates, diff_manifests, diff_reports, diff_sim_outputs};

/// Serializes tests within this process: obs state is process-global.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Counter/histogram names whose values are pure functions of the input —
/// the thread-count-invariant subset the cross-thread comparison keeps.
/// (Span timings, `sim.shards_executed`, `analysis.shards_folded`, the
/// `sim.threads` gauge, and per-batch histograms legitimately vary.)
const INVARIANT: &[&str] = &[
    "sim.days_executed",
    "sim.sessions_executed",
    "farm.sessions_ingested",
    "farm.artifact_observations",
    "snapshot.rows_written",
    "snapshot.rows_loaded",
    "snapshot.bytes_written",
    "analysis.rows_folded",
    "report.artifacts_written",
    "sim.day_sessions",
];

fn config(threads: usize) -> SimConfig {
    let mut cfg = SimConfig::test(6);
    cfg.threads = threads;
    cfg
}

/// Everything one pipeline run observes: outputs at each stage, the exact
/// snapshot encoding, and every rendered report artifact byte-for-byte.
struct PipelineRun {
    out: SimOutput,
    snapshot_bytes: Vec<u8>,
    reloaded: SimOutput,
    agg: Aggregates,
    report: Report,
    artifacts: std::collections::BTreeMap<String, Vec<u8>>,
}

/// Simulate, encode + decode the snapshot, aggregate, build the report,
/// and render it, all at the given thread count. `label` keeps the
/// scratch render directories of concurrent test processes apart.
fn run_pipeline(threads: usize, label: &str) -> PipelineRun {
    let cfg = config(threads);
    let out = Simulation::run(cfg.clone());
    let mut snapshot_bytes = Vec::new();
    out.to_snapshot(&cfg)
        .write_to(&mut snapshot_bytes)
        .expect("snapshot encode");
    let reloaded = SimOutput::from_snapshot(
        Snapshot::read_from(&mut &snapshot_bytes[..]).expect("snapshot decode"),
    );
    let agg = Aggregates::compute_threaded(&out.dataset, threads);
    let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);

    let dir = std::env::temp_dir().join(format!(
        "hf-obs-invariance-{}-t{threads}-{label}",
        std::process::id()
    ));
    report.write_dir(&dir).expect("render report");
    let mut artifacts = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(&dir).expect("read render dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        artifacts.insert(name, std::fs::read(entry.path()).expect("read artifact"));
    }
    std::fs::remove_dir_all(&dir).ok();

    PipelineRun {
        out,
        snapshot_bytes,
        reloaded,
        agg,
        report,
        artifacts,
    }
}

/// Run the pipeline with recording on and return the run plus its
/// manifest. Caller must hold `OBS_LOCK`.
fn run_with_metrics(threads: usize) -> (PipelineRun, RunManifest) {
    obs::reset();
    obs::enable();
    let run = run_pipeline(threads, "on");
    let manifest = obs::manifest(&format!("obs_invariance threads={threads}"));
    obs::disable();
    obs::reset();
    (run, manifest)
}

/// Metrics-on and metrics-off runs must agree byte-for-byte at every
/// pipeline stage, for every supported thread count.
#[test]
fn metrics_never_perturb_pipeline_output() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1usize, 2, 8] {
        obs::disable();
        obs::reset();
        let off = run_pipeline(threads, "off");
        let (on, manifest) = run_with_metrics(threads);

        let l = format!("metrics-off t={threads}");
        let r = format!("metrics-on t={threads}");
        diff_sim_outputs(&l, &off.out, &r, &on.out).assert_identical();
        assert_eq!(
            off.snapshot_bytes, on.snapshot_bytes,
            "snapshot bytes diverged at threads={threads}"
        );
        diff_sim_outputs(&l, &off.reloaded, &r, &on.reloaded).assert_identical();
        diff_aggregates(&l, &off.agg, &r, &on.agg).assert_identical();
        diff_reports(&l, &off.report, &r, &on.report).assert_identical();
        assert_eq!(
            off.artifacts, on.artifacts,
            "rendered report artifacts diverged at threads={threads}"
        );

        // And the enabled run did actually record something.
        assert!(
            manifest.counters.get("sim.sessions_executed").copied() > Some(0),
            "metrics-on run recorded no sessions at threads={threads}"
        );
    }
}

/// A metrics-off run records nothing at all: the disabled recorder is a
/// true no-op, not a buffered one.
#[test]
fn disabled_recorder_records_nothing() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable();
    obs::reset();
    let _run = run_pipeline(2, "disabled");
    let manifest = obs::manifest("disabled");
    assert!(
        manifest.counters.is_empty(),
        "counters: {:?}",
        manifest.counters
    );
    assert!(manifest.gauges.is_empty());
    assert!(manifest.histograms.is_empty());
    assert!(manifest.spans.is_empty());
}

/// The deterministic counters are thread-count invariant: restricted to
/// the `INVARIANT` subset, the manifests of 1-, 2-, and 8-thread runs are
/// field-for-field identical (modulo the tool label).
#[test]
fn deterministic_counters_thread_invariant() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let keep = |name: &str| INVARIANT.contains(&name);

    let (base_run, base_manifest) = run_with_metrics(1);
    let mut base = base_manifest.filtered(keep);
    base.tool = "obs_invariance".to_string();

    // Cross-check the counters against ground truth from the run itself.
    let n = base_run.out.dataset.len() as u64;
    assert!(n > 100, "fixture must be non-trivial");
    for name in [
        "sim.sessions_executed",
        "farm.sessions_ingested",
        "snapshot.rows_written",
        "snapshot.rows_loaded",
        "analysis.rows_folded",
    ] {
        assert_eq!(
            base_manifest.counters.get(name).copied(),
            Some(n),
            "{name} must equal the dataset row count"
        );
    }
    assert_eq!(
        base_manifest.counters.get("sim.days_executed").copied(),
        Some(u64::from(config(1).window.num_days())),
    );
    assert_eq!(
        base_manifest
            .counters
            .get("snapshot.bytes_written")
            .copied(),
        Some(base_run.snapshot_bytes.len() as u64),
        "snapshot.bytes_written must equal the encoded snapshot size"
    );
    // 6 tables + 21 figure TSVs (19/23/24 share files) + summary.md.
    assert_eq!(
        base_manifest
            .counters
            .get("report.artifacts_written")
            .copied(),
        Some(28),
    );
    assert_eq!(base_run.artifacts.len(), 28);

    for threads in [2usize, 8] {
        let (_, manifest) = run_with_metrics(threads);
        let mut got = manifest.filtered(keep);
        got.tool = "obs_invariance".to_string();
        diff_manifests("threads=1", &base, &format!("threads={threads}"), &got).assert_identical();
    }
}
