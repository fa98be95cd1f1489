//! The observability layer's hard invariant: enabling metrics never
//! perturbs any simulation, snapshot, or report byte, and the counters it
//! records are themselves deterministic.
//!
//! Two families of proof, both via the testkit oracles:
//!
//! 1. **Metrics-off vs metrics-on**: the full pipeline (simulate → snapshot
//!    encode/decode → aggregates → report) produces bit-identical results
//!    whether or not recording is enabled, their aggregates and features
//!    compared in the reference's projected form.
//! 2. **Scheduling invariance of the deterministic counters**: the subset
//!    of metrics that count *work done* (sessions executed and ingested,
//!    rows written/loaded/folded, artifacts written) must not depend on how
//!    the day loop's two threads interleave. Manifests are restricted to
//!    that subset with [`RunManifest::filtered`] and compared
//!    field-by-field with `diff_manifests`.
//!
//! The obs registry is process-global, so every test serializes on one
//! mutex and starts from `obs::reset()`.

use std::io::Cursor;
use std::sync::Mutex;

use honeyfarm::cluster::extract;
use honeyfarm::core::{Aggregates, Report};
use honeyfarm::farm::{Row, SessionStore};
use honeyfarm::obs::{self, RunManifest};
use honeyfarm::prelude::*;
use honeyfarm::testkit::{diff_manifests, diff_reference, diff_reports, diff_sim_outputs, project};

/// Serializes tests within this process: obs state is process-global.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Counter/histogram names whose values are pure functions of the input —
/// the scheduling-invariant subset the comparison keeps. (Span timings
/// legitimately vary.)
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

fn config() -> SimConfig {
    SimConfig::test(6)
}

/// The day loop's per-day hook: a no-op for [`Simulation::run`]'s shape.
fn no_hook(_: &SessionStore, _: &FarmPlan, _: &[Row]) {}

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

/// Simulate with `after_day` as the day loop's hook, keeping every day's
/// rows as the hook sees them, encode + decode the snapshot, aggregate,
/// build the report, and render it. `label` keeps the scratch render
/// directories of concurrent test processes apart.
fn run_pipeline(
    label: &str,
    mut after_day: impl FnMut(&SessionStore, &FarmPlan, &[Row]),
) -> PipelineRun {
    let cfg = config();
    let mut rows = Vec::new();
    let mut out = Simulation::run_days(cfg.clone(), |store, plan, day| {
        after_day(store, plan, day);
        rows.extend_from_slice(day);
    });
    out.dataset.sessions.set_rows(rows);
    let mut snapshot_bytes = Vec::new();
    out.to_snapshot(&cfg)
        .write_to(&mut snapshot_bytes)
        .expect("snapshot encode");
    let reloaded = SimOutput::from_snapshot(
        Snapshot::read_from(&mut Cursor::new(&snapshot_bytes)).expect("snapshot decode"),
    );
    let agg = Aggregates::compute(&out.dataset);
    let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);

    let dir =
        std::env::temp_dir().join(format!("hf-obs-invariance-{}-{label}", std::process::id()));
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
fn run_with_metrics(
    label: &str,
    after_day: impl FnMut(&SessionStore, &FarmPlan, &[Row]),
) -> (PipelineRun, RunManifest) {
    obs::reset();
    obs::enable();
    let run = run_pipeline(label, after_day);
    let manifest = obs::manifest(&format!("obs_invariance {label}"));
    obs::disable();
    obs::reset();
    (run, manifest)
}

/// Metrics-on and metrics-off runs must agree byte-for-byte at every
/// pipeline stage.
#[test]
fn metrics_never_perturb_pipeline_output() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable();
    obs::reset();
    let off = run_pipeline("off", no_hook);
    let (on, manifest) = run_with_metrics("on", no_hook);

    let (l, r) = ("metrics-off", "metrics-on");
    diff_sim_outputs(l, &off.out, r, &on.out).assert_identical();
    assert_eq!(
        off.snapshot_bytes, on.snapshot_bytes,
        "snapshot bytes diverged"
    );
    diff_sim_outputs(l, &off.reloaded, r, &on.reloaded).assert_identical();
    let measures = |run: &PipelineRun| {
        let features = extract(&run.out.dataset).matrix();
        project(&run.out.dataset, &run.agg, &features)
    };
    let mut d = diff_reference(&measures(&off), &measures(&on));
    (d.left, d.right) = (l.to_string(), r.to_string());
    d.assert_identical();
    diff_reports(l, &off.report, r, &on.report).assert_identical();
    assert_eq!(
        off.artifacts, on.artifacts,
        "rendered report artifacts diverged"
    );

    // And the enabled run did actually record something.
    assert!(
        manifest.counters.get("sim.sessions_executed").copied() > Some(0),
        "metrics-on run recorded no sessions"
    );
}

/// A metrics-off run records nothing at all: the disabled recorder is a
/// true no-op, not a buffered one.
#[test]
fn disabled_recorder_records_nothing() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable();
    obs::reset();
    let _run = run_pipeline("disabled", no_hook);
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

/// The deterministic counters do not depend on scheduling: restricted to
/// the `INVARIANT` subset, the manifest of a plain run is field-for-field
/// identical (modulo the tool label) to that of a run whose per-day hook
/// sleeps, so the day loop's helper runs ahead of ingest and blocks on the
/// recycle channel for a free batch buffer.
#[test]
fn deterministic_counters_thread_invariant() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let keep = |name: &str| INVARIANT.contains(&name);

    let (base_run, base_manifest) = run_with_metrics("base", no_hook);
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
        Some(u64::from(config().window.num_days())),
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

    let (_, manifest) = run_with_metrics("slow-ingest", |_, _, _| {
        std::thread::sleep(std::time::Duration::from_millis(20))
    });
    let mut got = manifest.filtered(keep);
    got.tool = "obs_invariance".to_string();
    diff_manifests("base", &base, "slow ingest", &got).assert_identical();
}
