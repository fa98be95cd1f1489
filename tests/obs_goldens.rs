//! Golden-pinned run manifests: the *structure* of what a run records —
//! which counters exist, which spans fire and how often, what the
//! histograms hold — is part of the observable contract and is pinned
//! byte-for-byte under `tests/goldens/`.
//!
//! Durations are inherently non-deterministic, so the run executes under
//! the obs test-mode zero clock ([`obs::set_zero_clock`]), which makes
//! every wall/CPU reading 0 ns; `zero_timings` is applied on top as belt
//! and braces. Everything else in the manifest is a pure function of the
//! seeded input, so the files are stable across machines.
//!
//! Refresh after an intended instrumentation change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test obs_goldens
//! ```

use std::io::Cursor;
use std::path::PathBuf;

use honeyfarm::core::{Aggregates, Report};
use honeyfarm::obs;
use honeyfarm::prelude::*;
use honeyfarm::testkit::assert_golden;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{name}"))
}

/// One deterministic pipeline run, recorded under the zero clock, must
/// reproduce the pinned `metrics.json` exactly — and survive a disk
/// round-trip unchanged. It runs on a thread named `main`, as `hfarm`'s
/// spans do, so the recording threads in the file do not depend on how the
/// test harness names its threads.
#[test]
fn manifest_structure_is_golden_pinned() {
    std::thread::Builder::new()
        .name("main".into())
        .spawn(record_and_pin)
        .expect("spawn the recording thread")
        .join()
        .expect("the pinned run passes");
}

fn record_and_pin() {
    obs::reset();
    obs::set_zero_clock(true);
    obs::enable();

    let cfg = SimConfig::test(4);
    let out = Simulation::run(cfg.clone());
    let mut snapshot_bytes = Vec::new();
    out.to_snapshot(&cfg)
        .write_to(&mut snapshot_bytes)
        .expect("snapshot encode");
    let _reloaded = SimOutput::from_snapshot(
        Snapshot::read_from(&mut Cursor::new(&snapshot_bytes)).expect("snapshot decode"),
    );
    let agg = Aggregates::compute(&out.dataset);
    let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);
    let render_dir = std::env::temp_dir().join(format!("hf-obs-goldens-{}", std::process::id()));
    report.write_dir(&render_dir).expect("render report");

    let mut manifest = obs::manifest("obs_goldens");
    obs::disable();
    obs::set_zero_clock(false);
    obs::reset();
    manifest.zero_timings();

    assert_golden(&golden("obs_metrics.json.golden"), &manifest.to_json());

    // The pinned manifest also survives write_dir → load_dir untouched.
    let manifest_dir = render_dir.join("metrics");
    manifest
        .write_dir(&manifest_dir)
        .expect("write manifest dir");
    let reloaded = obs::RunManifest::load_dir(&manifest_dir).expect("reload manifest");
    assert_eq!(reloaded, manifest);
    std::fs::remove_dir_all(&render_dir).ok();
}
