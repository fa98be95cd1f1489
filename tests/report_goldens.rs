//! Report-build conformance: the fused `Report::build_with_tags` must be
//! indistinguishable from its unfused predecessors.
//!
//! Two surfaces are pinned:
//!
//! 1. The fused report builders (shared top-5% selection, one-pass client
//!    ECDFs) render byte-identical TSVs to the individually-built
//!    per-figure artifacts.
//! 2. Every file `write_dir` leaves is byte-identical to its artifact's
//!    in-memory `to_tsv`, and the rendered report matches a checked-in
//!    golden byte-for-byte. Regenerate after an intended change with
//!    `UPDATE_GOLDENS=1 cargo test --test report_goldens`.

use std::path::PathBuf;

use honeyfarm::core::report::figures;
use honeyfarm::prelude::*;
use honeyfarm::testkit::assert_golden;

fn run_small() -> SimOutput {
    Simulation::run(SimConfig {
        seed: 0xa11a,
        scale: Scale::of(0.001),
        window: StudyWindow::first_days(30),
        ..SimConfig::default()
    })
}

/// The fused builders match the individual per-figure paths they replaced.
#[test]
fn fused_report_matches_prefusion_reference() {
    let out = run_small();
    let agg = Aggregates::compute(&out.dataset);
    let serial = Report::build_with_tags(&out.dataset, &agg, &out.tags);

    // Pre-fusion reference: each figure built on its own, from a top-5%
    // selection computed here / its own clients pass, must equal the fused
    // output.
    let sel = figures::top5pct_honeypots(&agg);
    assert_eq!(
        serial.fig3.to_tsv(),
        figures::fig_bands_with(&agg, Some(&sel)).to_tsv(),
        "fig3 (top-5% bands) drifted from the standalone builder"
    );
    assert_eq!(
        serial.fig4.to_tsv(),
        figures::fig_bands_with(&agg, None).to_tsv(),
        "fig4 (all-honeypot bands) drifted from the standalone builder"
    );
    assert_eq!(
        serial.fig8.to_tsv(),
        figures::fig_cat_bands_with(&agg, None).to_tsv(),
        "fig8 drifted from the standalone builder"
    );
    assert_eq!(
        serial.fig9.to_tsv(),
        figures::fig_cat_bands_with(&agg, Some(&sel)).to_tsv(),
        "fig9 drifted from the standalone builder"
    );
    assert_eq!(
        serial.fig12.to_tsv(),
        figures::fig12(&agg).to_tsv(),
        "fig12 drifted from the one-pass client ECDF builder"
    );
    assert_eq!(
        serial.fig13.to_tsv(),
        figures::fig13(&agg).to_tsv(),
        "fig13 drifted from the one-pass client ECDF builder"
    );
}

/// `write_dir` (the buffered-writer path) produces byte-identical files to
/// the in-memory `to_tsv` strings, and those strings match the checked-in
/// golden.
#[test]
fn report_tsv_bytes_are_golden() {
    /// The artifacts the golden pins, by the stem of their file name.
    const GOLDEN: [&str; 8] = [
        "table1", "table2", "table4", "fig03", "fig06", "fig12", "fig15", "fig22",
    ];
    let out = run_small();
    let agg = Aggregates::compute(&out.dataset);
    let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);

    let dir = std::env::temp_dir().join(format!("hf_analysis_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    report.write_dir(&dir).expect("write_dir succeeds");

    let mut bundle = String::new();
    let mut pinned = 0;
    for (file, artifact) in report.artifacts() {
        // Writer path == string path, byte for byte.
        let tsv = artifact.to_tsv();
        let on_disk = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(on_disk, tsv.as_bytes(), "{file}: writer path diverged");
        // And the rendered bytes themselves are pinned against a golden,
        // under the section names it has always used (`fig03…` → `fig3`).
        let stem = file.split(['_', '.']).next().expect("file stem");
        if GOLDEN.contains(&stem) {
            pinned += 1;
            bundle.push_str("=== ");
            bundle.push_str(&stem.replace("fig0", "fig"));
            bundle.push_str(" ===\n");
            bundle.push_str(&tsv);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(pinned, GOLDEN.len(), "a pinned artifact left the report");
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/analysis_report.golden");
    assert_golden(&golden, &bundle);
}
