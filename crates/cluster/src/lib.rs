//! Attacker clustering over the honeyfarm dataset.
//!
//! The paper's pipeline (Sections 6–7) characterizes *sessions*; this crate
//! answers the per-client question — who attacks, and how campaigns reuse
//! credentials, commands, and infrastructure across the farm — with the
//! methodology of the medium-interaction-honeypot clustering literature
//! (see PAPERS.md): per-client behavioural feature vectors and a seeded
//! k-means.
//!
//! The pipeline is three pure stages, each deterministic on its own:
//!
//! 1. [`extract`] / [`FeatureFold`] — one pass over the session store
//!    accumulating *integers only* per client (counts, bitsets, id-sets),
//!    so folding the whole store at once, a day at a time or a chunk at a
//!    time cannot change the result (DESIGN.md §15 has the full argument).
//! 2. [`ClientFeatures::matrix`] — fixed, documented normalization into
//!    `[0, 1]` floats, computed from final integer state only.
//! 3. [`cluster`] — serial seeded k-means++ with a fixed silhouette sweep
//!    over `k = 2..=8`; every tie-break is documented and keyed by client
//!    IP or column order.
//!
//! `hfarm cluster` folds either source through [`FeatureFold::ingest_rows`]
//! and never holds more than a day or a chunk of rows: a live sim's day loop
//! hands it each finished day before retiring the rows, and
//! [`features_from_snapshot_stream`] hands it each verified chunk.
//! [`extract`] and [`ClusterRun::over`] run the same fold over a
//! materialized dataset. `hf-testkit`'s independent reference recomputes
//! the 24 features from session records, `diff_clusters` compares two
//! clusterings field by field, and `tests/cluster_goldens.rs` pins the TSV
//! output byte-for-byte.

#![warn(missing_docs)]

pub mod features;
pub mod kmeans;
pub mod report;

pub use features::{
    extract, unit01, ClientAcc, ClientFeatures, FeatureFold, FeatureMatrix, HeadMap, FEATURE_NAMES,
    N_FEATURES,
};
pub use kmeans::{cluster, silhouette, ClusterOutput, KMeansConfig};
pub use report::{assignments_tsv, summary_text, summary_tsv};

use std::io::Read;

use hf_farm::{DayOrder, FarmPlan, SnapshotError, SnapshotReader};

/// A complete clustering run: the integer accumulators, the normalized
/// matrix, and the k-means output. Bundles what the CLI, the claims table,
/// and the reports all need together.
pub struct ClusterRun {
    /// Per-client integer accumulators.
    pub features: ClientFeatures,
    /// Normalized feature matrix.
    pub matrix: FeatureMatrix,
    /// Canonically-labelled clustering.
    pub output: ClusterOutput,
}

impl ClusterRun {
    /// Extract, normalize, and cluster a materialized dataset. `threads`
    /// must be 1: extraction is one serial fold, and the argument stays
    /// only until the benchmark's own drivers stop passing it.
    pub fn over(dataset: &hf_farm::Dataset, threads: usize, cfg: &KMeansConfig) -> ClusterRun {
        assert_eq!(
            threads, 1,
            "ClusterRun::over extracts with one serial fold; ROADMAP item 1(b) drops `threads`"
        );
        ClusterRun::finish(extract(dataset), cfg)
    }

    /// Normalize and cluster already-extracted features.
    pub fn finish(features: ClientFeatures, cfg: &KMeansConfig) -> ClusterRun {
        let matrix = features.matrix();
        let output = cluster(&matrix, cfg);
        ClusterRun {
            features,
            matrix,
            output,
        }
    }
}

/// Streaming feature extraction: read an hfstore snapshot chunk-at-a-time
/// and fold every row without ever materializing the row section. Rows
/// must be day-ordered (snapshot writers emit them that way); a violation
/// surfaces as a `Corrupt` error, mirroring the aggregates stream fold.
/// Returns the deployment plan alongside the finished features.
pub fn features_from_snapshot_stream<R: Read + Send>(
    r: R,
) -> Result<(FarmPlan, ClientFeatures), SnapshotError> {
    let _span = hf_obs::span!("cluster.stream_extract");
    let reader = SnapshotReader::open(r)?;
    let mut heads = HeadMap::new();
    let mut fold = FeatureFold::new();
    let mut order = DayOrder::new("streaming feature extraction");
    let (_meta, plan, _sessions, _tags) = reader.fold_chunks(|store, plan, rows| {
        for row in rows {
            order.check(store.view_row(row).day())?;
        }
        heads.sync(&store.commands);
        fold.ingest_rows(store, plan, &heads, rows);
        Ok(())
    })?;
    let n_honeypots = plan.len();
    Ok((plan, fold.finish(n_honeypots)))
}
