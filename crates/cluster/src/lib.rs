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
//! 1. [`extract`] / [`extract_threaded`] / [`FeatureFold`] — one pass over
//!    the session store accumulating *integers only* per client (counts,
//!    bitsets, id-sets). Integer merges are exact, so sharding by
//!    `day_aligned_ranges` or streaming chunk-at-a-time cannot change the
//!    result (DESIGN.md §15 has the full argument).
//! 2. [`ClientFeatures::matrix`] — fixed, documented normalization into
//!    `[0, 1]` floats, computed from final integer state only.
//! 3. [`cluster`] — serial seeded k-means++ with a fixed silhouette sweep
//!    over `k = 2..=8`; every tie-break is documented and keyed by client
//!    IP or column order.
//!
//! `hfarm cluster` drives all three from a live sim, a snapshot, or a
//! bounded-RSS streaming read; `hf-testkit` ships `diff_features` /
//! `diff_clusters` field-level oracles, and `tests/cluster_goldens.rs`
//! pins the TSV output byte-for-byte.

#![warn(missing_docs)]

pub mod features;
pub mod kmeans;
pub mod report;

pub use features::{
    extract, extract_threaded, unit01, ClientAcc, ClientFeatures, FeatureFold, FeatureMatrix,
    HeadMap, FEATURE_NAMES, N_FEATURES,
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
    /// Extract, normalize, and cluster a materialized dataset.
    pub fn over(dataset: &hf_farm::Dataset, threads: usize, cfg: &KMeansConfig) -> ClusterRun {
        let features = extract_threaded(dataset, threads);
        ClusterRun::finish(features, cfg)
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
        heads.sync(&store.commands);
        for row in rows {
            let v = store.view_row(row);
            order.check(v.day())?;
            fold.ingest(plan, &heads, &v);
        }
        hf_obs::counter!("cluster.rows_folded", rows.len() as u64);
        Ok(())
    })?;
    hf_obs::counter!("cluster.clients", fold.len() as u64);
    let n_honeypots = plan.len();
    Ok((plan, fold.finish(n_honeypots)))
}
