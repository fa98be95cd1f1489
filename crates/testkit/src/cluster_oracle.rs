//! Differential oracles for the clustering pipeline.
//!
//! Same contract as [`crate::oracle`]: compare every observable surface of
//! two runs field-by-field and name the diverging field, instead of a bare
//! `assert_eq!` over a thousand floats. Floats are compared *bitwise*
//! (`f64::to_bits`) — the invariance the cluster subsystem promises is
//! bit-identity across thread counts and ingest paths, not closeness.

use hf_cluster::{ClusterOutput, FeatureMatrix, FEATURE_NAMES, N_FEATURES};
use hf_geo::Ip4;

use crate::oracle::{DiffReport, MAX_DETAIL};

/// Push a bitwise float mismatch with both values rendered exactly.
fn float_field(
    report: &mut DiffReport,
    budget: &mut usize,
    field: impl Into<String>,
    a: f64,
    b: f64,
) {
    if a.to_bits() == b.to_bits() {
        return;
    }
    report.capped(
        budget,
        field,
        format!("{a:?} ({:#x}) != {b:?} ({:#x})", a.to_bits(), b.to_bits()),
    );
}

/// Compare two normalized feature matrices bit-for-bit: the client row
/// sets, then every named feature cell. Mismatch fields read
/// `features[1.2.3.4].cmd_vocab`.
pub fn diff_features(a: &FeatureMatrix, b: &FeatureMatrix, left: &str, right: &str) -> DiffReport {
    let mut report = DiffReport::new(left, right);
    if a.len() != b.len() {
        report.push(
            "features.clients.len",
            format!("{} != {}", a.len(), b.len()),
        );
        return report;
    }
    let mut budget = MAX_DETAIL;
    for (i, (&ia, &ib)) in a.clients.iter().zip(&b.clients).enumerate() {
        if ia != ib {
            report.capped(
                &mut budget,
                format!("features.clients[{i}]"),
                format!("{} != {}", Ip4(ia), Ip4(ib)),
            );
        }
    }
    if !report.is_identical() {
        return report; // cell comparison is meaningless on different keys
    }
    let mut budget = MAX_DETAIL;
    for i in 0..a.len() {
        let (ra, rb) = (a.row(i), b.row(i));
        for f in 0..N_FEATURES {
            float_field(
                &mut report,
                &mut budget,
                format!("features[{}].{}", Ip4(a.clients[i]), FEATURE_NAMES[f]),
                ra[f],
                rb[f],
            );
        }
    }
    report
}

/// Compare two clusterings field-by-field: k, silhouette (bitwise), the
/// sweep, per-cluster sizes and centroids, and every client's assignment.
pub fn diff_clusters(a: &ClusterOutput, b: &ClusterOutput, left: &str, right: &str) -> DiffReport {
    let mut report = DiffReport::new(left, right);
    if a.k != b.k {
        report.push("clusters.k", format!("{} != {}", a.k, b.k));
    }
    let mut budget = MAX_DETAIL;
    float_field(
        &mut report,
        &mut budget,
        "clusters.silhouette",
        a.silhouette,
        b.silhouette,
    );
    if a.sweep.len() != b.sweep.len() {
        report.push(
            "clusters.sweep.len",
            format!("{} != {}", a.sweep.len(), b.sweep.len()),
        );
    } else {
        for (i, ((ka, sa), (kb, sb))) in a.sweep.iter().zip(&b.sweep).enumerate() {
            if ka != kb {
                report.push(format!("clusters.sweep[{i}].k"), format!("{ka} != {kb}"));
            }
            float_field(
                &mut report,
                &mut budget,
                format!("clusters.sweep[{i}].score"),
                *sa,
                *sb,
            );
        }
    }
    if a.sizes != b.sizes {
        report.push("clusters.sizes", format!("{:?} != {:?}", a.sizes, b.sizes));
    }
    if a.assignments.len() != b.assignments.len() {
        report.push(
            "clusters.assignments.len",
            format!("{} != {}", a.assignments.len(), b.assignments.len()),
        );
        return report;
    }
    let mut budget = MAX_DETAIL;
    for (i, (&(ipa, ca), &(ipb, cb))) in a.assignments.iter().zip(&b.assignments).enumerate() {
        if ipa != ipb {
            report.capped(
                &mut budget,
                format!("clusters.assignments[{i}].client"),
                format!("{} != {}", Ip4(ipa), Ip4(ipb)),
            );
        } else if ca != cb {
            report.capped(
                &mut budget,
                format!("assign[{}]", Ip4(ipa)),
                format!("cluster {ca} != {cb}"),
            );
        }
    }
    if a.centroids.len() == b.centroids.len() {
        let mut budget = MAX_DETAIL;
        for (c, (ca, cb)) in a.centroids.iter().zip(&b.centroids).enumerate() {
            for f in 0..N_FEATURES {
                float_field(
                    &mut report,
                    &mut budget,
                    format!("clusters.centroid[{c}].{}", FEATURE_NAMES[f]),
                    ca[f],
                    cb[f],
                );
            }
        }
    } else {
        report.push(
            "clusters.centroids.len",
            format!("{} != {}", a.centroids.len(), b.centroids.len()),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix(vals: &[(u32, f64)]) -> FeatureMatrix {
        let mut data = Vec::new();
        for &(_, v) in vals {
            let mut row = [0.0; N_FEATURES];
            row[0] = v;
            data.extend_from_slice(&row);
        }
        FeatureMatrix {
            clients: vals.iter().map(|&(ip, _)| ip).collect(),
            data,
        }
    }

    #[test]
    fn identical_matrices_diff_clean() {
        let m = tiny_matrix(&[(1, 0.25), (2, 0.75)]);
        let d = diff_features(&m, &m.clone(), "a", "b");
        assert!(d.is_identical(), "{}", d.render());
    }

    #[test]
    fn a_flipped_bit_is_named_by_client_and_feature() {
        let a = tiny_matrix(&[(0x0102_0304, 0.25), (5, 0.75)]);
        let mut b = a.clone();
        b.data[0] = 0.25000000001;
        let d = diff_features(&a, &b, "threads=1", "threads=8");
        assert!(!d.is_identical());
        let rendered = d.render();
        assert!(
            rendered.contains("features[1.2.3.4].sessions_log"),
            "mismatch must name the client and feature:\n{rendered}"
        );
    }

    #[test]
    fn divergent_assignments_are_named_by_client() {
        let m = tiny_matrix(&[(0x0102_0304, 0.1), (9, 0.9)]);
        let out = hf_cluster::cluster(&m, &hf_cluster::KMeansConfig::default());
        let mut other = out.clone();
        other.assignments[0].1 ^= 1;
        let d = diff_clusters(&out, &other, "mat", "stream");
        let rendered = d.render();
        assert!(
            rendered.contains("assign[1.2.3.4]"),
            "mismatch must name the reassigned client:\n{rendered}"
        );
    }
}
