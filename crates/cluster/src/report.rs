//! TSV and text renderings of a clustering run.
//!
//! All three renderers are pure functions of their inputs with fixed
//! `{:.6}` float formatting, so the golden suite can pin them byte-for-
//! byte and the CI streaming smoke can `diff` materialized vs streaming
//! output directories.

use std::fmt::Write;

use hf_geo::Ip4;

use crate::features::{ClientFeatures, FeatureMatrix, FEATURE_NAMES, N_FEATURES};
use crate::kmeans::ClusterOutput;

/// Per-client assignment table: one row per client (ascending IP) with its
/// canonical cluster id, raw session count, and the full normalized
/// feature vector.
pub fn assignments_tsv(feats: &ClientFeatures, m: &FeatureMatrix, out: &ClusterOutput) -> String {
    let mut s = String::new();
    s.push_str("client\tcluster\tsessions");
    for name in FEATURE_NAMES {
        s.push('\t');
        s.push_str(name);
    }
    s.push('\n');
    for (i, &(ip, cluster)) in out.assignments.iter().enumerate() {
        let _ = write!(
            s,
            "{}\t{}\t{}",
            Ip4(ip),
            cluster,
            feats.clients[i].1.sessions
        );
        for f in m.row(i) {
            let _ = write!(s, "\t{f:.6}");
        }
        s.push('\n');
    }
    s
}

/// Per-cluster summary table, preceded by `#`-prefixed run metadata
/// (client count, chosen k, silhouette, and the full sweep).
pub fn summary_tsv(out: &ClusterOutput) -> String {
    let mut s = String::new();
    let n: u64 = out.sizes.iter().sum();
    let _ = writeln!(s, "# clients\t{n}");
    let _ = writeln!(s, "# k\t{}", out.k);
    let _ = writeln!(s, "# silhouette\t{:.6}", out.silhouette);
    let sweep: Vec<String> = out
        .sweep
        .iter()
        .map(|(k, score)| format!("k={k}:{score:.6}"))
        .collect();
    let _ = writeln!(s, "# sweep\t{}", sweep.join(" "));
    s.push_str("cluster\tsize\tshare");
    for name in FEATURE_NAMES {
        s.push('\t');
        s.push_str(name);
    }
    s.push('\n');
    for c in 0..out.k {
        let share = out.sizes[c] as f64 / (n.max(1)) as f64;
        let _ = write!(s, "{c}\t{}\t{share:.6}", out.sizes[c]);
        for f in 0..N_FEATURES {
            let _ = write!(s, "\t{:.6}", out.centroids[c][f]);
        }
        s.push('\n');
    }
    s
}

/// Human summary — the report section `hfarm cluster` prints: one line of
/// run facts, then one line per cluster with its size, share, raw
/// sessions-per-client mean, and the three highest-valued centroid
/// features (ties broken by column order).
pub fn summary_text(feats: &ClientFeatures, out: &ClusterOutput) -> String {
    let mut s = String::new();
    let n: u64 = out.sizes.iter().sum();
    let _ = writeln!(s, "== Attacker clusters ==");
    let _ = writeln!(
        s,
        "clients {n}  k {}  silhouette {:.3}",
        out.k, out.silhouette
    );
    // Raw per-cluster session totals come from the accumulators, keyed by
    // assignment order (both are ascending client IP).
    let mut sessions = vec![0u64; out.k];
    for (i, &(_, cluster)) in out.assignments.iter().enumerate() {
        sessions[cluster as usize] += feats.clients[i].1.sessions;
    }
    for (c, &sess) in sessions.iter().enumerate() {
        let share = 100.0 * out.sizes[c] as f64 / n.max(1) as f64;
        let per_client = sess as f64 / out.sizes[c].max(1) as f64;
        let mut top: Vec<usize> = (0..N_FEATURES).collect();
        top.sort_by(|&a, &b| {
            out.centroids[c][b]
                .partial_cmp(&out.centroids[c][a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let top: Vec<String> = top[..3]
            .iter()
            .map(|&f| format!("{} {:.2}", FEATURE_NAMES[f], out.centroids[c][f]))
            .collect();
        let _ = writeln!(
            s,
            "cluster {c}: {} clients ({share:.1}%)  {per_client:.1} sessions/client  top: {}",
            out.sizes[c],
            top.join(", ")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::ClientAcc;
    use crate::kmeans::KMeansConfig;

    #[test]
    fn empty_run_renders_headers_only() {
        let feats = ClientFeatures {
            n_honeypots: 221,
            clients: Vec::new(),
        };
        let m = feats.matrix();
        let out = crate::kmeans::cluster(&m, &KMeansConfig::default());
        let a = assignments_tsv(&feats, &m, &out);
        assert_eq!(a.lines().count(), 1, "header only:\n{a}");
        let t = summary_tsv(&out);
        assert!(t.contains("# clients\t0"));
        assert!(t.contains("# k\t0"));
        let txt = summary_text(&feats, &out);
        assert!(txt.contains("clients 0"));
    }

    #[test]
    fn tsv_shapes_are_stable() {
        let mut acc = ClientAcc::default();
        (acc.sessions, acc.first_start, acc.last_start) = (4, 0, 3000);
        let feats = ClientFeatures {
            n_honeypots: 221,
            clients: vec![(0x0102_0304, acc.clone()), (0x0a00_0001, acc)],
        };
        let m = feats.matrix();
        let out = crate::kmeans::cluster(&m, &KMeansConfig::default());
        let a = assignments_tsv(&feats, &m, &out);
        assert!(a.starts_with("client\tcluster\tsessions\tsessions_log\t"));
        assert!(a.contains("1.2.3.4\t0\t4\t"));
        assert!(a.contains("10.0.0.1\t0\t4\t"));
        let t = summary_tsv(&out);
        assert!(t.contains("# sweep\t"));
        assert!(t.lines().last().unwrap().starts_with("0\t2\t1.000000\t"));
    }
}
