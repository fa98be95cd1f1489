//! Deterministic seeded k-means with a fixed silhouette sweep.
//!
//! Everything here is serial and fully ordered: clients enter in ascending
//! IP order (the matrix row order), k-means++ seeding draws from a
//! SplitMix64 stream with a fixed seed, distance ties assign to the
//! lowest centroid index, the sweep breaks score ties toward the smaller
//! k, and the final labels are canonicalized by (size desc, lowest member
//! IP asc). Given the same [`FeatureMatrix`] the output is bit-identical —
//! how the rows reached it is settled entirely upstream, in the integer
//! feature fold.

use crate::features::{FeatureMatrix, N_FEATURES};

/// Seed for the k-means++ draws.
const SEED: u64 = 0x00C1_A57E;
/// Smallest and largest k the silhouette sweep tries (clamped to the
/// number of clients).
const K_MIN: usize = 2;
const K_MAX: usize = 8;
/// Lloyd iteration cap per k.
const MAX_ITERS: usize = 64;

/// Clustering parameters. The default (sweep) is the documented fixture
/// used by `hfarm cluster`, the goldens, and the claims table; the seed,
/// the sweep range and the iteration cap are fixed.
#[derive(Clone, Copy, Debug, Default)]
pub struct KMeansConfig {
    /// Skip the sweep and force this k (still clamped to the client
    /// count). `None` sweeps `K_MIN..=K_MAX` (2..=8).
    pub force_k: Option<usize>,
}

/// Finished clustering, canonically labelled.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterOutput {
    /// Number of (non-empty) clusters actually produced. All-identical
    /// inputs collapse to 1 regardless of the sweep.
    pub k: usize,
    /// Mean centroid-silhouette of the chosen k (see [`silhouette`]).
    pub silhouette: f64,
    /// `(k, score)` for every k the sweep evaluated, ascending k.
    pub sweep: Vec<(usize, f64)>,
    /// `(client_ip, cluster)` ascending by IP; cluster ids are canonical.
    pub assignments: Vec<(u32, u32)>,
    /// Canonical per-cluster centroids in normalized feature space.
    pub centroids: Vec<[f64; N_FEATURES]>,
    /// Clients per cluster, parallel to `centroids` (descending by
    /// construction).
    pub sizes: Vec<u64>,
}

/// SplitMix64 — the classic 64-bit mixer; tiny, seedable, and entirely
/// deterministic, which is all the seeding draw needs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for i in 0..N_FEATURES {
        let d = a[i] - b[i];
        s += d * d;
    }
    s
}

/// One Lloyd run at a fixed k. Returns `(assignments, centroids)`.
fn lloyd(m: &FeatureMatrix, k: usize) -> (Vec<u32>, Vec<[f64; N_FEATURES]>) {
    let n = m.len();
    debug_assert!(k >= 1 && k <= n);
    let mut rng = SplitMix64(SEED);

    // k-means++ seeding: first center uniform, the rest D²-weighted. When
    // the remaining mass is zero (all points coincide with a chosen
    // center) fall back to the lowest not-yet-chosen row index.
    let mut centroids: Vec<[f64; N_FEATURES]> = Vec::with_capacity(k);
    let mut chosen = vec![false; n];
    let first = (rng.next() % n as u64) as usize;
    chosen[first] = true;
    centroids.push(m.row(first).try_into().unwrap());
    let mut d2: Vec<f64> = (0..n).map(|i| dist_sq(m.row(i), &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total > 0.0 {
            let mut r = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if r < w {
                    pick = i;
                    break;
                }
                r -= w;
            }
            pick
        } else {
            (0..n).find(|&i| !chosen[i]).unwrap_or(0)
        };
        chosen[idx] = true;
        let c: [f64; N_FEATURES] = m.row(idx).try_into().unwrap();
        for (i, d) in d2.iter_mut().enumerate() {
            *d = d.min(dist_sq(m.row(i), &c));
        }
        centroids.push(c);
    }

    // Lloyd iterations. Assignment ties go to the lowest centroid index
    // (strict `<` keeps the first minimum); centroid sums run in row (=
    // client IP) order, so both halves are order-fixed.
    let mut assign = vec![0u32; n];
    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for (i, slot) in assign.iter_mut().enumerate() {
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = dist_sq(m.row(i), centroid);
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            if *slot != best {
                *slot = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![[0.0f64; N_FEATURES]; k];
        let mut counts = vec![0u64; k];
        for (i, &a) in assign.iter().enumerate() {
            let c = a as usize;
            counts[c] += 1;
            let row = m.row(i);
            for f in 0..N_FEATURES {
                sums[c][f] += row[f];
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                continue; // empty cluster keeps its previous centroid
            }
            for f in 0..N_FEATURES {
                centroids[c][f] = sums[c][f] / counts[c] as f64;
            }
        }
    }
    (assign, centroids)
}

/// Centroid-based silhouette: per point, `a` = distance to its own
/// centroid, `b` = distance to the nearest other *non-empty* centroid,
/// score `(b − a) / max(a, b)` (0 when both are 0). The mean over all
/// points judges the k. Fewer than two non-empty clusters scores −1, so a
/// collapsed k can never win the sweep over a real split. O(n·k) — the
/// fixed, documented stand-in for the O(n²) textbook silhouette.
pub fn silhouette(m: &FeatureMatrix, assign: &[u32], centroids: &[[f64; N_FEATURES]]) -> f64 {
    let n = m.len();
    if n == 0 {
        return 0.0;
    }
    let mut counts = vec![0u64; centroids.len()];
    for &a in assign {
        counts[a as usize] += 1;
    }
    if counts.iter().filter(|&&c| c > 0).count() < 2 {
        return -1.0;
    }
    let mut total = 0.0;
    for (i, &a) in assign.iter().enumerate() {
        let own = a as usize;
        let a = dist_sq(m.row(i), &centroids[own]).sqrt();
        let mut b = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            if c != own && counts[c] > 0 {
                b = b.min(dist_sq(m.row(i), centroid).sqrt());
            }
        }
        let denom = a.max(b);
        total += if denom > 0.0 { (b - a) / denom } else { 0.0 };
    }
    total / n as f64
}

/// One sweep candidate: `(silhouette, k, assignments, centroids)`.
type Candidate = (f64, usize, Vec<u32>, Vec<[f64; N_FEATURES]>);

/// Cluster a feature matrix: sweep k, keep the best silhouette (ties to
/// the smaller k), canonicalize labels. Degenerate inputs are defined, not
/// panics: an empty matrix returns `k = 0`, a single client `k = 1`, and
/// all-identical clients collapse to one cluster.
pub fn cluster(m: &FeatureMatrix, cfg: &KMeansConfig) -> ClusterOutput {
    let _span = hf_obs::span!("cluster.kmeans");
    let n = m.len();
    if n == 0 {
        return ClusterOutput {
            k: 0,
            silhouette: 0.0,
            sweep: Vec::new(),
            assignments: Vec::new(),
            centroids: Vec::new(),
            sizes: Vec::new(),
        };
    }

    let candidates: Vec<usize> = match cfg.force_k {
        Some(k) => vec![k.clamp(1, n)],
        None if n == 1 => vec![1],
        None => (K_MIN.min(n)..=K_MAX.min(n)).collect(),
    };

    let mut best: Option<Candidate> = None;
    let mut sweep = Vec::with_capacity(candidates.len());
    for &k in &candidates {
        let (assign, centroids) = lloyd(m, k);
        let score = silhouette(m, &assign, &centroids);
        sweep.push((k, score));
        // Strictly-greater keeps the first (smallest) k on ties.
        let better = match &best {
            None => true,
            Some((s, ..)) => score > *s,
        };
        if better {
            best = Some((score, k, assign, centroids));
        }
    }
    let (score, _, assign, centroids) = best.expect("at least one candidate k");
    hf_obs::counter!("cluster.sweep_evals", sweep.len() as u64);

    // Canonical labels: drop empty clusters, order the rest by (size desc,
    // lowest member row asc). Rows are ascending client IP, so "lowest
    // member row" is "lowest member IP" — the documented tie-break.
    let k_raw = centroids.len();
    let mut sizes_raw = vec![0u64; k_raw];
    let mut lowest = vec![u32::MAX; k_raw];
    for (i, &a) in assign.iter().enumerate() {
        let c = a as usize;
        sizes_raw[c] += 1;
        lowest[c] = lowest[c].min(i as u32);
    }
    let mut order: Vec<usize> = (0..k_raw).filter(|&c| sizes_raw[c] > 0).collect();
    order.sort_by(|&a, &b| {
        sizes_raw[b]
            .cmp(&sizes_raw[a])
            .then(lowest[a].cmp(&lowest[b]))
    });
    let mut relabel = vec![u32::MAX; k_raw];
    for (new, &old) in order.iter().enumerate() {
        relabel[old] = new as u32;
    }
    let assignments: Vec<(u32, u32)> = m
        .clients
        .iter()
        .zip(&assign)
        .map(|(&ip, &a)| (ip, relabel[a as usize]))
        .collect();
    ClusterOutput {
        k: order.len(),
        silhouette: score,
        sweep,
        assignments,
        centroids: order.iter().map(|&c| centroids[c]).collect(),
        sizes: order.iter().map(|&c| sizes_raw[c]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[[f64; N_FEATURES]]) -> FeatureMatrix {
        FeatureMatrix {
            clients: (0..rows.len() as u32).collect(),
            data: rows.iter().flatten().copied().collect(),
        }
    }

    fn point(a: f64, b: f64) -> [f64; N_FEATURES] {
        let mut p = [0.0; N_FEATURES];
        p[0] = a;
        p[1] = b;
        p
    }

    #[test]
    fn empty_input_is_defined() {
        let out = cluster(&matrix(&[]), &KMeansConfig::default());
        assert_eq!(out.k, 0);
        assert!(out.assignments.is_empty());
        assert!(out.sweep.is_empty());
    }

    #[test]
    fn single_client_is_one_cluster() {
        let out = cluster(&matrix(&[point(0.5, 0.5)]), &KMeansConfig::default());
        assert_eq!(out.k, 1);
        assert_eq!(out.assignments, vec![(0, 0)]);
        assert_eq!(out.sizes, vec![1]);
    }

    #[test]
    fn identical_clients_collapse() {
        let rows = vec![point(0.3, 0.7); 6];
        let out = cluster(&matrix(&rows), &KMeansConfig::default());
        assert_eq!(out.k, 1, "all-identical input must collapse to one cluster");
        assert!(out.assignments.iter().all(|&(_, c)| c == 0));
        assert_eq!(out.silhouette, -1.0);
        assert_eq!(out.sizes, vec![6]);
    }

    #[test]
    fn two_well_separated_blobs_are_found() {
        let mut rows = Vec::new();
        for i in 0..8 {
            rows.push(point(0.05 + 0.01 * i as f64, 0.1));
            rows.push(point(0.85 + 0.01 * i as f64, 0.9));
        }
        let out = cluster(&matrix(&rows), &KMeansConfig::default());
        assert_eq!(out.k, 2);
        assert!(out.silhouette > 0.5, "silhouette {}", out.silhouette);
        // Even rows are blob A, odd rows blob B; labels must be consistent.
        let a = out.assignments[0].1;
        let b = out.assignments[1].1;
        assert_ne!(a, b);
        for (i, &(_, c)) in out.assignments.iter().enumerate() {
            assert_eq!(c, if i % 2 == 0 { a } else { b });
        }
        assert_eq!(out.sizes, vec![8, 8]);
    }

    #[test]
    fn runs_are_bit_identical() {
        let mut rows = Vec::new();
        for i in 0..30 {
            rows.push(point((i % 7) as f64 / 7.0, (i % 3) as f64 / 3.0));
        }
        let m = matrix(&rows);
        let a = cluster(&m, &KMeansConfig::default());
        let b = cluster(&m, &KMeansConfig::default());
        assert_eq!(a, b);
        assert_eq!(a.silhouette.to_bits(), b.silhouette.to_bits());
    }

    #[test]
    fn force_k_skips_the_sweep() {
        let rows = vec![point(0.1, 0.1), point(0.9, 0.9), point(0.5, 0.5)];
        let out = cluster(&matrix(&rows), &KMeansConfig { force_k: Some(3) });
        assert_eq!(out.sweep.len(), 1);
        assert_eq!(out.k, 3);
    }
}
