//! Clustering labels and clustering comparison.
//!
//! A [`Clustering`] assigns every point of a dataset either to a cluster
//! (identified by a dense [`ClusterId`]) or to noise — exactly the output
//! shape of DBSCAN and of the DBDC relabeling step. The module also provides
//! the machinery needed by the paper's quality functions (per-pair cluster
//! intersection/union sizes via a contingency table) and two standard
//! external validity measures, the Adjusted Rand Index and Normalized Mutual
//! Information, which we use as independent baselines when evaluating the
//! paper's own P^I / P^II measures.

use std::collections::HashMap;

/// Identifier of a cluster within one clustering. Dense, starting at 0.
pub type ClusterId = u32;

/// The label of a single point: noise or a member of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The point does not belong to any cluster.
    Noise,
    /// The point belongs to the cluster with the given id.
    Cluster(ClusterId),
}

impl Label {
    /// Whether the label is [`Label::Noise`].
    #[inline]
    pub fn is_noise(&self) -> bool {
        matches!(self, Label::Noise)
    }

    /// The cluster id if the point is clustered.
    #[inline]
    pub fn cluster(&self) -> Option<ClusterId> {
        match self {
            Label::Noise => None,
            Label::Cluster(c) => Some(*c),
        }
    }
}

/// A flat partitioning clustering: one [`Label`] per point of a dataset.
///
/// Invariant maintained by the constructors: cluster ids are *dense* — every
/// id in `0..n_clusters()` labels at least one point.
///
/// ```
/// use dbdc_geom::{Clustering, Label};
///
/// let c = Clustering::from_labels(vec![
///     Label::Cluster(7), Label::Cluster(7), Label::Noise, Label::Cluster(9),
/// ]);
/// assert_eq!(c.n_clusters(), 2);       // ids are renumbered densely
/// assert_eq!(c.label(0), Label::Cluster(0));
/// assert_eq!(c.n_noise(), 1);
/// assert_eq!(c.members(1), vec![3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    labels: Vec<Label>,
    n_clusters: u32,
}

impl Clustering {
    /// Builds a clustering from per-point labels, renumbering cluster ids to
    /// be dense while preserving first-appearance order.
    pub fn from_labels(labels: Vec<Label>) -> Self {
        let mut remap: HashMap<ClusterId, ClusterId> = HashMap::new();
        let mut labels = labels;
        for l in labels.iter_mut() {
            if let Label::Cluster(c) = l {
                let next = remap.len() as u32;
                let dense = *remap.entry(*c).or_insert(next);
                *l = Label::Cluster(dense);
            }
        }
        Self {
            labels,
            n_clusters: remap.len() as u32,
        }
    }

    /// Builds a clustering that keeps the supplied cluster ids **verbatim**
    /// (no densification). Used where ids must stay comparable across
    /// several clusterings — e.g. global cluster ids shared by all DBDC
    /// sites. Ids in `0..n_clusters` may be unused.
    ///
    /// # Panics
    /// Panics if some label references a cluster id `>= n_clusters`.
    pub fn from_labels_verbatim(labels: Vec<Label>, n_clusters: u32) -> Self {
        for l in &labels {
            if let Label::Cluster(c) = l {
                assert!(
                    *c < n_clusters,
                    "label references cluster {c} >= n_clusters {n_clusters}"
                );
            }
        }
        Self { labels, n_clusters }
    }

    /// A clustering in which every point is noise.
    pub fn all_noise(n: usize) -> Self {
        Self {
            labels: vec![Label::Noise; n],
            n_clusters: 0,
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the clustering covers no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of clusters.
    #[inline]
    pub fn n_clusters(&self) -> u32 {
        self.n_clusters
    }

    /// The label of point `i`.
    #[inline]
    pub fn label(&self, i: u32) -> Label {
        self.labels[i as usize]
    }

    /// All labels.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of noise points.
    pub fn n_noise(&self) -> usize {
        self.labels.iter().filter(|l| l.is_noise()).count()
    }

    /// Cluster sizes, indexed by cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters as usize];
        for l in &self.labels {
            if let Label::Cluster(c) = l {
                sizes[*c as usize] += 1;
            }
        }
        sizes
    }

    /// The point indices belonging to cluster `c`.
    pub fn members(&self, c: ClusterId) -> Vec<u32> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| (l.cluster() == Some(c)).then_some(i as u32))
            .collect()
    }
}

/// The contingency table between two clusterings of the same point set.
///
/// `count(a, b)` is the number of points in cluster `a` of the first
/// clustering and cluster `b` of the second; noise is tracked separately.
/// This is the shared substrate for the paper's quality functions (which
/// need `|C_d ∩ C_c|` and `|C_d ∪ C_c|` for the pair of clusters containing
/// each object) and for ARI / NMI.
#[derive(Debug, Clone)]
pub struct Contingency {
    /// `(cluster_a, cluster_b) -> |intersection|`, clustered points only.
    joint: HashMap<(ClusterId, ClusterId), usize>,
    sizes_a: Vec<usize>,
    sizes_b: Vec<usize>,
    /// Points that are noise in A but clustered in B.
    noise_a_only: usize,
    /// Points that are noise in B but clustered in A.
    noise_b_only: usize,
    /// Points that are noise in both.
    noise_both: usize,
    n: usize,
}

impl Contingency {
    /// Builds the contingency table of two clusterings.
    ///
    /// # Panics
    /// Panics if the clusterings cover a different number of points.
    pub fn new(a: &Clustering, b: &Clustering) -> Self {
        assert_eq!(a.len(), b.len(), "clusterings must cover the same points");
        let mut joint: HashMap<(ClusterId, ClusterId), usize> = HashMap::new();
        let mut noise_a_only = 0;
        let mut noise_b_only = 0;
        let mut noise_both = 0;
        for (la, lb) in a.labels().iter().zip(b.labels().iter()) {
            match (la.cluster(), lb.cluster()) {
                (Some(ca), Some(cb)) => *joint.entry((ca, cb)).or_insert(0) += 1,
                (None, Some(_)) => noise_a_only += 1,
                (Some(_), None) => noise_b_only += 1,
                (None, None) => noise_both += 1,
            }
        }
        Self {
            joint,
            sizes_a: a.cluster_sizes(),
            sizes_b: b.cluster_sizes(),
            noise_a_only,
            noise_b_only,
            noise_both,
            n: a.len(),
        }
    }

    /// Number of points clustered in both clusterings that lie in cluster
    /// `a` of the first and cluster `b` of the second.
    #[inline]
    pub fn intersection(&self, a: ClusterId, b: ClusterId) -> usize {
        self.joint.get(&(a, b)).copied().unwrap_or(0)
    }

    /// `|C_a ∪ C_b|` where `C_a`, `C_b` are clusters of the two clusterings.
    #[inline]
    pub fn union(&self, a: ClusterId, b: ClusterId) -> usize {
        self.sizes_a[a as usize] + self.sizes_b[b as usize] - self.intersection(a, b)
    }

    /// Size of cluster `a` in the first clustering.
    pub fn size_a(&self, a: ClusterId) -> usize {
        self.sizes_a[a as usize]
    }

    /// Size of cluster `b` in the second clustering.
    pub fn size_b(&self, b: ClusterId) -> usize {
        self.sizes_b[b as usize]
    }

    /// Points that are noise in the first but clustered in the second.
    pub fn noise_a_only(&self) -> usize {
        self.noise_a_only
    }

    /// Points that are noise in the second but clustered in the first.
    pub fn noise_b_only(&self) -> usize {
        self.noise_b_only
    }

    /// Points that are noise in both clusterings.
    pub fn noise_both(&self) -> usize {
        self.noise_both
    }

    /// Total number of points.
    pub fn n(&self) -> usize {
        self.n
    }
}

fn comb2(n: usize) -> f64 {
    let n = n as f64;
    n * (n - 1.0) / 2.0
}

/// Adjusted Rand Index between two clusterings, treating noise as a regular
/// class (the common convention when evaluating DBSCAN-family algorithms).
/// Returns a value in `[-1, 1]`; 1 means identical partitions.
pub fn adjusted_rand_index(a: &Clustering, b: &Clustering) -> f64 {
    assert_eq!(a.len(), b.len(), "clusterings must cover the same points");
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    // Treat noise as one extra class on each side.
    let key = |l: Label| -> i64 {
        match l {
            Label::Noise => -1,
            Label::Cluster(c) => c as i64,
        }
    };
    let mut joint: HashMap<(i64, i64), usize> = HashMap::new();
    let mut rows: HashMap<i64, usize> = HashMap::new();
    let mut cols: HashMap<i64, usize> = HashMap::new();
    for (la, lb) in a.labels().iter().zip(b.labels().iter()) {
        let (ka, kb) = (key(*la), key(*lb));
        *joint.entry((ka, kb)).or_insert(0) += 1;
        *rows.entry(ka).or_insert(0) += 1;
        *cols.entry(kb).or_insert(0) += 1;
    }
    let sum_joint: f64 = joint.values().map(|&v| comb2(v)).sum();
    let sum_rows: f64 = rows.values().map(|&v| comb2(v)).sum();
    let sum_cols: f64 = cols.values().map(|&v| comb2(v)).sum();
    let total = comb2(n);
    let expected = sum_rows * sum_cols / total;
    let max_index = 0.5 * (sum_rows + sum_cols);
    if (max_index - expected).abs() < f64::EPSILON {
        // Both partitions are trivial (all singletons or one block).
        return 1.0;
    }
    (sum_joint - expected) / (max_index - expected)
}

/// Normalized Mutual Information (arithmetic normalization) between two
/// clusterings, treating noise as a regular class. Returns a value in
/// `[0, 1]`; 1 means identical partitions.
pub fn normalized_mutual_information(a: &Clustering, b: &Clustering) -> f64 {
    assert_eq!(a.len(), b.len(), "clusterings must cover the same points");
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    let key = |l: Label| -> i64 {
        match l {
            Label::Noise => -1,
            Label::Cluster(c) => c as i64,
        }
    };
    let mut joint: HashMap<(i64, i64), usize> = HashMap::new();
    let mut rows: HashMap<i64, usize> = HashMap::new();
    let mut cols: HashMap<i64, usize> = HashMap::new();
    for (la, lb) in a.labels().iter().zip(b.labels().iter()) {
        let (ka, kb) = (key(*la), key(*lb));
        *joint.entry((ka, kb)).or_insert(0) += 1;
        *rows.entry(ka).or_insert(0) += 1;
        *cols.entry(kb).or_insert(0) += 1;
    }
    let n = n as f64;
    let mut mi = 0.0;
    for (&(ka, kb), &nij) in &joint {
        let nij = nij as f64;
        let ni = rows[&ka] as f64;
        let nj = cols[&kb] as f64;
        mi += (nij / n) * ((n * nij) / (ni * nj)).ln();
    }
    let h = |counts: &HashMap<i64, usize>| -> f64 {
        counts
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (h(&rows), h(&cols));
    if ha == 0.0 && hb == 0.0 {
        return 1.0;
    }
    let denom = 0.5 * (ha + hb);
    if denom == 0.0 {
        return 0.0;
    }
    (mi / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn c(ids: &[i64]) -> Clustering {
        Clustering::from_labels(
            ids.iter()
                .map(|&i| {
                    if i < 0 {
                        Label::Noise
                    } else {
                        Label::Cluster(i as u32)
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn densifies_cluster_ids() {
        let cl = c(&[5, 5, 9, -1, 9, 7]);
        assert_eq!(cl.n_clusters(), 3);
        assert_eq!(cl.label(0), Label::Cluster(0));
        assert_eq!(cl.label(2), Label::Cluster(1));
        assert_eq!(cl.label(5), Label::Cluster(2));
        assert_eq!(cl.label(3), Label::Noise);
        assert_eq!(cl.n_noise(), 1);
    }

    #[test]
    fn sizes_and_members() {
        let cl = c(&[0, 0, 1, -1, 1, 1]);
        assert_eq!(cl.cluster_sizes(), vec![2, 3]);
        assert_eq!(cl.members(1), vec![2, 4, 5]);
        assert_eq!(cl.members(0), vec![0, 1]);
    }

    #[test]
    fn all_noise() {
        let cl = Clustering::all_noise(4);
        assert_eq!(cl.n_clusters(), 0);
        assert_eq!(cl.n_noise(), 4);
        assert!(!cl.is_empty());
        assert!(Clustering::all_noise(0).is_empty());
    }

    #[test]
    fn contingency_counts() {
        // A: [0,0,1,1,-]   B: [0,1,1,1,-]
        let a = c(&[0, 0, 1, 1, -1]);
        let b = c(&[0, 1, 1, 1, -1]);
        let t = Contingency::new(&a, &b);
        assert_eq!(t.intersection(0, 0), 1);
        assert_eq!(t.intersection(0, 1), 1);
        assert_eq!(t.intersection(1, 1), 2);
        assert_eq!(t.intersection(1, 0), 0);
        assert_eq!(t.union(0, 1), 2 + 3 - 1);
        assert_eq!(t.noise_both(), 1);
        assert_eq!(t.noise_a_only(), 0);
        assert_eq!(t.noise_b_only(), 0);
        assert_eq!(t.n(), 5);
        assert_eq!(t.size_a(1), 2);
        assert_eq!(t.size_b(1), 3);
    }

    #[test]
    fn contingency_noise_asymmetry() {
        let a = c(&[-1, 0, 0]);
        let b = c(&[0, 0, -1]);
        let t = Contingency::new(&a, &b);
        assert_eq!(t.noise_a_only(), 1);
        assert_eq!(t.noise_b_only(), 1);
        assert_eq!(t.noise_both(), 0);
    }

    #[test]
    fn ari_identical_is_one() {
        let a = c(&[0, 0, 1, 1, -1, 2]);
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_permuted_ids_is_one() {
        let a = c(&[0, 0, 1, 1]);
        let b = c(&[1, 1, 0, 0]);
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_independent_is_low() {
        let a = c(&[0, 0, 0, 1, 1, 1]);
        let b = c(&[0, 1, 0, 1, 0, 1]);
        assert!(adjusted_rand_index(&a, &b) < 0.2);
    }

    #[test]
    fn nmi_identical_is_one() {
        let a = c(&[0, 0, 1, 1, -1]);
        assert!((normalized_mutual_information(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_independent_is_low() {
        let a = c(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let b = c(&[0, 1, 0, 1, 0, 1, 0, 1]);
        assert!(normalized_mutual_information(&a, &b) < 1e-9);
    }

    #[test]
    fn empty_clusterings_compare_equal() {
        let a = Clustering::all_noise(0);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
        assert_eq!(normalized_mutual_information(&a, &a), 1.0);
    }

    fn arb_labels(n: usize) -> impl Strategy<Value = Clustering> {
        prop::collection::vec(-1i64..4, n).prop_map(|v| c(&v))
    }

    proptest! {
        #[test]
        fn ari_symmetric(a in arb_labels(24), b in arb_labels(24)) {
            let ab = adjusted_rand_index(&a, &b);
            let ba = adjusted_rand_index(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-9);
            prop_assert!((-1.0..=1.0 + 1e-9).contains(&ab));
        }

        #[test]
        fn nmi_symmetric_and_bounded(a in arb_labels(24), b in arb_labels(24)) {
            let ab = normalized_mutual_information(&a, &b);
            let ba = normalized_mutual_information(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn self_comparison_is_perfect(a in arb_labels(24)) {
            prop_assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-9);
            prop_assert!((normalized_mutual_information(&a, &a) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn contingency_totals(a in arb_labels(32), b in arb_labels(32)) {
            let t = Contingency::new(&a, &b);
            let joint_total: usize = (0..a.n_clusters())
                .flat_map(|ca| (0..b.n_clusters()).map(move |cb| (ca, cb)))
                .map(|(ca, cb)| t.intersection(ca, cb))
                .sum();
            let total = joint_total + t.noise_a_only() + t.noise_b_only() + t.noise_both();
            prop_assert_eq!(total, t.n());
        }
    }
}
