//! DBSCAN (Ester, Kriegel, Sander, Xu — KDD 1996).
//!
//! The paper's local *and* global clustering algorithm. This implementation
//! follows the original ExpandCluster formulation: it discovers clusters as
//! maximal density-connected sets (Definitions 1-5 of the DBDC paper) and
//! reports, for every point, whether it is a **core** point — the property
//! the DBDC local models are built from.
//!
//! The neighborhood backend is any [`NeighborIndex`], mirroring the paper's
//! use of R*-trees / M-trees for the region queries.

use dbdc_geom::{Clustering, Dataset, Label};
use dbdc_index::{NeighborIndex, QueryWorkspace};

/// DBSCAN parameters: the ε-radius and the core-point density threshold.
///
/// A point is a core point iff its closed ε-neighborhood (which includes the
/// point itself) contains at least `min_pts` points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Neighborhood radius (`Eps` in the paper).
    pub eps: f64,
    /// Minimum neighborhood cardinality for the core-object condition
    /// (`MinPts` in the paper).
    pub min_pts: usize,
}

impl DbscanParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    /// Panics if `eps` is not positive and finite or `min_pts == 0`.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        assert!(
            eps.is_finite() && eps > 0.0,
            "eps must be positive and finite"
        );
        assert!(min_pts > 0, "min_pts must be at least 1");
        Self { eps, min_pts }
    }
}

/// The result of a DBSCAN run: the clustering plus per-point core flags.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanResult {
    /// Cluster labels (noise for unclustered points).
    pub clustering: Clustering,
    /// `core[i]` — whether point `i` satisfies the core-object condition.
    pub core: Vec<bool>,
    /// Number of ε-range queries issued to the index (diagnostic). Plain
    /// DBSCAN issues one per point; [`crate::scp::dbscan_with_scp`] adds
    /// one per specific core point on the index path and issues none on
    /// the cell path.
    pub range_queries: usize,
}

impl DbscanResult {
    /// Indices of all core points.
    pub fn core_points(&self) -> Vec<u32> {
        self.core
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| c.then_some(i as u32))
            .collect()
    }

    /// Indices of border points (clustered but not core).
    pub fn border_points(&self) -> Vec<u32> {
        self.clustering
            .labels()
            .iter()
            .enumerate()
            .filter_map(|(i, l)| (!l.is_noise() && !self.core[i]).then_some(i as u32))
            .collect()
    }
}

const UNCLASSIFIED: i64 = -2;
const NOISE: i64 = -1;

/// Runs DBSCAN over `data` using `index` for the ε-range queries.
///
/// Every point receives exactly one region query, so the complexity is
/// `O(n · Q)` where `Q` is the index's query cost — `O(n log n)` with a
/// spatial index on well-behaved data, matching the paper's Section 9.1
/// analysis.
///
/// ```
/// use dbdc_cluster::{dbscan, DbscanParams};
/// use dbdc_geom::{Dataset, Euclidean};
/// use dbdc_index::LinearScan;
///
/// // Two pairs of close points and one isolated point.
/// let data = Dataset::from_flat(2, vec![
///     0.0, 0.0,  0.5, 0.0,   10.0, 0.0,  10.5, 0.0,   50.0, 50.0,
/// ]);
/// let index = LinearScan::new(&data, Euclidean);
/// let result = dbscan(&data, &index, &DbscanParams::new(1.0, 2));
/// assert_eq!(result.clustering.n_clusters(), 2);
/// assert!(result.clustering.label(4).is_noise());
/// assert_eq!(result.core_points().len(), 4);
/// ```
///
/// # Panics
/// Panics if the index does not cover `data` (`index.len() != data.len()`).
pub fn dbscan(data: &Dataset, index: &dyn NeighborIndex, params: &DbscanParams) -> DbscanResult {
    assert_eq!(
        index.len(),
        data.len(),
        "index must be built over the clustered dataset"
    );
    let n = data.len();
    let mut state = vec![UNCLASSIFIED; n];
    let mut core = vec![false; n];
    let mut next_cluster: i64 = 0;
    let mut neighbors: Vec<u32> = Vec::new();
    let mut seeds: Vec<u32> = Vec::new();
    let mut ws = QueryWorkspace::new();
    let mut range_queries = 0usize;

    for i in 0..n as u32 {
        if state[i as usize] != UNCLASSIFIED {
            continue;
        }
        index.range_with(data.point(i), params.eps, &mut neighbors, &mut ws);
        range_queries += 1;
        if neighbors.len() < params.min_pts {
            state[i as usize] = NOISE;
            continue;
        }
        // i is a core point: start a new cluster and expand it.
        let cluster = next_cluster;
        next_cluster += 1;
        core[i as usize] = true;
        state[i as usize] = cluster;
        seeds.clear();
        for &q in &neighbors {
            let s = &mut state[q as usize];
            if *s == UNCLASSIFIED {
                *s = cluster;
                seeds.push(q);
            } else if *s == NOISE {
                // Former noise becomes a border point of this cluster.
                *s = cluster;
            }
        }
        while let Some(j) = seeds.pop() {
            index.range_with(data.point(j), params.eps, &mut neighbors, &mut ws);
            range_queries += 1;
            if neighbors.len() < params.min_pts {
                continue; // border point: clustered but not expanded
            }
            core[j as usize] = true;
            for &q in &neighbors {
                let s = &mut state[q as usize];
                if *s == UNCLASSIFIED {
                    *s = cluster;
                    seeds.push(q);
                } else if *s == NOISE {
                    *s = cluster;
                }
            }
        }
    }

    let labels = state
        .iter()
        .map(|&s| {
            if s < 0 {
                Label::Noise
            } else {
                Label::Cluster(s as u32)
            }
        })
        .collect();
    DbscanResult {
        clustering: Clustering::from_labels(labels),
        core,
        range_queries,
    }
}

/// Convenience wrapper: builds the default index ([`dbdc_index::IndexKind`])
/// over `data` with the Euclidean metric and runs DBSCAN.
pub fn dbscan_euclidean(data: &Dataset, params: &DbscanParams) -> DbscanResult {
    let index = dbdc_index::build_index(
        dbdc_index::IndexKind::default(),
        data,
        dbdc_geom::Euclidean,
        params.eps,
    );
    dbscan(data, index.as_ref(), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_geom::Euclidean;
    use dbdc_index::LinearScan;

    fn run(data: &Dataset, eps: f64, min_pts: usize) -> DbscanResult {
        let idx = LinearScan::new(data, Euclidean);
        dbscan(data, &idx, &DbscanParams::new(eps, min_pts))
    }

    /// Two well-separated blobs and one isolated point.
    fn two_blobs() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[i as f64 * 0.1, 0.0]);
        }
        for i in 0..10 {
            d.push(&[10.0 + i as f64 * 0.1, 0.0]);
        }
        d.push(&[100.0, 100.0]);
        d
    }

    #[test]
    fn finds_two_clusters_and_noise() {
        let d = two_blobs();
        let r = run(&d, 0.15, 3);
        assert_eq!(r.clustering.n_clusters(), 2);
        assert_eq!(r.clustering.n_noise(), 1);
        assert!(r.clustering.label(20).is_noise());
        // All members of blob 1 share a label.
        let l0 = r.clustering.label(0);
        for i in 0..10 {
            assert_eq!(r.clustering.label(i), l0);
        }
        let l1 = r.clustering.label(10);
        assert_ne!(l0, l1);
        for i in 10..20 {
            assert_eq!(r.clustering.label(i), l1);
        }
    }

    #[test]
    fn core_and_border_flags() {
        // A chain 0..5 spaced 1.0 apart, eps=1.0, min_pts=3: interior points
        // have 3 neighbors (self + 2), endpoints only 2 -> border.
        let mut d = Dataset::new(2);
        for i in 0..6 {
            d.push(&[i as f64, 0.0]);
        }
        let r = run(&d, 1.0, 3);
        assert_eq!(r.clustering.n_clusters(), 1);
        assert_eq!(r.clustering.n_noise(), 0);
        assert!(!r.core[0] && !r.core[5], "endpoints are border points");
        for i in 1..5 {
            assert!(r.core[i], "interior point {i} must be core");
        }
        assert_eq!(r.core_points(), vec![1, 2, 3, 4]);
        assert_eq!(r.border_points(), vec![0, 5]);
    }

    #[test]
    fn min_pts_one_clusters_everything() {
        // With min_pts=1 every point is core, so there is no noise.
        let d = two_blobs();
        let r = run(&d, 0.15, 1);
        assert_eq!(r.clustering.n_noise(), 0);
        assert!(r.core.iter().all(|&c| c));
        assert_eq!(r.clustering.n_clusters(), 3);
    }

    #[test]
    fn all_noise_when_eps_tiny() {
        let d = two_blobs();
        let r = run(&d, 1e-6, 2);
        assert_eq!(r.clustering.n_clusters(), 0);
        assert_eq!(r.clustering.n_noise(), d.len());
        assert!(r.core.iter().all(|&c| !c));
    }

    #[test]
    fn one_cluster_when_eps_huge() {
        let d = two_blobs();
        let r = run(&d, 1000.0, 3);
        assert_eq!(r.clustering.n_clusters(), 1);
        assert_eq!(r.clustering.n_noise(), 0);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(2);
        let r = run(&d, 1.0, 3);
        assert_eq!(r.clustering.len(), 0);
        assert_eq!(r.clustering.n_clusters(), 0);
    }

    #[test]
    fn one_range_query_per_point() {
        let d = two_blobs();
        let r = run(&d, 0.15, 3);
        assert_eq!(r.range_queries, d.len());
    }

    #[test]
    fn result_invariant_borders_touch_core() {
        // Every clustered non-core point must have a core point of the same
        // cluster within eps (density-reachability).
        let d = two_blobs();
        let (eps, min_pts) = (0.15, 3);
        let r = run(&d, eps, min_pts);
        let idx = LinearScan::new(&d, Euclidean);
        for i in 0..d.len() as u32 {
            if let Some(c) = r.clustering.label(i).cluster() {
                if !r.core[i as usize] {
                    let ok = idx
                        .range_vec(d.point(i), eps)
                        .iter()
                        .any(|&q| r.core[q as usize] && r.clustering.label(q).cluster() == Some(c));
                    assert!(
                        ok,
                        "border point {i} not within eps of a core of its cluster"
                    );
                }
            }
        }
    }

    #[test]
    fn noise_never_near_core() {
        let d = two_blobs();
        let (eps, min_pts) = (0.15, 3);
        let r = run(&d, eps, min_pts);
        let idx = LinearScan::new(&d, Euclidean);
        for i in 0..d.len() as u32 {
            if r.clustering.label(i).is_noise() {
                let near_core = idx
                    .range_vec(d.point(i), eps)
                    .iter()
                    .any(|&q| r.core[q as usize]);
                assert!(
                    !near_core,
                    "noise point {i} is density-reachable from a core"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_same_input() {
        let d = two_blobs();
        let a = run(&d, 0.15, 3);
        let b = run(&d, 0.15, 3);
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.core, b.core);
    }

    #[test]
    fn euclidean_wrapper_matches_linear_backend() {
        let d = two_blobs();
        let params = DbscanParams::new(0.15, 3);
        let a = dbscan_euclidean(&d, &params);
        let b = run(&d, 0.15, 3);
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.core, b.core);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_eps() {
        let _ = DbscanParams::new(0.0, 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_min_pts() {
        let _ = DbscanParams::new(1.0, 0);
    }
}
