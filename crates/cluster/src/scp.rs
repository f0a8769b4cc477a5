//! DBSCAN with *specific core point* extraction — the paper's "slightly
//! enhanced DBSCAN".
//!
//! Section 4 of the paper: "We slightly enhanced DBSCAN so that we can
//! easily determine the local model after we have finished the local
//! clustering. All information which is comprised within the local model,
//! i.e. the representatives and their corresponding ε-ranges, is computed
//! on-the-fly during the DBSCAN run."
//!
//! Definition 6 (specific core points): `Scor_C ⊆ Cor_C` such that no
//! specific core point lies in another's ε-neighborhood, and every core
//! point of the cluster lies in the ε-neighborhood of some specific core
//! point. The paper notes that the set is not unique: it depends on the
//! order in which core points are processed. This crate fixes that order
//! once, for every driver: **ascending point id**. A core point becomes a
//! specific core point unless one of its cluster's specific core points
//! chosen so far lies within ε. The model therefore depends only on the
//! data and the parameters, never on the index, the thread count or the
//! partition count.
//!
//! Definition 7 (specific ε-ranges):
//! `ε_s = Eps + max{ dist(s, sᵢ) | sᵢ ∈ Cor ∧ sᵢ ∈ N_Eps(s) }`.
//!
//! Membership in `N_Eps` is always the index's [`RangePredicate`], so the
//! selection agrees with the clustering's own neighborhoods.
//! [`check_specific_core_points`] verifies both definitions on a result.
//!
//! [`dbscan_with_scp`] clusters a site one of two ways, chosen from the
//! data (see [`mod@crate::cells`]): on cells, when most points lie in cells
//! dense enough to be core without a query, or with one range query per
//! point through the index. Both give the labels and core flags of
//! [`crate::dbscan::dbscan`].

use crate::cells::{cell_dbscan, CellGrid};
use crate::dbscan::{dbscan, DbscanParams, DbscanResult};
use dbdc_geom::{Clustering, Dataset};
use dbdc_index::{NeighborIndex, QueryWorkspace, RangePredicate};
use dbdc_obs::CounterSheet;

/// A specific core point with its specific ε-range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecificCorePoint {
    /// Index of the point in the local dataset.
    pub point: u32,
    /// The specific ε-range `ε_s` (Definition 7).
    pub eps_range: f64,
}

/// Result of the enhanced DBSCAN run: the ordinary DBSCAN result plus, for
/// every cluster, its complete set of specific core points.
#[derive(Debug, Clone, PartialEq)]
pub struct ScpResult {
    /// The underlying DBSCAN clustering and core flags.
    pub dbscan: DbscanResult,
    /// `scp[c]` — the specific core points of cluster `c`, in ascending
    /// point id.
    pub scp: Vec<Vec<SpecificCorePoint>>,
}

impl ScpResult {
    /// Total number of specific core points across all clusters.
    pub fn n_representatives(&self) -> usize {
        self.scp.iter().map(|v| v.len()).sum()
    }
}

/// Runs DBSCAN and extracts the specific core points of every cluster.
///
/// The clustering and core flags are identical to
/// [`crate::dbscan::dbscan`] over the same index (asserted by tests). A
/// site whose points mostly lie in dense cells is clustered on cells with
/// no range query; any other site takes one range query per point. The
/// specific core points follow the module's id-order rule either way, and
/// every distance computed outside the index's own queries is added to
/// the index's counter sheet.
///
/// ```
/// use dbdc_cluster::{dbscan_with_scp, DbscanParams};
/// use dbdc_geom::{Dataset, Euclidean};
/// use dbdc_index::LinearScan;
///
/// // One dense cluster of 20 points packed well inside one Eps ball.
/// let mut data = Dataset::new(2);
/// for i in 0..20 {
///     data.push(&[i as f64 * 0.01, 0.0]);
/// }
/// let index = LinearScan::new(&data, Euclidean);
/// let result = dbscan_with_scp(&data, &index, &DbscanParams::new(1.0, 3));
/// // All 20 points lie within Eps of point 0, so one specific core point
/// // represents the whole cluster.
/// assert_eq!(result.n_representatives(), 1);
/// let rep = result.scp[0][0];
/// assert!(rep.eps_range >= 1.0 && rep.eps_range <= 2.0);
/// ```
///
/// # Panics
/// Panics if the index does not cover `data` (`index.len() != data.len()`).
pub fn dbscan_with_scp(
    data: &Dataset,
    index: &dyn NeighborIndex,
    params: &DbscanParams,
) -> ScpResult {
    assert_eq!(
        index.len(),
        data.len(),
        "index must be built over the clustered dataset"
    );
    let pred = index.predicate();
    let sheet = index.counter_sheet();
    if let Some(result) = on_cells(data, &pred, params, sheet, false) {
        return result;
    }
    let result = dbscan(data, index, params);
    finish(
        data,
        result,
        params.eps,
        &pred,
        Vicinity::Index(index),
        sheet,
    )
}

/// [`dbscan_with_scp`] forced onto the cell path whatever the dense
/// share, for tests that pin the cell path against the index path.
/// `None` when the site cannot be clustered on cells at all: an `f32`
/// index, or an extent too wide for exact cell keys.
#[doc(hidden)]
pub fn dbscan_with_scp_on_cells(
    data: &Dataset,
    index: &dyn NeighborIndex,
    params: &DbscanParams,
) -> Option<ScpResult> {
    on_cells(
        data,
        &index.predicate(),
        params,
        index.counter_sheet(),
        true,
    )
}

/// The cell path of [`dbscan_with_scp`] on its own, for a caller that
/// has not built an index yet: `Some` with the result `dbscan_with_scp`
/// would return when the site qualifies for the cell path under `pred`
/// (the predicate of the index the caller would build, see
/// [`RangePredicate::for_kind`]), `None` when the caller should build
/// the index and cluster through it. Distances computed land in `sheet`.
pub fn try_cell_path(
    data: &Dataset,
    pred: &RangePredicate,
    params: &DbscanParams,
    sheet: Option<&CounterSheet>,
) -> Option<ScpResult> {
    on_cells(data, pred, params, sheet, false)
}

/// The cell path — exact cell DBSCAN, then the id-order selection over
/// the same cells — when the site qualifies for it (or, with `force`,
/// whenever it can be keyed at all); `None` sends the caller to the
/// index path. Every driver asks here first, so all make the same choice.
pub(crate) fn on_cells(
    data: &Dataset,
    pred: &RangePredicate,
    params: &DbscanParams,
    sheet: Option<&CounterSheet>,
    force: bool,
) -> Option<ScpResult> {
    let grid = CellGrid::build(data, pred, params.eps, params.min_pts, force)?;
    let mut evals = 0;
    let result = cell_dbscan(data, &grid, pred, params.eps, params.min_pts, &mut evals);
    if let Some(s) = sheet {
        s.add_distance_evals(evals);
    }
    Some(finish(
        data,
        result,
        params.eps,
        pred,
        Vicinity::Cells(&grid),
        sheet,
    ))
}

/// The specific core points of every cluster of `clustering` by the
/// id-order rule, with their Definition 7 ranges, over the core flags
/// `core`. `index` answers the Definition 7 range queries and decides
/// ε-membership; distances computed next to it land in its counter sheet.
pub fn select_specific_core_points(
    data: &Dataset,
    clustering: &Clustering,
    core: &[bool],
    eps: f64,
    index: &dyn NeighborIndex,
) -> Vec<Vec<SpecificCorePoint>> {
    let mut evals = 0;
    let (scp, _) = select(
        data,
        clustering,
        core,
        eps,
        &index.predicate(),
        &Vicinity::Index(index),
        &mut evals,
    );
    if let Some(s) = index.counter_sheet() {
        s.add_distance_evals(evals);
    }
    scp
}

/// Where the selection finds the points near a given one. Each source
/// answers "which points lie within ε" exactly as the predicate does, so
/// all three give the same selection.
pub(crate) enum Vicinity<'a> {
    /// An index. The cover test scans the cluster's specific core points
    /// chosen so far; each ε-range takes one range query.
    Index(&'a dyn NeighborIndex),
    /// Every point's ε-neighborhood, already computed by the parallel
    /// and partitioned drivers. Each ε-range counts as the range query it
    /// replaces.
    Lists(&'a [Vec<u32>]),
    /// The cells of the cell path. The cover test and the ε-ranges scan
    /// the neighbour cells.
    Cells(&'a CellGrid),
}

/// Selects the specific core points of `result`, adds their range
/// queries to it and records the distances computed in `sheet`.
pub(crate) fn finish(
    data: &Dataset,
    result: DbscanResult,
    eps: f64,
    pred: &RangePredicate,
    vicinity: Vicinity,
    sheet: Option<&CounterSheet>,
) -> ScpResult {
    let mut evals = 0;
    let (scp, queries) = select(
        data,
        &result.clustering,
        &result.core,
        eps,
        pred,
        &vicinity,
        &mut evals,
    );
    if let Some(s) = sheet {
        s.add_distance_evals(evals);
    }
    ScpResult {
        dbscan: DbscanResult {
            range_queries: result.range_queries + queries,
            ..result
        },
        scp,
    }
}

/// The id-order rule and Definition 7. Returns the per-cluster lists and
/// the number of range queries issued (or replaced by cached lists).
/// Every predicate test and distance computed is added to `evals`.
fn select(
    data: &Dataset,
    clustering: &Clustering,
    core: &[bool],
    eps: f64,
    pred: &RangePredicate,
    vicinity: &Vicinity,
    evals: &mut u64,
) -> (Vec<Vec<SpecificCorePoint>>, usize) {
    let n = data.len();
    let within = |p: u32, q: u32, evals: &mut u64| {
        *evals += 1;
        pred.within(data.point(p), data.point(q), eps)
    };

    // Definition 6, in ascending id. A specific core point within ε of a
    // core point is always of its cluster (two cores within ε are
    // density-connected), so the cached lists and the cells need no
    // cluster check.
    let mut scors: Vec<Vec<u32>> = vec![Vec::new(); clustering.n_clusters() as usize];
    let mut is_scor = vec![false; n];
    let mut cell_scors: Vec<Vec<u32>> = match vicinity {
        Vicinity::Cells(grid) => vec![Vec::new(); grid.n_cells()],
        _ => Vec::new(),
    };
    for p in 0..n as u32 {
        if !core[p as usize] {
            continue;
        }
        let c = clustering
            .label(p)
            .cluster()
            .expect("core points are clustered") as usize;
        let covered = match vicinity {
            Vicinity::Index(_) => scors[c].iter().any(|&s| within(s, p, evals)),
            Vicinity::Lists(lists) => lists[p as usize].iter().any(|&q| is_scor[q as usize]),
            // Two points of one cell are always within ε.
            Vicinity::Cells(grid) => {
                let cell = grid.cell_of(p);
                !cell_scors[cell].is_empty()
                    || grid
                        .neighbours(cell)
                        .iter()
                        .any(|&b| cell_scors[b as usize].iter().any(|&s| within(s, p, evals)))
            }
        };
        if !covered {
            scors[c].push(p);
            is_scor[p as usize] = true;
            if let Vicinity::Cells(grid) = vicinity {
                cell_scors[grid.cell_of(p)].push(p);
            }
        }
    }

    // Definition 7 over the core points within ε of each one.
    let metric = pred.metric();
    let mut queries = 0;
    let mut buf: Vec<u32> = Vec::new();
    let mut ws = QueryWorkspace::new();
    let mut scp = Vec::with_capacity(scors.len());
    for ids in &scors {
        let mut list = Vec::with_capacity(ids.len());
        for &s in ids {
            let mut farthest = 0.0f64;
            let mut reach = |q: u32, evals: &mut u64| {
                *evals += 1;
                farthest = farthest.max(metric.dist(data.point(s), data.point(q)));
            };
            match vicinity {
                Vicinity::Index(index) => {
                    index.range_with(data.point(s), eps, &mut buf, &mut ws);
                    queries += 1;
                    for &q in buf.iter().filter(|&&q| core[q as usize]) {
                        reach(q, evals);
                    }
                }
                Vicinity::Lists(lists) => {
                    queries += 1;
                    for &q in lists[s as usize].iter().filter(|&&q| core[q as usize]) {
                        reach(q, evals);
                    }
                }
                Vicinity::Cells(grid) => {
                    let cell = grid.cell_of(s);
                    for &q in grid.members(cell).iter().filter(|&&q| core[q as usize]) {
                        reach(q, evals);
                    }
                    for &b in grid.neighbours(cell) {
                        for &q in grid.members(b as usize) {
                            if core[q as usize] && within(s, q, evals) {
                                reach(q, evals);
                            }
                        }
                    }
                }
            }
            list.push(SpecificCorePoint {
                point: s,
                eps_range: eps + farthest,
            });
        }
        scp.push(list);
    }
    (scp, queries)
}

/// Checks Definitions 6 and 7 on `result` by brute force under `pred`
/// (the predicate of the index the run used; the `f32` one for `f32`
/// runs):
///
/// - every specific core point is a core point of its cluster;
/// - every core point lies within ε of a specific core point of its
///   cluster;
/// - no two specific core points of one cluster lie within ε;
/// - every `ε_s` equals `ε` plus the largest distance from `s` to a core
///   point within ε, exactly.
///
/// Returns the first violation found. `O(n · |Scor|)`; meant for tests.
pub fn check_specific_core_points(
    data: &Dataset,
    result: &ScpResult,
    eps: f64,
    pred: &RangePredicate,
) -> Result<(), String> {
    let core = &result.dbscan.core;
    let clustering = &result.dbscan.clustering;
    if result.scp.len() != clustering.n_clusters() as usize {
        return Err(format!(
            "{} specific core point lists for {} clusters",
            result.scp.len(),
            clustering.n_clusters()
        ));
    }
    let within = |a: u32, b: u32| pred.within(data.point(a), data.point(b), eps);
    for (c, list) in result.scp.iter().enumerate() {
        for (i, s) in list.iter().enumerate() {
            let p = s.point;
            if !core[p as usize] || clustering.label(p).cluster() != Some(c as u32) {
                return Err(format!("point {p} is no core point of cluster {c}"));
            }
            if let Some(t) = list[i + 1..].iter().find(|t| within(p, t.point)) {
                return Err(format!(
                    "specific core points {p} and {} of cluster {c} lie within ε",
                    t.point
                ));
            }
            let farthest = (0..data.len() as u32)
                .filter(|&q| core[q as usize] && within(p, q))
                .map(|q| pred.metric().dist(data.point(p), data.point(q)))
                .fold(0.0f64, f64::max);
            if s.eps_range != eps + farthest {
                return Err(format!(
                    "ε-range of {p} is {}, Definition 7 gives {}",
                    s.eps_range,
                    eps + farthest
                ));
            }
        }
    }
    for p in (0..data.len() as u32).filter(|&p| core[p as usize]) {
        let c = clustering
            .label(p)
            .cluster()
            .expect("core points are clustered");
        if !result.scp[c as usize].iter().any(|s| within(s.point, p)) {
            return Err(format!("core point {p} of cluster {c} is not covered"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_geom::{Euclidean, Metric};
    use dbdc_index::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_blobs(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for (cx, cy) in [(0.0, 0.0), (8.0, 8.0), (0.0, 9.0)] {
            for _ in 0..120 {
                // Box-Muller-ish jitter via averaging keeps rand API simple.
                let jitter = |rng: &mut StdRng| {
                    (0..4).map(|_| rng.random_range(-1.0..1.0)).sum::<f64>() / 2.0
                };
                d.push(&[cx + jitter(&mut rng), cy + jitter(&mut rng)]);
            }
        }
        for _ in 0..30 {
            d.push(&[rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0)]);
        }
        d
    }

    fn run(data: &Dataset, eps: f64, min_pts: usize) -> ScpResult {
        let idx = LinearScan::new(data, Euclidean);
        dbscan_with_scp(data, &idx, &DbscanParams::new(eps, min_pts))
    }

    #[test]
    fn clustering_identical_to_plain_dbscan() {
        let d = gaussian_blobs(5);
        let idx = LinearScan::new(&d, Euclidean);
        let params = DbscanParams::new(0.7, 5);
        let plain = dbscan(&d, &idx, &params);
        let scp = dbscan_with_scp(&d, &idx, &params);
        assert_eq!(plain.clustering, scp.dbscan.clustering);
        assert_eq!(plain.core, scp.dbscan.core);
    }

    #[test]
    fn scp_are_core_points_of_their_cluster() {
        let d = gaussian_blobs(6);
        let r = run(&d, 0.7, 5);
        for (c, list) in r.scp.iter().enumerate() {
            assert!(!list.is_empty(), "cluster {c} must have representatives");
            for s in list {
                assert!(r.dbscan.core[s.point as usize], "scp must be core");
                assert_eq!(
                    r.dbscan.clustering.label(s.point).cluster(),
                    Some(c as u32),
                    "scp must belong to its cluster"
                );
            }
        }
    }

    #[test]
    fn definitions_6_and_7_hold_on_both_paths() {
        let d = gaussian_blobs(7);
        let idx = LinearScan::new(&d, Euclidean);
        for (eps, min_pts) in [(0.7, 5), (0.3, 3), (2.0, 8)] {
            let params = DbscanParams::new(eps, min_pts);
            let cells = dbscan_with_scp_on_cells(&d, &idx, &params).expect("2-D fits the cells");
            let plain = dbscan(&d, &idx, &params);
            let scp = select_specific_core_points(&d, &plain.clustering, &plain.core, eps, &idx);
            for r in [&cells, &ScpResult { dbscan: plain, scp }] {
                check_specific_core_points(&d, r, eps, &idx.predicate()).unwrap();
                assert_eq!(r.scp, cells.scp, "eps {eps}");
            }
        }
    }

    #[test]
    fn the_model_does_not_depend_on_the_index() {
        let d = gaussian_blobs(8);
        let params = DbscanParams::new(0.7, 5);
        let reference = run(&d, 0.7, 5);
        for kind in dbdc_index::IndexKind::ALL {
            let idx = dbdc_index::build_index(kind, &d, Euclidean, 0.7);
            assert_eq!(
                dbscan_with_scp(&d, idx.as_ref(), &params),
                reference,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn checker_rejects_broken_models() {
        let d = gaussian_blobs(9);
        let eps = 0.7;
        let idx = LinearScan::new(&d, Euclidean);
        let good = run(&d, eps, 5);
        let pred = idx.predicate();
        let big = (0..good.scp.len())
            .max_by_key(|&c| good.scp[c].len())
            .expect("clusters");
        assert!(good.scp[big].len() > 1);

        let mut dropped = good.clone();
        dropped.scp[big].pop();
        assert!(check_specific_core_points(&d, &dropped, eps, &pred).is_err());

        let mut widened = good.clone();
        widened.scp[big][0].eps_range = f64::from_bits(widened.scp[big][0].eps_range.to_bits() + 1);
        assert!(check_specific_core_points(&d, &widened, eps, &pred).is_err());

        // A core point within ε of the first specific core point.
        let first = good.scp[big][0].point;
        let close = (0..d.len() as u32)
            .find(|&q| {
                q != first
                    && good.dbscan.core[q as usize]
                    && pred.within(d.point(first), d.point(q), eps)
            })
            .expect("a covered core point");
        let mut crowded = good.clone();
        crowded.scp[big].push(SpecificCorePoint {
            point: close,
            eps_range: good.scp[big][0].eps_range,
        });
        assert!(check_specific_core_points(&d, &crowded, eps, &pred).is_err());
    }

    #[test]
    fn every_cluster_member_covered_by_some_scp_range() {
        // The coverage property Section 7 relies on: every object of a local
        // cluster lies within ε_s of some specific core point of its
        // cluster. (Border points are within Eps of a core point c, c is
        // within Eps of a scp s, and ε_s >= Eps + dist(c, s).)
        let d = gaussian_blobs(10);
        let eps = 0.7;
        let r = run(&d, eps, 5);
        for i in 0..d.len() as u32 {
            if let Some(c) = r.dbscan.clustering.label(i).cluster() {
                let covered = r.scp[c as usize]
                    .iter()
                    .any(|s| Euclidean.dist(d.point(s.point), d.point(i)) <= s.eps_range + 1e-12);
                assert!(covered, "cluster member {i} not covered by any scp ε-range");
            }
        }
    }

    #[test]
    fn representative_count_much_smaller_than_data() {
        let d = gaussian_blobs(11);
        let r = run(&d, 0.7, 5);
        let n_rep = r.n_representatives();
        assert!(n_rep > 0);
        assert!(
            n_rep * 3 < d.len(),
            "representatives ({n_rep}) should be a small fraction of n ({})",
            d.len()
        );
    }

    #[test]
    fn empty_and_all_noise() {
        let d = Dataset::new(2);
        let r = run(&d, 1.0, 3);
        assert!(r.scp.is_empty());
        assert_eq!(r.n_representatives(), 0);

        let mut sparse = Dataset::new(2);
        for i in 0..5 {
            sparse.push(&[i as f64 * 100.0, 0.0]);
        }
        let r = run(&sparse, 1.0, 3);
        assert!(r.scp.is_empty());
        assert_eq!(r.dbscan.clustering.n_noise(), 5);
    }

    #[test]
    fn dense_single_cluster_one_scp_when_tiny() {
        // All points within eps of the lowest-id core point -> exactly one
        // specific core point.
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(&[i as f64 * 0.01, 0.0]);
        }
        let r = run(&d, 1.0, 3);
        assert_eq!(r.dbscan.clustering.n_clusters(), 1);
        assert_eq!(r.scp[0].len(), 1);
    }
}
