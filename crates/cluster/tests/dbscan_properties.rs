//! Property-based tests of the DBSCAN definitions (paper Definitions 1-5)
//! over randomly generated datasets: whatever the data, the result must be
//! a valid density-based clustering. The enhanced DBSCAN must satisfy
//! Definitions 6 and 7 and give `dbscan`'s labels on both of its paths:
//! the cell path (forced here whatever the dense share) and the index
//! path.

use dbdc_cluster::scp::dbscan_with_scp_on_cells;
use dbdc_cluster::{
    check_specific_core_points, dbscan, dbscan_with_scp, select_specific_core_points, DbscanParams,
    ScpResult,
};
use dbdc_geom::{Dataset, Euclidean};
use dbdc_index::{LinearScan, NeighborIndex};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // A mix of clumps (many points near a few centers) and background.
    (
        prop::collection::vec(((0.0..30.0f64, 0.0..30.0f64), 3..25usize), 1..4),
        prop::collection::vec((0.0..30.0f64, 0.0..30.0f64), 0..15),
    )
        .prop_map(|(clumps, background)| {
            let mut d = Dataset::new(2);
            for ((cx, cy), n) in clumps {
                for i in 0..n {
                    let t = i as f64;
                    d.push(&[cx + (t * 0.7).sin() * 0.8, cy + (t * 1.1).cos() * 0.8]);
                }
            }
            for (x, y) in background {
                d.push(&[x, y]);
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The DBSCAN validity invariants hold on arbitrary data:
    /// 1. core flags match the definition exactly;
    /// 2. clustered non-core points touch a core point of their cluster;
    /// 3. noise points have no core point within eps;
    /// 4. two core points within eps share a cluster (density connectivity).
    #[test]
    fn dbscan_output_is_valid(data in arb_dataset(), eps in 0.5..3.0f64, min_pts in 2usize..7) {
        let idx = LinearScan::new(&data, Euclidean);
        let params = DbscanParams::new(eps, min_pts);
        let r = dbscan(&data, &idx, &params);

        for i in 0..data.len() as u32 {
            let neighbors = idx.range_vec(data.point(i), eps);
            // 1. Core definition.
            prop_assert_eq!(
                r.core[i as usize],
                neighbors.len() >= min_pts,
                "core flag mismatch at {}", i
            );
            match r.clustering.label(i).cluster() {
                Some(c) => {
                    if !r.core[i as usize] {
                        // 2. Border points are density-reachable.
                        prop_assert!(
                            neighbors.iter().any(|&q| r.core[q as usize]
                                && r.clustering.label(q).cluster() == Some(c)),
                            "border {} has no core neighbor in its cluster", i
                        );
                    }
                }
                None => {
                    // 3. Noise is not reachable from any core.
                    prop_assert!(
                        neighbors.iter().all(|&q| !r.core[q as usize]),
                        "noise {} within eps of a core point", i
                    );
                }
            }
            // 4. Core-core neighbors share a cluster.
            if r.core[i as usize] {
                for &q in &neighbors {
                    if r.core[q as usize] {
                        prop_assert_eq!(
                            r.clustering.label(i).cluster(),
                            r.clustering.label(q).cluster(),
                            "connected cores {} and {} split", i, q
                        );
                    }
                }
            }
        }
    }

    /// The specific-core-point construction satisfies Definition 6 (subset
    /// of cores, pairwise separation, coverage) and Definition 7 (exact
    /// ε-ranges) on arbitrary data, on whichever path the data selects,
    /// on the forced cell path and on the index path, and all three
    /// choose the same model.
    #[test]
    fn scp_invariants_hold(data in arb_dataset(), eps in 0.5..3.0f64, min_pts in 2usize..7) {
        let idx = LinearScan::new(&data, Euclidean);
        let params = DbscanParams::new(eps, min_pts);
        let auto = dbscan_with_scp(&data, &idx, &params);
        let cells = dbscan_with_scp_on_cells(&data, &idx, &params).expect("2-D data fits the cells");
        let by_index = index_path(&data, &idx, &params);
        for r in [&auto, &cells, &by_index] {
            prop_assert_eq!(check_specific_core_points(&data, r, eps, &idx.predicate()), Ok(()));
            for s in r.scp.iter().flatten() {
                prop_assert!(s.eps_range >= eps && s.eps_range <= 2.0 * eps);
            }
            prop_assert_eq!(&r.scp, &by_index.scp);
            prop_assert_eq!(&r.dbscan.clustering, &by_index.dbscan.clustering);
            prop_assert_eq!(&r.dbscan.core, &by_index.dbscan.core);
        }
        prop_assert_eq!(cells.dbscan.range_queries, 0);
    }

    /// The cell path gives exactly `dbscan`'s labels and core flags over
    /// a `LinearScan` in 1, 2 and 3 dimensions, with negative
    /// coordinates, duplicate points and lattice points exactly ε apart
    /// across cell borders.
    #[test]
    fn cell_path_equals_dbscan(
        (data, eps) in arb_lattice_dataset(),
        min_pts in 1usize..8,
    ) {
        let idx = LinearScan::new(&data, Euclidean);
        let params = DbscanParams::new(eps, min_pts);
        let oracle = dbscan(&data, &idx, &params);
        let cells = dbscan_with_scp_on_cells(&data, &idx, &params).expect("the data fits the cells");
        prop_assert_eq!(&cells.dbscan.clustering, &oracle.clustering);
        prop_assert_eq!(&cells.dbscan.core, &oracle.core);
        prop_assert_eq!(check_specific_core_points(&data, &cells, eps, &idx.predicate()), Ok(()));
        prop_assert_eq!(&cells.scp, &index_path(&data, &idx, &params).scp);
    }
}

/// The index path, composed from its parts: plain DBSCAN plus the
/// id-order selection.
fn index_path(data: &Dataset, idx: &dyn NeighborIndex, params: &DbscanParams) -> ScpResult {
    let dbscan = dbscan(data, idx, params);
    let scp = select_specific_core_points(data, &dbscan.clustering, &dbscan.core, params.eps, idx);
    ScpResult { dbscan, scp }
}

/// Points of dimension 1 to 3 on a lattice of spacing ε/2 around
/// negative and positive centres, some repeated, plus jittered points.
/// With ε a power of two, lattice neighbours two steps apart are exactly
/// ε apart, and the cell side ε/√d·(1 − 10⁻⁶) puts many of those pairs
/// in different cells.
fn arb_lattice_dataset() -> impl Strategy<Value = (Dataset, f64)> {
    (1usize..4, 0usize..3).prop_flat_map(|(dim, eps_exp)| {
        let eps = [0.5, 1.0, 2.0][eps_exp];
        (
            prop::collection::vec((prop::collection::vec(-12i64..12, dim), 1..4usize), 1..30),
            prop::collection::vec(prop::collection::vec(-6.0..6.0f64, dim), 0..20),
        )
            .prop_map(move |(lattice, jitter)| {
                let mut d = Dataset::new(dim);
                for (k, copies) in lattice {
                    let p: Vec<f64> = k.iter().map(|&k| k as f64 * eps / 2.0).collect();
                    for _ in 0..copies {
                        d.push(&p);
                    }
                }
                for p in jitter {
                    d.push(&p);
                }
                (d, eps)
            })
    })
}

#[test]
fn pairs_exactly_eps_apart_across_cell_borders() {
    // Integer points 1.0 apart at ε = 1.0: every pair of lattice
    // neighbours sits exactly at ε, and cells of side ~0.707 split them.
    for dim in 1..=3 {
        let mut d = Dataset::new(dim);
        for i in 0..4 {
            for j in 0..3 {
                let mut p = vec![0.0; dim];
                p[0] = i as f64 - 2.0;
                p[dim - 1] += j as f64;
                d.push(&p);
            }
        }
        let idx = LinearScan::new(&d, Euclidean);
        for min_pts in 1..6 {
            let params = DbscanParams::new(1.0, min_pts);
            let oracle = dbscan(&d, &idx, &params);
            let cells = dbscan_with_scp_on_cells(&d, &idx, &params).expect("cells");
            assert_eq!(
                cells.dbscan.clustering, oracle.clustering,
                "dim {dim} MinPts {min_pts}"
            );
            assert_eq!(cells.dbscan.core, oracle.core, "dim {dim} MinPts {min_pts}");
            check_specific_core_points(&d, &cells, 1.0, &idx.predicate()).unwrap();
        }
    }
}

#[test]
fn extent_too_wide_for_cell_keys_takes_the_index_path() {
    // 2^26 cells per axis bound the keys; these sites need far more (the
    // last one's extent overflows an f64 to infinity).
    let sites = [
        (vec![0.0, 0.0, 0.001, 0.0, 1e5, 0.0, 1e5, 0.001], 1e-3),
        (vec![-1e308, 0.0, -1e308, 1.0, 1e308, 0.0, 1e308, 1.0], 2.0),
    ];
    for (flat, eps) in sites {
        let d = Dataset::from_flat(2, flat);
        let idx = LinearScan::new(&d, Euclidean);
        let params = DbscanParams::new(eps, 2);
        assert!(dbscan_with_scp_on_cells(&d, &idx, &params).is_none());
        let r = dbscan_with_scp(&d, &idx, &params);
        let oracle = dbscan(&d, &idx, &params);
        assert_eq!(r.dbscan.clustering, oracle.clustering);
        assert_eq!(r.dbscan.core, oracle.core);
        assert_eq!(r.dbscan.range_queries, d.len() + r.n_representatives());
        check_specific_core_points(&d, &r, eps, &idx.predicate()).unwrap();
    }
}
