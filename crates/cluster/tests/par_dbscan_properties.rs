//! Property-based determinism check for the parallel execution layer:
//! on arbitrary data and parameters, `par_dbscan` must produce exactly
//! the sequential `dbscan` output at every thread count, and
//! `par_dbscan_with_scp` the exact `dbscan_with_scp` output, in `f64`
//! and in `f32`, with Definitions 6 and 7 holding under the index's own
//! predicate.

use dbdc_cluster::{
    check_specific_core_points, dbscan, dbscan_with_scp, par_dbscan, par_dbscan_with_scp,
    partitioned_dbscan_with_scp, DbscanParams,
};
use dbdc_geom::{Dataset, Euclidean, Precision};
use dbdc_index::{build_index, build_index_opts, BuildOptions, IndexKind};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // Same shape as dbscan_properties: clumps plus uniform background.
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Labels, core flags, and query counts are identical to the
    /// sequential algorithm at 1, 2, and 8 threads on every backend.
    #[test]
    fn parallel_labels_equal_sequential(
        data in arb_dataset(),
        eps in 0.5..3.0f64,
        min_pts in 2usize..7,
    ) {
        let params = DbscanParams::new(eps, min_pts);
        // The sequential LinearScan run is the oracle every (backend,
        // thread-count) combination must reproduce label-for-label — it
        // is the one backend with no tree, no arena, and no batching.
        let oracle_idx = build_index(IndexKind::Linear, &data, dbdc_geom::Euclidean, eps);
        let oracle = dbscan(&data, oracle_idx.as_ref(), &params);
        for kind in IndexKind::ALL {
            let idx = build_index(kind, &data, dbdc_geom::Euclidean, eps);
            let seq = dbscan(&data, idx.as_ref(), &params);
            prop_assert_eq!(&oracle.clustering, &seq.clustering,
                "labels differ from LinearScan oracle ({:?})", kind);
            prop_assert_eq!(&oracle.core, &seq.core,
                "core flags differ from LinearScan oracle ({:?})", kind);
            for threads in [1usize, 2, 8] {
                let par = par_dbscan(&data, idx.as_ref(), &params, threads);
                prop_assert_eq!(&seq.clustering, &par.clustering,
                    "labels differ ({:?}, {} threads)", kind, threads);
                prop_assert_eq!(&seq.core, &par.core,
                    "core flags differ ({:?}, {} threads)", kind, threads);
                prop_assert_eq!(seq.range_queries, par.range_queries,
                    "query count differs ({:?}, {} threads)", kind, threads);
            }
        }
    }

    /// The scp-extracting variant replays the sequential selection
    /// exactly: identical specific core points, ε-ranges, and accounting.
    #[test]
    fn parallel_scp_equals_sequential(
        data in arb_dataset(),
        eps in 0.5..3.0f64,
        min_pts in 2usize..7,
    ) {
        let params = DbscanParams::new(eps, min_pts);
        let idx = build_index(IndexKind::RStar, &data, dbdc_geom::Euclidean, eps);
        let seq = dbscan_with_scp(&data, idx.as_ref(), &params);
        prop_assert_eq!(
            check_specific_core_points(&data, &seq, eps, &idx.predicate()), Ok(()));
        for threads in [1usize, 2, 8] {
            let par = par_dbscan_with_scp(&data, idx.as_ref(), &params, threads);
            prop_assert_eq!(&seq.scp, &par.scp, "scp differ at {} threads", threads);
            prop_assert_eq!(&seq.dbscan.clustering, &par.dbscan.clustering,
                "labels differ at {} threads", threads);
            prop_assert_eq!(&seq.dbscan.core, &par.dbscan.core,
                "core flags differ at {} threads", threads);
            prop_assert_eq!(seq.dbscan.range_queries, par.dbscan.range_queries,
                "query count differs at {} threads", threads);
        }
    }

    /// Under `f32` scan precision every site stays on the index path, and
    /// the sequential, parallel and partitioned drivers still agree and
    /// satisfy Definitions 6 and 7 under the `f32` predicate.
    #[test]
    fn f32_drivers_agree_and_satisfy_definitions_6_and_7(
        data in arb_dataset(),
        eps in 0.5..3.0f64,
        min_pts in 2usize..7,
    ) {
        let params = DbscanParams::new(eps, min_pts);
        let opts = BuildOptions { threads: 1, precision: Precision::F32 };
        let idx = build_index_opts(IndexKind::RStar, &data, Euclidean, eps, opts, None, None);
        let seq = dbscan_with_scp(&data, idx.as_ref(), &params);
        prop_assert_eq!(seq.dbscan.range_queries, data.len() + seq.n_representatives());
        prop_assert_eq!(
            check_specific_core_points(&data, &seq, eps, &idx.predicate()), Ok(()));
        prop_assert_eq!(&par_dbscan_with_scp(&data, idx.as_ref(), &params, 2), &seq);
        for partitions in [2usize, 4] {
            let (part, _) = partitioned_dbscan_with_scp(
                &data, IndexKind::RStar, &params, partitions, 2, Precision::F32, None, None,
            );
            prop_assert_eq!(&part, &seq, "{} partitions", partitions);
        }
    }
}
