//! Property-based identity check for the partitioned local phase: on
//! arbitrary data and parameters, `partitioned_dbscan` must produce
//! exactly the sequential `dbscan` output on every backend, at every
//! thread count, at every partition count — including halo-heavy ε
//! settings where the stripes overlap almost entirely — and
//! `partitioned_dbscan_with_scp` exactly the `dbscan_with_scp` result.

use dbdc_cluster::{
    check_specific_core_points, dbscan, dbscan_with_scp, partitioned_dbscan,
    partitioned_dbscan_with_scp, DbscanParams,
};
use dbdc_geom::{Dataset, Precision};
use dbdc_index::{build_index, IndexKind};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // Clumps plus uniform background, with an anisotropic stretch so
    // the widest-spread axis the striper picks is not always the same.
    (
        prop::collection::vec(((0.0..30.0f64, 0.0..30.0f64), 3..25usize), 1..4),
        prop::collection::vec((0.0..30.0f64, 0.0..30.0f64), 0..15),
        1.0..5.0f64,
        prop::bool::ANY,
    )
        .prop_map(|(clumps, background, stretch, flip)| {
            let mut d = Dataset::new(2);
            let mut push = |x: f64, y: f64| {
                if flip {
                    d.push(&[x, y * stretch]);
                } else {
                    d.push(&[x * stretch, y]);
                }
            };
            for ((cx, cy), n) in clumps {
                for i in 0..n {
                    let t = i as f64;
                    push(cx + (t * 0.7).sin() * 0.8, cy + (t * 1.1).cos() * 0.8);
                }
            }
            for (x, y) in background {
                push(x, y);
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Labels, core flags, and neighbor accounting are identical to the
    /// sequential algorithm on every backend × 1/2/8 threads × 1/2/4
    /// partitions.
    #[test]
    fn partitioned_labels_equal_sequential(
        data in arb_dataset(),
        eps in 0.5..3.0f64,
        min_pts in 2usize..7,
    ) {
        let params = DbscanParams::new(eps, min_pts);
        for kind in IndexKind::ALL {
            let idx = build_index(kind, &data, dbdc_geom::Euclidean, eps);
            let seq = dbscan(&data, idx.as_ref(), &params);
            for threads in [1usize, 2, 8] {
                for partitions in [1usize, 2, 4] {
                    let (part, stats) = partitioned_dbscan(
                        &data, kind, &params, partitions, threads, Precision::F64,
                    );
                    prop_assert_eq!(&seq.clustering, &part.clustering,
                        "labels differ ({:?}, {} threads, {} partitions)",
                        kind, threads, partitions);
                    prop_assert_eq!(&seq.core, &part.core,
                        "core flags differ ({:?}, {} threads, {} partitions)",
                        kind, threads, partitions);
                    prop_assert_eq!(stats.partitions, partitions.min(data.len().max(1)),
                        "partition count not honored");
                }
            }
        }
    }

    /// The partitioned enhanced DBSCAN returns exactly the sequential
    /// `ScpResult` (labels, core flags, query count and specific core
    /// points) on every backend at 1/2/4 partitions, and it satisfies
    /// Definitions 6 and 7.
    #[test]
    fn partitioned_scp_equals_sequential(
        data in arb_dataset(),
        eps in 0.5..3.0f64,
        min_pts in 2usize..7,
    ) {
        let params = DbscanParams::new(eps, min_pts);
        for kind in IndexKind::ALL {
            let idx = build_index(kind, &data, dbdc_geom::Euclidean, eps);
            let seq = dbscan_with_scp(&data, idx.as_ref(), &params);
            prop_assert_eq!(
                check_specific_core_points(&data, &seq, eps, &idx.predicate()), Ok(()));
            for partitions in [1usize, 2, 4] {
                let (part, _) = partitioned_dbscan_with_scp(
                    &data, kind, &params, partitions, 2, Precision::F64, None, None,
                );
                prop_assert_eq!(&part, &seq,
                    "ScpResult differs ({:?}, {} partitions)", kind, partitions);
            }
        }
    }

    /// Halo-heavy regime: ε comparable to the whole spread, so every
    /// stripe's halo swallows most of its neighbors' points. The merge
    /// must still reproduce the sequential labels exactly, and the halo
    /// accounting must cover the replication.
    #[test]
    fn halo_heavy_partitions_equal_sequential(
        data in arb_dataset(),
        eps in 8.0..20.0f64,
        min_pts in 2usize..5,
    ) {
        let params = DbscanParams::new(eps, min_pts);
        let idx = build_index(IndexKind::RStar, &data, dbdc_geom::Euclidean, eps);
        let seq = dbscan(&data, idx.as_ref(), &params);
        for partitions in [2usize, 4] {
            let (part, stats) = partitioned_dbscan(
                &data, IndexKind::RStar, &params, partitions, 2, Precision::F64,
            );
            prop_assert_eq!(&seq.clustering, &part.clustering,
                "labels differ at {} halo-heavy partitions", partitions);
            prop_assert_eq!(&seq.core, &part.core,
                "core flags differ at {} halo-heavy partitions", partitions);
            // With ε this large the stripes overlap: some replication
            // must actually have happened (unless everything fit in one
            // clamped stripe).
            if stats.partitions > 1 && data.len() > stats.partitions {
                prop_assert!(stats.halo_points > 0,
                    "ε {} produced no halo over {} points", eps, data.len());
            }
        }
    }
}
