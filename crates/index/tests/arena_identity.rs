//! Property-based construction-identity gate: on arbitrary data, the
//! parallel arena builders must produce bit-for-bit the sequential
//! arenas at every thread count, for all three flat-arena backends.
//! `arena_bits()` serializes node pools, bounds, id arenas, and the
//! SoA coordinate blocks (f64 and f32 alike) via `to_bits`, so any
//! divergence — a reordered subtree, a rebased offset off by one, a
//! narrowing applied in a different order — fails the equality.

use dbdc_geom::{Dataset, Euclidean, Precision};
use dbdc_index::{GridIndex, KdTree, NeighborIndex, RStarTree};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 0..400),
        1.0..6.0f64,
    )
        .prop_map(|(pts, stretch)| {
            let mut d = Dataset::new(2);
            for (x, y) in pts {
                d.push(&[x * stretch, y]);
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// kd-tree arenas are bit-identical across thread counts, under
    /// both precisions.
    #[test]
    fn kdtree_arenas_bit_identical(data in arb_dataset()) {
        for precision in [Precision::F64, Precision::F32] {
            let seq = KdTree::with_options(&data, Euclidean, 1, precision);
            for threads in [2usize, 3, 8] {
                let par = KdTree::with_options(&data, Euclidean, threads, precision);
                prop_assert_eq!(seq.arena_bits(), par.arena_bits(),
                    "kd arenas differ at {} threads ({:?})", threads, precision);
            }
        }
    }

    /// R*-tree flat arenas are bit-identical across thread counts,
    /// under both precisions, and kNN answers (ids and distance bits)
    /// are identical for every `(threads, precision)` build: kNN reads
    /// exact f64 distances, never the narrowed leaf blocks.
    #[test]
    fn rstar_arenas_bit_identical(data in arb_dataset()) {
        let knn_bits = |tree: &RStarTree<'_, Euclidean>| -> Vec<(u32, u64)> {
            [[0.0, 0.0], [37.5, -12.25], [-200.0, 90.0]]
                .iter()
                .flat_map(|q| tree.knn(q, 7))
                .map(|(i, d)| (i, d.to_bits()))
                .collect()
        };
        let oracle = knn_bits(&RStarTree::bulk_load(&data, Euclidean));
        for precision in [Precision::F64, Precision::F32] {
            let seq = RStarTree::bulk_load_opts(&data, Euclidean, 1, precision);
            for threads in [1usize, 2, 3, 8] {
                let par = RStarTree::bulk_load_opts(&data, Euclidean, threads, precision);
                prop_assert_eq!(seq.arena_bits(), par.arena_bits(),
                    "r* arenas differ at {} threads ({:?})", threads, precision);
                prop_assert_eq!(&oracle, &knn_bits(&par),
                    "r* knn differs at {} threads ({:?})", threads, precision);
            }
        }
    }

    /// Grid cell-table and packed arenas are bit-identical across
    /// thread counts, under both precisions.
    #[test]
    fn grid_arenas_bit_identical(data in arb_dataset(), cell in 0.5..10.0f64) {
        for precision in [Precision::F64, Precision::F32] {
            let seq = GridIndex::with_options(&data, Euclidean, cell, 1, precision);
            for threads in [2usize, 3, 8] {
                let par = GridIndex::with_options(&data, Euclidean, cell, threads, precision);
                prop_assert_eq!(seq.arena_bits(), par.arena_bits(),
                    "grid arenas differ at {} threads ({:?})", threads, precision);
            }
        }
    }
}
