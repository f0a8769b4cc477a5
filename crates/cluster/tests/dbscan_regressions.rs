//! Pinned former proptest failures, replayed as plain tests.
//!
//! The dataset below is the checked-in case from
//! `dbscan_properties.proptest-regressions`, kept as an explicit test so
//! it runs on every backend regardless of which proptest implementation
//! (and persistence mechanism) the workspace builds against.

use dbdc_cluster::{dbscan, dbscan_with_scp, par_dbscan, par_dbscan_with_scp, DbscanParams};
use dbdc_geom::{Dataset, Euclidean, Metric};
use dbdc_index::{build_index, IndexKind};

/// 12 points on the unit disc; with eps = 0.5, min_pts = 3 this produces a
/// mix of core, border, and noise points with several near-eps pair
/// distances, which is what made it a good boundary-semantics probe.
fn regression_dataset() -> Dataset {
    let pts: [[f64; 2]; 12] = [
        [0.0, 0.8],
        [0.5153741497901528, 0.3628768971404619],
        [0.7883597839907681, -0.4708008938042767],
        [0.6905674933190992, -0.789983815927092],
        [0.2679905201247241, -0.2458662959827355],
        [-0.2806265821516959, 0.566935819433008],
        [-0.6972606179308702, 0.7601860735668234],
        [-0.7859620900994662, 0.12269908963029078],
        [-0.5050133102978573, -0.6488744112493249],
        [0.013451120387479771, -0.7113529221002888],
        [0.5255892789750313, 0.0035405583904406287],
        [0.7905345871016003, 0.7145648892074586],
    ];
    let mut d = Dataset::new(2);
    for p in &pts {
        d.push(p);
    }
    d
}

const EPS: f64 = 0.5;
const MIN_PTS: usize = 3;

#[test]
fn pinned_case_is_valid_on_every_index_backend() {
    let data = regression_dataset();
    let params = DbscanParams::new(EPS, MIN_PTS);

    let mut reference = None;
    for kind in IndexKind::ALL {
        let idx = build_index(kind, &data, Euclidean, EPS);
        let r = dbscan(&data, idx.as_ref(), &params);

        for i in 0..data.len() as u32 {
            let neighbors = idx.range_vec(data.point(i), EPS);
            assert_eq!(
                r.core[i as usize],
                neighbors.len() >= MIN_PTS,
                "[{kind:?}] core flag mismatch at {i}"
            );
            match r.clustering.label(i).cluster() {
                Some(c) => {
                    if !r.core[i as usize] {
                        assert!(
                            neighbors.iter().any(|&q| r.core[q as usize]
                                && r.clustering.label(q).cluster() == Some(c)),
                            "[{kind:?}] border {i} has no core neighbor in its cluster"
                        );
                    }
                }
                None => {
                    assert!(
                        neighbors.iter().all(|&q| !r.core[q as usize]),
                        "[{kind:?}] noise {i} within eps of a core point"
                    );
                }
            }
            if r.core[i as usize] {
                for &q in &neighbors {
                    if r.core[q as usize] {
                        assert_eq!(
                            r.clustering.label(i).cluster(),
                            r.clustering.label(q).cluster(),
                            "[{kind:?}] connected cores {i} and {q} split"
                        );
                    }
                }
            }
        }

        // Every backend must agree exactly — the index choice is a pure
        // performance knob.
        match &reference {
            None => reference = Some(r),
            Some(base) => {
                assert_eq!(base.clustering, r.clustering, "[{kind:?}] labels differ");
                assert_eq!(base.core, r.core, "[{kind:?}] core flags differ");
            }
        }
    }
}

#[test]
fn pinned_case_scp_invariants_hold() {
    let data = regression_dataset();
    let params = DbscanParams::new(EPS, MIN_PTS);
    for kind in IndexKind::ALL {
        let idx = build_index(kind, &data, Euclidean, EPS);
        let r = dbscan_with_scp(&data, idx.as_ref(), &params);
        for (c, list) in r.scp.iter().enumerate() {
            for (i, a) in list.iter().enumerate() {
                assert!(r.dbscan.core[a.point as usize]);
                assert_eq!(r.dbscan.clustering.label(a.point).cluster(), Some(c as u32));
                assert!(a.eps_range >= EPS - 1e-12);
                assert!(a.eps_range <= 2.0 * EPS + 1e-12);
                for b in &list[i + 1..] {
                    assert!(
                        Euclidean.dist(data.point(a.point), data.point(b.point)) > EPS,
                        "[{kind:?}] scp separation violated in cluster {c}"
                    );
                }
            }
        }
        for i in 0..data.len() as u32 {
            if r.dbscan.core[i as usize] {
                let c = r.dbscan.clustering.label(i).cluster().unwrap() as usize;
                assert!(
                    r.scp[c]
                        .iter()
                        .any(|s| Euclidean.dist(data.point(s.point), data.point(i)) <= EPS),
                    "[{kind:?}] core {i} uncovered"
                );
            }
        }
    }
}

/// Larger deterministic dataset (xorshift; ~300 points in three density
/// regimes) exercising deep kd/R* trees, so the flattened arena
/// traversals — not just tiny two-level trees — are held to the
/// LinearScan oracle label-for-label.
fn oracle_dataset() -> Dataset {
    let mut d = Dataset::new(2);
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 10_000) as f64 / 10_000.0
    };
    // Three dense blobs ...
    for (cx, cy) in [(2.0, 2.0), (8.0, 3.0), (5.0, 9.0)] {
        for _ in 0..80 {
            d.push(&[cx + next() * 1.2, cy + next() * 1.2]);
        }
    }
    // ... plus sparse background noise.
    for _ in 0..60 {
        d.push(&[next() * 12.0, next() * 12.0]);
    }
    d
}

#[test]
fn flattened_backends_match_linear_oracle_label_for_label() {
    let data = oracle_dataset();
    let params = DbscanParams::new(0.4, 4);
    let linear = build_index(IndexKind::Linear, &data, Euclidean, params.eps);
    let oracle = dbscan(&data, linear.as_ref(), &params);
    let oracle_scp = dbscan_with_scp(&data, linear.as_ref(), &params);
    assert!(oracle.clustering.n_clusters() >= 3, "dataset must cluster");

    for kind in [IndexKind::Grid, IndexKind::KdTree, IndexKind::RStar] {
        let idx = build_index(kind, &data, Euclidean, params.eps);
        let r = dbscan(&data, idx.as_ref(), &params);
        assert_eq!(oracle.clustering, r.clustering, "[{kind:?}] labels");
        assert_eq!(oracle.core, r.core, "[{kind:?}] core flags");
        // Specific core points are selected in ascending id whatever the
        // backend's neighbor order, so every backend and thread count
        // chooses the linear scan's model.
        let seq_scp = dbscan_with_scp(&data, idx.as_ref(), &params);
        assert_eq!(oracle_scp, seq_scp, "[{kind:?}] scp");
        for threads in [1, 2, 8] {
            let par = par_dbscan(&data, idx.as_ref(), &params, threads);
            assert_eq!(
                oracle.clustering, par.clustering,
                "[{kind:?}] labels, threads={threads}"
            );
            assert_eq!(oracle.core, par.core, "[{kind:?}] core, threads={threads}");
            let par_scp = par_dbscan_with_scp(&data, idx.as_ref(), &params, threads);
            assert_eq!(
                seq_scp.scp, par_scp.scp,
                "[{kind:?}] scp, threads={threads}"
            );
        }
    }
}

#[test]
fn pinned_case_parallel_matches_sequential() {
    let data = regression_dataset();
    let params = DbscanParams::new(EPS, MIN_PTS);
    for kind in IndexKind::ALL {
        let idx = build_index(kind, &data, Euclidean, EPS);
        let seq = dbscan(&data, idx.as_ref(), &params);
        let seq_scp = dbscan_with_scp(&data, idx.as_ref(), &params);
        for threads in [1, 2, 8] {
            let par = par_dbscan(&data, idx.as_ref(), &params, threads);
            assert_eq!(
                seq.clustering, par.clustering,
                "[{kind:?}] threads={threads}"
            );
            assert_eq!(seq.core, par.core, "[{kind:?}] threads={threads}");
            let par_scp = par_dbscan_with_scp(&data, idx.as_ref(), &params, threads);
            assert_eq!(seq_scp.scp, par_scp.scp, "[{kind:?}] threads={threads}");
            assert_eq!(
                seq_scp.dbscan.clustering, par_scp.dbscan.clustering,
                "[{kind:?}] threads={threads}"
            );
        }
    }
}
