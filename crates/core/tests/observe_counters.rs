//! Counter ground truth: a recorded DBDC run over the linear-scan
//! backend must report exactly the work the protocol's algorithms are
//! known to do — one distance evaluation per point per range query, one
//! range query per point plus the SCP finalization queries, the
//! specific-core-point selection's own distances, the server's R*-tree
//! work as an independent recount, and wire byte counts equal to the real
//! encoded message sizes. A site on the cell path issues no range query
//! and counts the same distances whatever its index.

use std::sync::Arc;

use dbdc::{run_dbdc, run_dbdc_with, DbdcParams, EpsGlobal, Partitioner};
use dbdc_cluster::{dbscan, dbscan_with_scp, DbscanParams, ScpResult};
use dbdc_geom::{Dataset, Euclidean};
use dbdc_index::{IndexKind, LinearScan, NeighborIndex, RStarTree};
use dbdc_obs::{CounterSheet, NoopRecorder, RecordingRecorder};

const N_SITES: usize = 3;

fn params() -> DbdcParams {
    DbdcParams::new(1.6, 5)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
        .with_index(IndexKind::Linear)
}

/// Distances the id-order selection computes next to the index, recounted
/// from its documented rule. Cover tests (only when `scans_scors`, the
/// sequential index path): a core point tests its cluster's earlier
/// specific core points in ascending id up to the first one within ε, or
/// all of them if it becomes one itself. Definition 7: one distance per
/// core point within ε of each specific core point.
fn selection_evals(data: &Dataset, r: &ScpResult, eps: f64, scans_scors: bool) -> u64 {
    let oracle = LinearScan::new(data, Euclidean);
    let within = |a: u32, b: u32| oracle.predicate().within(data.point(a), data.point(b), eps);
    let mut evals = 0u64;
    for p in (0..data.len() as u32).filter(|&p| r.dbscan.core[p as usize]) {
        let c = r.dbscan.clustering.label(p).cluster().expect("core") as usize;
        let earlier: Vec<u32> = r.scp[c]
            .iter()
            .map(|s| s.point)
            .take_while(|&s| s < p)
            .collect();
        if scans_scors {
            evals += match earlier.iter().position(|&s| within(s, p)) {
                Some(i) => i as u64 + 1,
                None => earlier.len() as u64,
            };
        }
    }
    for s in r.scp.iter().flatten() {
        evals += (0..data.len() as u32)
            .filter(|&q| r.dbscan.core[q as usize] && within(s.point, q))
            .count() as u64;
    }
    evals
}

fn partitioned(data: &Dataset) -> Vec<Dataset> {
    let p = Partitioner::RandomEqual { seed: 11 };
    let assignment = p.assign(data, N_SITES);
    data.partition(N_SITES, &assignment).0
}

#[test]
fn sequential_counters_match_linear_scan_ground_truth() {
    let g = dbdc_datagen::dataset_c(31);
    let p = params();
    let rec = RecordingRecorder::new();
    let outcome = run_dbdc_with(
        &g.data,
        &p,
        Partitioner::RandomEqual { seed: 11 },
        N_SITES,
        false,
        &rec,
    );

    // --- Per-site local scopes vs an independent reference run. ---
    let parts = partitioned(&g.data);
    for (site, part) in parts.iter().enumerate() {
        let c = rec.counters(&format!("local[{site}]"));
        let reference = dbscan_with_scp(
            part,
            &LinearScan::new(part, Euclidean),
            &DbscanParams::new(p.eps_local, p.min_pts_local),
        );
        assert_eq!(
            c.range_queries, reference.dbscan.range_queries as u64,
            "site {site}: every physical ε-range query must be counted"
        );
        assert_eq!(
            c.range_queries,
            (part.len() + reference.n_representatives()) as u64,
            "site {site} takes the index path"
        );
        // A linear scan evaluates the distance to every point, per query;
        // the selection adds its cover tests and Definition 7 distances.
        assert_eq!(
            c.distance_evals,
            c.range_queries * part.len() as u64
                + selection_evals(part, &reference, p.eps_local, true),
            "site {site}"
        );
        assert_eq!(c.node_visits, 0, "linear scan has no index nodes");
        assert_eq!(c.knn_queries, 0);
        assert_eq!(c.bytes_sent, outcome.per_site_bytes_up[site] as u64);
        assert_eq!(c.bytes_received, 0, "uploads only in the local phase");
    }

    // --- Server scope: one query per representative, real byte totals. ---
    // The server clusters the representatives through an R*-tree; recount
    // its work with an independent DBSCAN over an observed tree of the same
    // representatives at the resolved Eps_global.
    let global = rec.counters("global");
    let n_reps = outcome.n_representatives as u64;
    let mut reps = Dataset::new(g.data.dim());
    for r in &outcome.global.reps {
        reps.push(r.point.coords());
    }
    let recount = Arc::new(CounterSheet::new());
    dbscan(
        &reps,
        &RStarTree::bulk_load(&reps, Euclidean).observed(recount.clone()),
        &DbscanParams::new(outcome.global.eps_global, p.min_pts_global),
    );
    let recount = recount.snapshot();
    assert_eq!(global.range_queries, n_reps);
    assert_eq!(global.distance_evals, recount.distance_evals);
    assert_eq!(global.node_visits, recount.node_visits);
    assert!(global.node_visits > 0, "the server's index has nodes");
    assert_eq!(global.representatives, n_reps);
    assert_eq!(global.bytes_received, outcome.bytes_up as u64);
    assert_eq!(global.bytes_sent, outcome.bytes_down as u64);

    // --- Relabel scopes: every site downloads one global model copy. ---
    for (site, part) in parts.iter().enumerate() {
        let c = rec.counters(&format!("relabel[{site}]"));
        assert_eq!(c.bytes_received, outcome.global_model_bytes as u64);
        assert_eq!(c.bytes_sent, 0);
        assert_eq!(
            c.range_queries,
            part.len() as u64,
            "relabel issues one range query per local object"
        );
    }
}

#[test]
fn threaded_replay_counters_count_physical_queries_once() {
    // With worker threads, the deterministic execution layer materializes
    // every neighborhood once up front and selects from the cache: the
    // *physical* query count per site is exactly n, not n plus the SCP
    // queries of the sequential path. The cover tests read the cached
    // lists; only the Definition 7 distances are computed on top.
    let g = dbdc_datagen::dataset_c(32);
    let p = params().with_threads(2);
    let rec = RecordingRecorder::new();
    let outcome = run_dbdc_with(
        &g.data,
        &p,
        Partitioner::RandomEqual { seed: 11 },
        N_SITES,
        true,
        &rec,
    );
    let parts = partitioned(&g.data);
    for (site, part) in parts.iter().enumerate() {
        let c = rec.counters(&format!("local[{site}]"));
        let n = part.len() as u64;
        let reference = dbscan_with_scp(
            part,
            &LinearScan::new(part, Euclidean),
            &DbscanParams::new(p.eps_local, p.min_pts_local),
        );
        assert_eq!(c.range_queries, n, "site {site}");
        assert_eq!(
            c.distance_evals,
            n * n + selection_evals(part, &reference, p.eps_local, false),
            "site {site}"
        );
    }
    // The recorded run is still the plain protocol result.
    let plain = run_dbdc(&g.data, &p, Partitioner::RandomEqual { seed: 11 }, N_SITES);
    assert_eq!(outcome.assignment, plain.assignment);
}

#[test]
fn cell_path_counts_every_distance_and_no_range_query() {
    // Dataset A's layout at 2 sites of 6k points: at ε = 1.5 most points
    // lie in cells of at least MinPts points, so each site is clustered
    // on cells. The recorded local scope must equal a rerun over any
    // other observed index: the cell path's work depends on the data
    // alone, and all of it is counted.
    let data = dbdc_datagen::spec_a(2004, 12_000).generate(1).data;
    let p = DbdcParams::new(1.5, 5)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
        .with_index(IndexKind::Linear);
    let split = Partitioner::RandomEqual { seed: 3 };
    let rec = RecordingRecorder::new();
    run_dbdc_with(&data, &p, split, 2, false, &rec);
    let parts = data.partition(2, &split.assign(&data, 2)).0;
    let params = DbscanParams::new(p.eps_local, p.min_pts_local);
    for (site, part) in parts.iter().enumerate() {
        let recorded = rec.counters(&format!("local[{site}]"));
        let linear = Arc::new(CounterSheet::new());
        let tree = Arc::new(CounterSheet::new());
        let a = dbscan_with_scp(
            part,
            &LinearScan::new(part, Euclidean).observed(linear.clone()),
            &params,
        );
        let b = dbscan_with_scp(
            part,
            &RStarTree::bulk_load(part, Euclidean).observed(tree.clone()),
            &params,
        );
        assert_eq!(a, b, "site {site}");
        assert_eq!(a.dbscan.range_queries, 0, "site {site} takes the cell path");
        let (linear, tree) = (linear.snapshot(), tree.snapshot());
        assert_eq!(linear, tree, "site {site}");
        assert_eq!(recorded.range_queries, 0);
        assert_eq!(recorded.node_visits, 0);
        assert_eq!(recorded.distance_evals, linear.distance_evals);
        // Far below the index path's one query per point over a scan.
        assert!(linear.distance_evals > 0);
        assert!(linear.distance_evals < (part.len() * part.len() / 10) as u64);
    }
}

#[test]
fn recording_does_not_change_the_outcome() {
    let g = dbdc_datagen::dataset_c(33);
    let p = params();
    let rec = RecordingRecorder::new();
    let seed = Partitioner::RandomEqual { seed: 5 };
    let recorded = run_dbdc_with(&g.data, &p, seed, N_SITES, false, &rec);
    let noop = run_dbdc_with(&g.data, &p, seed, N_SITES, false, &NoopRecorder);
    let plain = run_dbdc(&g.data, &p, seed, N_SITES);
    for other in [&noop, &plain] {
        assert_eq!(recorded.assignment, other.assignment);
        assert_eq!(recorded.per_site_bytes_up, other.per_site_bytes_up);
        assert_eq!(recorded.global_model_bytes, other.global_model_bytes);
        assert_eq!(recorded.n_representatives, other.n_representatives);
    }
    // Nothing was captured through the no-op recorder, everything through
    // the recording one.
    assert!(!rec.scopes().is_empty());
    assert_eq!(rec.spans().len(), 1);
    assert_eq!(rec.spans()[0].name, "dbdc");
}
