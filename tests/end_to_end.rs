//! End-to-end integration tests: the full DBDC protocol over the paper's
//! three data sets, both local models, sequential and threaded runtimes.

use dbdc::{
    central_dbscan, q_dbdc, run_dbdc, run_dbdc_with, DbdcParams, EpsGlobal, LocalModelKind,
    ObjectQuality, Partitioner,
};
use dbdc_datagen::{dataset_b, dataset_c, scaled_a};

fn params_for(g: &dbdc_datagen::GeneratedData) -> DbdcParams {
    DbdcParams::new(g.suggested_eps, g.suggested_min_pts)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
}

#[test]
fn dataset_c_both_models_high_quality() {
    let g = dataset_c(11);
    let params = params_for(&g);
    let (central, _) = central_dbscan(&g.data, &params);
    for model in [LocalModelKind::Scor, LocalModelKind::KMeans] {
        let outcome = run_dbdc(
            &g.data,
            &params.with_model(model),
            Partitioner::RandomEqual { seed: 3 },
            4,
        );
        let q2 = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
        assert!(
            q2.q > 0.95,
            "{}: P^II = {:.3} below the paper's ballpark",
            model.name(),
            q2.q
        );
        assert_eq!(
            outcome.assignment.n_clusters(),
            central.clustering.n_clusters()
        );
    }
}

#[test]
fn dataset_b_noise_is_preserved() {
    // Data set B is ~35% noise; the distributed clustering must keep the
    // bulk of it as noise rather than absorbing it into clusters.
    let g = dataset_b(11);
    let params = params_for(&g);
    let (central, _) = central_dbscan(&g.data, &params);
    let outcome = run_dbdc(&g.data, &params, Partitioner::RandomEqual { seed: 3 }, 4);
    let central_noise = central.clustering.n_noise() as f64;
    let distr_noise = outcome.assignment.n_noise() as f64;
    assert!(
        (distr_noise - central_noise).abs() / central_noise < 0.25,
        "noise count diverges: central {central_noise}, distributed {distr_noise}"
    );
    let q2 = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
    assert!(q2.q > 0.85, "P^II = {:.3}", q2.q);
}

#[test]
fn scaled_dataset_quality_and_transmission() {
    let g = scaled_a(6_000, 5);
    let params = params_for(&g);
    let (central, _) = central_dbscan(&g.data, &params);
    let outcome = run_dbdc(&g.data, &params, Partitioner::RandomEqual { seed: 5 }, 6);
    let q2 = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
    assert!(q2.q > 0.9, "P^II = {:.3}", q2.q);
    // Transmission stays a small fraction of the raw data.
    let raw = dbdc::wire::raw_data_bytes(g.data.len(), 2);
    assert!(outcome.bytes_up * 3 < raw);
}

#[test]
fn threaded_and_sequential_agree_on_all_datasets() {
    for (name, g) in [
        ("B", dataset_b(2)),
        ("C", dataset_c(2)),
        ("A6k", scaled_a(6_000, 2)),
    ] {
        let params = params_for(&g);
        let seq = run_dbdc(&g.data, &params, Partitioner::RandomEqual { seed: 8 }, 5);
        let part = Partitioner::RandomEqual { seed: 8 };
        let thr = run_dbdc_with(&g.data, &params, part, 5, true, &dbdc_obs::NoopRecorder);
        assert_eq!(seq.assignment, thr.assignment, "mismatch on {name}");
        assert_eq!(seq.bytes_up, thr.bytes_up, "byte mismatch on {name}");
    }
}

#[test]
fn quality_degrades_gently_with_site_count() {
    // Figure 10's trend: P^II stays high but decreases (weakly) as sites
    // multiply.
    let g = scaled_a(4_000, 9);
    let params = params_for(&g);
    let (central, _) = central_dbscan(&g.data, &params);
    let q_at = |sites: usize| {
        let outcome = run_dbdc(
            &g.data,
            &params,
            Partitioner::RandomEqual { seed: 9 },
            sites,
        );
        q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII).q
    };
    let q2 = q_at(2);
    let q16 = q_at(16);
    assert!(q2 > 0.9, "q at 2 sites: {q2:.3}");
    assert!(q16 > 0.5, "q at 16 sites: {q16:.3}");
    assert!(
        q2 >= q16 - 0.05,
        "quality should not improve with fragmentation"
    );
}

#[test]
fn eps_global_default_policy_close_to_2x() {
    // Section 6: the max-ε_R default "is generally close to 2·Eps_local".
    let g = dataset_c(13);
    let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts); // MaxEpsRange
    let outcome = run_dbdc(&g.data, &params, Partitioner::RandomEqual { seed: 1 }, 4);
    let ratio = outcome.global.eps_global / g.suggested_eps;
    assert!(
        (1.2..=2.0 + 1e-9).contains(&ratio),
        "eps_global / eps_local = {ratio:.3}"
    );
}

#[test]
fn index_backend_does_not_change_the_outcome() {
    let g = dataset_c(17);
    let base = params_for(&g);
    let reference = run_dbdc(
        &g.data,
        &base.with_index(dbdc_index::IndexKind::Linear),
        Partitioner::RandomEqual { seed: 17 },
        4,
    );
    for kind in [
        dbdc_index::IndexKind::Grid,
        dbdc_index::IndexKind::KdTree,
        dbdc_index::IndexKind::RStar,
    ] {
        let outcome = run_dbdc(
            &g.data,
            &base.with_index(kind),
            Partitioner::RandomEqual { seed: 17 },
            4,
        );
        // Index backends return range results in different orders, which
        // legitimately flips border-point ties and the greedy Scor pick, so
        // require structural equivalence rather than identical labels.
        let ari = dbdc_geom::adjusted_rand_index(&outcome.assignment, &reference.assignment);
        assert!(
            ari > 0.98,
            "index {} diverges from linear backend: ARI {ari:.4}",
            kind.name()
        );
        assert_eq!(
            outcome.assignment.n_clusters(),
            reference.assignment.n_clusters()
        );
    }
}

#[test]
fn pipeline_works_in_three_dimensions() {
    // Nothing in DBDC is 2-d-specific; run the whole protocol on 3-d data.
    let g = dbdc_datagen::hyper_blobs(3, 4, 400, 21);
    let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
    let (central, _) = central_dbscan(&g.data, &params);
    assert_eq!(
        central.clustering.n_clusters(),
        4,
        "central run finds the blobs"
    );
    let outcome = run_dbdc(&g.data, &params, Partitioner::RandomEqual { seed: 21 }, 4);
    let q = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
    assert!(q.q > 0.9, "3-d P^II = {:.3}", q.q);
}

#[test]
fn pipeline_works_in_five_dimensions() {
    let g = dbdc_datagen::hyper_blobs(5, 3, 500, 22);
    let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
    let (central, _) = central_dbscan(&g.data, &params);
    let outcome = run_dbdc(&g.data, &params, Partitioner::RandomEqual { seed: 22 }, 3);
    let q = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
    assert!(q.q > 0.85, "5-d P^II = {:.3}", q.q);
}

#[test]
fn pdbscan_and_dbdc_agree_on_structure() {
    // The exact parallel baseline and DBDC should tell the same story on
    // clean data.
    let g = dataset_c(23);
    let params = params_for(&g);
    let pd = dbdc::run_pdbscan(&g.data, &params, 4);
    let outcome = run_dbdc(&g.data, &params, Partitioner::RandomEqual { seed: 23 }, 4);
    assert_eq!(pd.clustering.n_clusters(), outcome.assignment.n_clusters());
    let q = q_dbdc(&outcome.assignment, &pd.clustering, ObjectQuality::PII);
    assert!(q.q > 0.95, "DBDC vs PDBSCAN P^II = {:.3}", q.q);
}
