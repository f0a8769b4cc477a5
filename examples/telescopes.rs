//! The paper's astronomy scenario: space telescopes around the world
//! collect ~1 GB/hour each and cannot ship raw data to a central archive.
//! Each observatory clusters its detections locally, uploads only its local
//! model over a slow uplink, and receives the global model back.
//!
//! This example runs the protocol with the threaded runtime (one thread per
//! observatory), then prices the transmission against centralizing the raw
//! detections using the simulated network models.
//!
//! ```sh
//! cargo run --release --example telescopes
//! ```

use dbdc::{
    q_dbdc, run_dbdc_with, wire, DbdcParams, EpsGlobal, LocalModelKind, NetworkModel,
    ObjectQuality, Partitioner,
};

fn main() {
    // Sky detections: a dataset-A-like mixture standing in for point
    // sources in a shared survey region, observed by 6 telescopes.
    let n = 60_000;
    let telescopes = 6;
    let sky = dbdc_datagen::scaled_a(n, 1969);
    println!("{n} detections across {telescopes} observatories");

    let params = DbdcParams::new(sky.suggested_eps, sky.suggested_min_pts)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
        .with_model(LocalModelKind::Scor);

    let outcome = run_dbdc_with(
        &sky.data,
        &params,
        Partitioner::RandomEqual { seed: 1969 },
        telescopes,
        true,
        &dbdc_obs::NoopRecorder,
    );
    println!(
        "global model: {} source groups from {} representatives",
        outcome.global.n_clusters, outcome.n_representatives
    );
    println!(
        "local phase (slowest observatory): {:.1} ms, global phase: {:.1} ms",
        outcome.timings.local_max().as_secs_f64() * 1e3,
        outcome.timings.global.as_secs_f64() * 1e3
    );

    // Compare shipping models vs shipping raw detections over the uplink.
    let uplink = NetworkModel::slow_uplink();
    let raw_bytes = wire::raw_data_bytes(n, sky.data.dim());
    let per_site_model = outcome.bytes_up / telescopes;
    let per_site_raw = raw_bytes / telescopes;
    println!("\nuplink: 1 Mbit/s, 250 ms latency");
    println!(
        "  per-observatory raw upload:   {:>10} bytes -> {:>8.1} s",
        per_site_raw,
        uplink.transfer_time(per_site_raw).as_secs_f64()
    );
    println!(
        "  per-observatory model upload: {:>10} bytes -> {:>8.1} s",
        per_site_model,
        uplink.transfer_time(per_site_model).as_secs_f64()
    );
    println!(
        "  saving factor: {:.0}x",
        per_site_raw as f64 / per_site_model.max(1) as f64
    );

    // Sanity: the distributed result matches a central run.
    let (central, _) = dbdc::central_dbscan(&sky.data, &params);
    let q = q_dbdc(&outcome.assignment, &central.clustering, ObjectQuality::PII);
    println!(
        "\nquality vs hypothetical central clustering: P^II = {:.1}%",
        100.0 * q.q
    );
}
