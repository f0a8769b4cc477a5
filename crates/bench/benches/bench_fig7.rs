//! Criterion companion of Figure 7: central DBSCAN vs the full DBDC
//! pipeline (both local models) at a fixed cardinality, plus the threaded
//! runtime. The `figures fig7a`/`fig7b` binary produces the full sweep; this
//! bench gives statistically solid numbers at one point of the curve.

use criterion::{criterion_group, criterion_main, Criterion};
use dbdc::{
    central_dbscan, run_dbdc, run_dbdc_with, DbdcParams, EpsGlobal, LocalModelKind, Partitioner,
};
use dbdc_datagen::scaled_a;
use dbdc_obs::NoopRecorder;
use std::hint::black_box;

const N: usize = 10_000;
const SITES: usize = 4;

fn bench_central_vs_dbdc(c: &mut Criterion) {
    let g = scaled_a(N, 7);
    let params = DbdcParams::new(g.suggested_eps, g.suggested_min_pts)
        .with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
    let mut group = c.benchmark_group("fig7_10k_4sites");
    group.sample_size(10);
    group.bench_function("central_dbscan", |b| {
        b.iter(|| black_box(central_dbscan(&g.data, &params)));
    });
    group.bench_function("dbdc_rep_scor", |b| {
        b.iter(|| {
            black_box(run_dbdc(
                &g.data,
                &params.with_model(LocalModelKind::Scor),
                Partitioner::RandomEqual { seed: 7 },
                SITES,
            ))
        });
    });
    group.bench_function("dbdc_rep_kmeans", |b| {
        b.iter(|| {
            black_box(run_dbdc(
                &g.data,
                &params.with_model(LocalModelKind::KMeans),
                Partitioner::RandomEqual { seed: 7 },
                SITES,
            ))
        });
    });
    group.bench_function("dbdc_rep_scor_threaded", |b| {
        b.iter(|| {
            black_box(run_dbdc_with(
                &g.data,
                &params.with_model(LocalModelKind::Scor),
                Partitioner::RandomEqual { seed: 7 },
                SITES,
                true,
                &NoopRecorder,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_central_vs_dbdc);
criterion_main!(benches);
