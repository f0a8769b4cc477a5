//! The traced run: alternates untraced and traced jobs, checks that the
//! traced composition gives the reference output and identical work
//! counts every time, and reports the per-layer metrics as medians over
//! the traced jobs.

use std::time::{Duration, Instant};

use dbdc_net::SiteOutcome;

use crate::stats::{median, median_f64, ratio, Metric};
use crate::trace::{compose, traced_fleet, Composition, TracedFleet};
use crate::workload::{run_job, JobOutput, Kind, Workload};
use crate::{guarded, Outcome, BLIND_SPOT, MIN_TRACED, START_DEADLINE};

/// One untraced plus one traced job.
struct Iteration {
    untraced: Duration,
    traced: Duration,
    metrics: Vec<Metric>,
    counts: Vec<(&'static str, u64)>,
    spans: Vec<(&'static str, String)>,
}

/// Runs traced iterations for `seconds` (at least [`MIN_TRACED`]).
pub fn run_traced(w: &Workload, reference: &JobOutput, seconds: f64, started: Instant) -> Outcome {
    let mut iterations: Vec<Iteration> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let t0 = Instant::now();
    while iterations.len() < MIN_TRACED
        || (t0.elapsed().as_secs_f64() < seconds && started.elapsed() < START_DEADLINE)
    {
        attempted += 1;
        let it = match guarded(|| iterate(w, reference)) {
            Ok(it) => it,
            Err(e) => {
                failed += 1;
                eprintln!("traced iteration {attempted}: {e}");
                break;
            }
        };
        if let Some(first) = iterations.first() {
            for ((name, a), (_, b)) in first.counts.iter().zip(&it.counts) {
                if a != b {
                    failed += 1;
                    eprintln!(
                        "EXACT-COUNT CHECK FAILED: {name} was {a} in the first traced job \
                         and {b} in traced job {}",
                        iterations.len() + 1
                    );
                }
            }
        } else {
            for (label, json) in &it.spans {
                println!("{label} {json}");
            }
        }
        iterations.push(it);
        if failed > 0 {
            break;
        }
    }
    println!("blind_spot {BLIND_SPOT}");
    println!(
        "traced jobs {} with identical work counts: {}",
        iterations.len(),
        failed == 0
    );

    let mut metrics = Vec::new();
    if let Some(first) = iterations.first() {
        for (i, m) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = iterations.iter().map(|it| it.metrics[i].value).collect();
            metrics.push(Metric::new(m.name, m.unit, median_f64(&values)));
        }
    }
    let untraced: Vec<Duration> = iterations.iter().map(|it| it.untraced).collect();
    let traced: Vec<Duration> = iterations.iter().map(|it| it.traced).collect();
    metrics.push(Metric::new(
        "trace.overhead_frac",
        "frac",
        ratio(median(&traced), median(&untraced)) - 1.0,
    ));
    Outcome {
        correct: failed == 0 && iterations.len() >= MIN_TRACED,
        attempted,
        failed,
        metrics,
    }
}

/// An untraced job, then the traced composition, then (on the fleet) a
/// traced fleet job. Every output must equal the reference.
fn iterate(w: &Workload, reference: &JobOutput) -> Result<Iteration, String> {
    let untraced = run_job(w)?;
    if !untraced.matches(reference) {
        return Err("untraced job output differs from the reference".into());
    }
    let c = compose(w);
    if !c.output.matches(reference) {
        return Err("traced composition's output differs from run_dbdc's".into());
    }
    let fleet = match w.kind {
        Kind::Fleet => {
            let f = traced_fleet(w)?;
            if !f.job.output.matches(reference) {
                return Err("traced fleet job's output differs from run_dbdc's".into());
            }
            Some(f)
        }
        Kind::Fig8 | Kind::Scored => None,
    };
    let mut spans = vec![("spans", c.tracer.to_json())];
    if let Some(f) = &fleet {
        spans.push(("fleet_spans", f.tracer.to_json()));
    }
    Ok(Iteration {
        untraced: untraced.wall,
        traced: fleet.as_ref().map_or(c.output.wall, |f| f.job.output.wall),
        metrics: layer_metrics(w, &c, fleet.as_ref()),
        counts: exact_counts(&c),
        spans,
    })
}

/// The counts that must repeat exactly between traced jobs.
fn exact_counts(c: &Composition) -> Vec<(&'static str, u64)> {
    vec![
        ("index.range_queries", c.index.range_queries),
        ("index.distance_evals", c.index.distance_evals),
        ("index.node_visits", c.index.node_visits),
        ("global_model.range_queries", c.global.range_queries),
        ("global_model.distance_evals", c.global.distance_evals),
        ("global_model.node_visits", c.global.node_visits),
        ("relabel.range_queries", c.relabel.range_queries),
        ("relabel.distance_evals", c.relabel.distance_evals),
        ("relabel.node_visits", c.relabel.node_visits),
        ("dbcv.knn_queries", c.quality.knn_queries),
        ("dbcv.distance_evals", c.quality.distance_evals),
        ("dbcv.node_visits", c.quality.node_visits),
        ("dbcv.mst_edges", c.quality.mst_edges),
        ("local_model.representatives", c.representatives as u64),
        ("bytes_up", c.output.bytes_up as u64),
        ("bytes_down", c.output.bytes_down as u64),
    ]
}

/// Per-layer metrics of one traced iteration. Busy times are summed
/// over sites; network phases take the slowest site; the straggler
/// ratio and `server.global_s` come from the fleet job where there is
/// one, otherwise from the composition.
fn layer_metrics(w: &Workload, c: &Composition, f: Option<&TracedFleet>) -> Vec<Metric> {
    let tr = &c.tracer;
    let secs = |name: &str| tr.total(name).as_secs_f64();
    let local_walls: Vec<f64> = match f {
        Some(f) => f
            .job
            .sites
            .iter()
            .map(|o| o.local_wall.as_secs_f64())
            .collect(),
        None => tr
            .child_walls(0, "local[")
            .iter()
            .map(Duration::as_secs_f64)
            .collect(),
    };
    let slowest = local_walls.iter().copied().fold(0.0, f64::max);
    let mean = local_walls.iter().sum::<f64>() / local_walls.len().max(1) as f64;
    let slowest_site = |phase: fn(&SiteOutcome) -> Duration| {
        f.map_or(0.0, |f| {
            f.job
                .sites
                .iter()
                .map(phase)
                .max()
                .unwrap_or_default()
                .as_secs_f64()
        })
    };
    let wire = f.map(|f| f.wire).unwrap_or_default();
    let (index, relabel, dbcv) = (&c.index, &c.relabel, &c.quality);
    let count = |n: u64| n as f64;
    vec![
        Metric::new("partition.busy_s", "s", secs("partition")),
        Metric::new("index.build_s", "s", secs("index.build")),
        Metric::new("index.range_queries", "count", count(index.range_queries)),
        Metric::new("index.distance_evals", "count", count(index.distance_evals)),
        Metric::new("index.node_visits", "count", count(index.node_visits)),
        Metric::new(
            "index.evals_per_query",
            "ratio",
            ratio(count(index.distance_evals), count(index.range_queries)),
        ),
        Metric::new("cluster.busy_s", "s", secs("cluster")),
        Metric::new("cluster.straggler_ratio", "ratio", ratio(slowest, mean)),
        Metric::new("local_model.busy_s", "s", secs("local_model")),
        Metric::new(
            "local_model.representatives",
            "count",
            c.representatives as f64,
        ),
        Metric::new("wire.encode_s", "s", secs("wire.encode")),
        Metric::new("wire.decode_s", "s", secs("wire.decode")),
        Metric::new("global_model.busy_s", "s", secs("global_model")),
        Metric::new(
            "global_model.distance_evals",
            "count",
            count(c.global.distance_evals),
        ),
        Metric::new(
            "server.global_s",
            "s",
            f.map_or(secs("server"), |f| f.job.server.global_wall.as_secs_f64()),
        ),
        Metric::new("relabel.busy_s", "s", secs("relabel")),
        Metric::new(
            "relabel.range_queries",
            "count",
            count(relabel.range_queries),
        ),
        Metric::new(
            "relabel.distance_evals",
            "count",
            count(relabel.distance_evals),
        ),
        Metric::new("relabel.node_visits", "count", count(relabel.node_visits)),
        Metric::new(
            "relabel.evals_per_point",
            "ratio",
            ratio(count(relabel.distance_evals), w.data.len() as f64),
        ),
        Metric::new("dbcv.busy_s", "s", secs("dbcv")),
        Metric::new("dbcv.value", "index", c.output.dbcv.unwrap_or(0.0)),
        Metric::new("dbcv.knn_queries", "count", count(dbcv.knn_queries)),
        Metric::new("dbcv.distance_evals", "count", count(dbcv.distance_evals)),
        Metric::new("dbcv.mst_edges", "count", count(dbcv.mst_edges)),
        Metric::new(
            "dbcv.evals_per_mst_edge",
            "ratio",
            ratio(count(dbcv.distance_evals), count(dbcv.mst_edges)),
        ),
        Metric::new(
            "net.handshake_s",
            "s",
            slowest_site(|o| o.session_phases.handshake),
        ),
        Metric::new(
            "net.upload_s",
            "s",
            slowest_site(|o| o.session_phases.upload),
        ),
        Metric::new(
            "net.global_wait_s",
            "s",
            slowest_site(|o| o.session_phases.download),
        ),
        Metric::new("net.session_s", "s", slowest_site(|o| o.session_wall)),
        Metric::new(
            "net.frames",
            "count",
            count(wire.frames_sent + wire.frames_received),
        ),
        Metric::new(
            "net.wire_bytes",
            "B",
            count(wire.wire_bytes_sent + wire.wire_bytes_received),
        ),
        Metric::new("net.retries", "count", count(wire.retries)),
        Metric::new(
            "net.extra_connections",
            "count",
            f.map_or(0.0, |f| {
                f.job.server.connections.saturating_sub(w.sites as u64) as f64
            }),
        ),
        Metric::new(
            "trace.unattributed_frac",
            "frac",
            f.map_or(tr, |f| &f.tracer).unattributed_frac(),
        ),
    ]
}
