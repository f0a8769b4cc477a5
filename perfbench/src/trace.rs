//! The traced run: the same job re-composed from each layer's public
//! functions, with a span around every layer call and a benchmark-owned
//! counter sheet on every instrumented layer.
//!
//! Spans are kept in memory and printed when the run ends. A span's
//! start and end are offsets from the job start; `parent` indexes the
//! span that caused it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dbdc::{
    build_global_model_observed, build_local_model, relabel_site_observed, wire, LocalModel,
};
use dbdc_cluster::{dbcv_with, dbscan_with_scp, effective_threads, DbscanParams};
use dbdc_geom::{Clustering, Euclidean};
use dbdc_index::{build_index_opts, BuildOptions};
use dbdc_obs::{CounterSheet, Counters, RecordingRecorder};

use crate::workload::{bind, fleet_job, merge_labels, FleetJob, JobOutput, Workload};

/// One recorded span.
struct SpanRec {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

impl SpanRec {
    fn wall(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span list for one job.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.record(name, parent, now, now)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(SpanRec {
            name: name.into(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a leaf span.
    fn timed<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Summed wall of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::wall)
            .sum()
    }

    /// Walls of the direct children of span `parent` whose name starts
    /// with `prefix`.
    pub fn child_walls(&self, parent: usize, prefix: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name.starts_with(prefix))
            .map(SpanRec::wall)
            .collect()
    }

    /// Wall of the root span (span 0).
    pub fn root_wall(&self) -> Duration {
        self.spans[0].wall()
    }

    /// Share of the root span's wall that no child of the root covers.
    pub fn unattributed_frac(&self) -> f64 {
        let root = &self.spans[0];
        let mut cover: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| (s.start.max(root.start), s.end.min(root.end)))
            .filter(|(a, b)| a < b)
            .collect();
        cover.sort();
        let mut covered = Duration::ZERO;
        let mut reach = root.start;
        for (a, b) in cover {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        let wall = root.wall().as_secs_f64();
        if wall > 0.0 {
            1.0 - covered.as_secs_f64() / wall
        } else {
            0.0
        }
    }

    /// The spans as one JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                    s.name,
                    s.start.as_secs_f64(),
                    s.end.as_secs_f64()
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// The in-process job, re-composed layer by layer.
pub struct Composition {
    pub output: JobOutput,
    pub tracer: Tracer,
    pub representatives: usize,
    /// `build_index_opts` sheet: the local DBSCAN range queries.
    pub index: Counters,
    /// `build_global_model_observed` sheet.
    pub global: Counters,
    /// `relabel_site_observed` sheet.
    pub relabel: Counters,
    /// The DBCV pass's `quality` scope.
    pub quality: Counters,
}

/// Runs the workload's protocol as `run_dbdc` does (sequential sites,
/// one index per site), calling each layer's public function inside
/// its own span. The scored workload ends with the DBCV pass.
pub fn compose(w: &Workload) -> Composition {
    let index_sheet = Arc::new(CounterSheet::new());
    let global_sheet = Arc::new(CounterSheet::new());
    let relabel_sheet = Arc::new(CounterSheet::new());
    let quality = RecordingRecorder::new();
    let params = &w.params;
    let dbscan_params = DbscanParams::new(params.eps_local, params.min_pts_local);
    let build_opts = BuildOptions {
        threads: effective_threads(params.threads),
        precision: params.precision,
    };

    let mut tr = Tracer::new();
    let job = tr.open("job", None);
    let (parts, back) = tr.timed("partition", job, || {
        let assignment = w.partitioner.assign(&w.data, w.sites);
        w.data.partition(w.sites, &assignment)
    });

    let mut locals = Vec::with_capacity(w.sites);
    let mut representatives = 0;
    for (site, part) in parts.iter().enumerate() {
        let local = tr.open(format!("local[{site}]"), Some(job));
        let index = tr.timed("index.build", local, || {
            build_index_opts(
                params.index,
                part,
                Euclidean,
                params.eps_local,
                build_opts,
                Some(&index_sheet),
                None,
            )
        });
        let scp = tr.timed("cluster", local, || {
            dbscan_with_scp(part, index.as_ref(), &dbscan_params)
        });
        let model = tr.timed("local_model", local, || {
            build_local_model(params.model, part, &scp, site as u32)
        });
        let encoded = tr.timed("wire.encode", local, || {
            wire::encode_local_model(&model).expect("local model fits the wire format")
        });
        tr.close(local);
        representatives += model.len();
        locals.push((scp, encoded));
    }

    let server = tr.open("server", Some(job));
    let models: Vec<LocalModel> = tr.timed("wire.decode", server, || {
        locals
            .iter()
            .map(|(_, b)| wire::decode_local_model(b).expect("self-encoded model decodes"))
            .collect()
    });
    let global = tr.timed("global_model", server, || {
        build_global_model_observed(&models, params, Some(&global_sheet))
    });
    let encoded_global = tr.timed("wire.encode", server, || {
        wire::encode_global_model(&global).expect("global model fits the wire format")
    });
    tr.close(server);

    let mut site_labels = Vec::with_capacity(w.sites);
    for (site, part) in parts.iter().enumerate() {
        let relabel = tr.open(format!("relabel[{site}]"), Some(job));
        let g = tr.timed("wire.decode", relabel, || {
            wire::decode_global_model(&encoded_global).expect("self-encoded model decodes")
        });
        let labels = tr.timed("relabel", relabel, || {
            relabel_site_observed(
                part,
                &locals[site].0.dbscan.clustering,
                &g,
                Some(&relabel_sheet),
            )
        });
        tr.close(relabel);
        site_labels.push(labels);
    }
    let labels = tr.timed("assemble", job, || {
        let refs: Vec<&Clustering> = site_labels.iter().collect();
        merge_labels(w.data.len(), &back, &refs)
    });
    let dbcv = w.scored().then(|| {
        tr.timed("dbcv", job, || {
            dbcv_with(&w.data, &labels, Euclidean, w.quality_path(), &quality).value
        })
    });
    tr.close(job);

    let bytes_up = locals.iter().map(|(_, b)| b.len()).sum();
    Composition {
        output: JobOutput {
            wall: tr.root_wall(),
            labels,
            bytes_up,
            bytes_down: encoded_global.len() * w.sites,
            dbcv,
        },
        tracer: tr,
        representatives,
        index: index_sheet.snapshot(),
        global: global_sheet.snapshot(),
        relabel: relabel_sheet.snapshot(),
        quality: quality.counters(dbdc_cluster::dbcv::QUALITY_SCOPE),
    }
}

/// A fleet job run with a recording recorder, with its spans rebuilt
/// from the offsets and walls that each party measured.
pub struct TracedFleet {
    pub job: FleetJob,
    pub tracer: Tracer,
    /// Site wire counters (`net/site[i]` scopes), summed.
    pub wire: Counters,
}

/// One traced fleet job on a freshly bound loopback listener.
pub fn traced_fleet(w: &Workload) -> Result<TracedFleet, String> {
    let rec = RecordingRecorder::new();
    let job = fleet_job(w, bind()?, &rec)?;
    let wire = Counters::sum(
        &(0..w.sites)
            .map(|i| rec.counters(&format!("net/site[{i}]")))
            .collect::<Vec<_>>(),
    );

    let mut tr = Tracer::new();
    let root = tr.record("job", None, Duration::ZERO, job.output.wall);
    tr.record("partition", Some(root), Duration::ZERO, job.partition_end);
    for (i, (out, &(start, end))) in job.sites.iter().zip(&job.site_spans).enumerate() {
        let site = tr.record(format!("site[{i}]"), Some(root), start, end);
        let local_end = start + out.local_wall;
        tr.record("local", Some(site), start, local_end);
        let session_end = local_end + out.session_wall;
        let session = tr.record("session", Some(site), local_end, session_end);
        // Phase offsets count from the successful attempt's connect,
        // which is the session start when the first attempt succeeds.
        let ph = &out.session_phases;
        for (name, at, wall) in [
            ("handshake", ph.handshake_start, ph.handshake),
            ("upload", ph.upload_start, ph.upload),
            ("global_wait", ph.download_start, ph.download),
        ] {
            tr.record(name, Some(session), local_end + at, local_end + at + wall);
        }
        tr.record(
            "relabel",
            Some(site),
            session_end,
            session_end + out.relabel_wall,
        );
    }
    let (start, end) = job.server_span;
    let server = tr.record("server", Some(root), start, end);
    let global_start = start + job.server.upload_wall;
    tr.record(
        "global",
        Some(server),
        global_start,
        global_start + job.server.global_wall,
    );
    Ok(TracedFleet {
        job,
        tracer: tr,
        wire,
    })
}
