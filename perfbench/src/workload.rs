//! The workloads and the untraced job each one runs.
//!
//! A job starts with the points in memory and ends when every point
//! holds its final global label. In-process workloads call
//! `dbdc::run_dbdc`; the fleet workload runs `dbdc_net::serve` and one
//! `dbdc_net::run_site` thread per site over loopback TCP.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use dbdc::{run_dbdc, DbdcParams, Partitioner};
use dbdc_cluster::dbcv::{dbcv_with, CorePath};
use dbdc_geom::{Clustering, Dataset, Euclidean, Label};
use dbdc_net::{run_site, serve, ServeOptions, ServerOutcome, SiteOptions, SiteOutcome};
use dbdc_obs::{NoopRecorder, Recorder};

/// Neighbours kept by the truncated DBCV core-distance sum, as
/// `dbdc-cli run --metrics-out` uses past 4096 points.
const QUALITY_KNN_K: usize = 64;

/// Seed of dataset A's cluster layout (count, size, shape and place of
/// the clusters), the seed `dbdc-cli generate --set a --seed 2004` uses.
/// `scaled_a(n, seed)` draws the layout from the run's seed, which moves
/// the model bytes by a third between seeds; here the run's seed draws
/// only the points.
const LAYOUT_SEED: u64 = 2004;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 200k points of dataset A in 2-D over 4 sites: the paper's Fig 8 scale.
    Fig8,
    /// 50k points of dataset A over 4 sites, each job scored with DBCV.
    Scored,
    /// 42k points in 8-D over a 2-site loopback TCP fleet.
    Fleet,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::Fig8, Kind::Scored, Kind::Fleet];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8 => "fig8_200k",
            Kind::Scored => "scored_50k",
            Kind::Fleet => "fleet_hd8",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One workload's generated input and protocol settings.
pub struct Workload {
    pub kind: Kind,
    pub data: Dataset,
    pub params: DbdcParams,
    pub sites: usize,
    pub partitioner: Partitioner,
}

impl Workload {
    /// Generates the workload's input from `seed`; the same seed gives
    /// the same points, parameters and site split.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let (data, params, sites) = match kind {
            Kind::Fig8 | Kind::Scored => {
                let n = if kind == Kind::Fig8 { 200_000 } else { 50_000 };
                let data = dbdc_datagen::spec_a(LAYOUT_SEED, n).generate(seed).data;
                (data, DbdcParams::new(1.0, 5), 4)
            }
            Kind::Fleet => {
                let g = dbdc_datagen::hyper_blobs(8, 5, 8_000, seed);
                (
                    g.data,
                    DbdcParams::new(g.suggested_eps, g.suggested_min_pts),
                    2,
                )
            }
        };
        Workload {
            kind,
            data,
            params,
            sites,
            partitioner: Partitioner::RandomEqual { seed },
        }
    }

    /// Whether each job ends with a DBCV quality pass.
    pub fn scored(&self) -> bool {
        self.kind == Kind::Scored
    }

    /// The DBCV core-distance path of the quality pass.
    pub fn quality_path(&self) -> CorePath {
        CorePath::Knn {
            k: QUALITY_KNN_K,
            index: self.params.index,
        }
    }
}

/// What one job produced.
pub struct JobOutput {
    /// Job wall time: points in memory to every point labelled.
    pub wall: Duration,
    /// Final labels of all points, in input order.
    pub labels: Clustering,
    /// Encoded local-model bytes, summed over sites.
    pub bytes_up: usize,
    /// Encoded global-model bytes, summed over receiving sites.
    pub bytes_down: usize,
    /// DBCV of the labels, on the scored workload.
    pub dbcv: Option<f64>,
}

impl JobOutput {
    /// Whether this output equals `reference` in labels, bytes and score.
    pub fn matches(&self, reference: &JobOutput) -> bool {
        self.labels == reference.labels
            && self.bytes_up == reference.bytes_up
            && self.bytes_down == reference.bytes_down
            && self.dbcv.map(f64::to_bits) == reference.dbcv.map(f64::to_bits)
    }
}

/// One untraced job of the workload. The fleet's listener is bound
/// before the job's clock starts.
pub fn run_job(w: &Workload) -> Result<JobOutput, String> {
    match w.kind {
        Kind::Fleet => Ok(fleet_job(w, bind()?, &NoopRecorder)?.output),
        Kind::Fig8 | Kind::Scored => Ok(in_process_job(w)),
    }
}

/// `run_dbdc` with the paper's sequential sites, then the DBCV pass on
/// the scored workload.
pub fn in_process_job(w: &Workload) -> JobOutput {
    let t0 = Instant::now();
    let out = run_dbdc(&w.data, &w.params, w.partitioner, w.sites);
    let dbcv = w.scored().then(|| {
        dbcv_with(
            &w.data,
            &out.assignment,
            Euclidean,
            w.quality_path(),
            &NoopRecorder,
        )
        .value
    });
    JobOutput {
        wall: t0.elapsed(),
        labels: out.assignment,
        bytes_up: out.bytes_up,
        bytes_down: out.bytes_down,
        dbcv,
    }
}

/// Binds the loopback listener a fleet job serves on.
pub fn bind() -> Result<TcpListener, String> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind a loopback listener: {e}"))
}

/// A fleet job with the timing each party measured.
pub struct FleetJob {
    pub output: JobOutput,
    pub sites: Vec<SiteOutcome>,
    pub server: ServerOutcome,
    /// Offset from the job start at which the site split was ready.
    pub partition_end: Duration,
    /// Per site: offsets of its thread's start and of `run_site`'s return.
    pub site_spans: Vec<(Duration, Duration)>,
    /// Offsets of the server thread's start and of `serve`'s return,
    /// drain included.
    pub server_span: (Duration, Duration),
}

/// One job over loopback TCP: split the points, serve on `listener`,
/// run every site on its own thread. The clock stops when every site
/// has returned its labels; the server's drain window is waited out
/// after that, before returning.
pub fn fleet_job(
    w: &Workload,
    listener: TcpListener,
    rec: &dyn Recorder,
) -> Result<FleetJob, String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener has no address: {e}"))?;
    let (n_sites, params) = (w.sites, w.params);
    let t0 = Instant::now();
    let assignment = w.partitioner.assign(&w.data, n_sites);
    let (parts, back) = w.data.partition(n_sites, &assignment);
    let partition_end = t0.elapsed();
    let (sites, wall, server) = std::thread::scope(|s| {
        let server = s.spawn(move || {
            let start = t0.elapsed();
            let out = serve(listener, ServeOptions::new(n_sites, params), rec);
            (out, (start, t0.elapsed()))
        });
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(site, part)| {
                s.spawn(move || {
                    let start = t0.elapsed();
                    let opts = SiteOptions::new(site as u32, n_sites as u32, params);
                    let out = run_site(addr, part, &opts, rec);
                    (out, (start, t0.elapsed()))
                })
            })
            .collect();
        let sites: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let wall = t0.elapsed();
        (sites, wall, server.join())
    });
    let (server, server_span) = server.map_err(|_| "server thread panicked".to_string())?;
    let server = server.map_err(|e| format!("serve failed: {e}"))?;
    let mut outcomes = Vec::with_capacity(n_sites);
    let mut site_spans = Vec::with_capacity(n_sites);
    for (site, joined) in sites.into_iter().enumerate() {
        let (out, span) = joined.map_err(|_| format!("site {site} thread panicked"))?;
        outcomes.push(out.map_err(|e| format!("site {site} failed: {e}"))?);
        site_spans.push(span);
    }
    let site_labels: Vec<&Clustering> = outcomes.iter().map(|o| &o.labels).collect();
    let output = JobOutput {
        wall,
        labels: merge_labels(w.data.len(), &back, &site_labels),
        bytes_up: outcomes.iter().map(|o| o.bytes_up).sum(),
        bytes_down: outcomes.iter().map(|o| o.bytes_down).sum(),
        dbcv: None,
    };
    Ok(FleetJob {
        output,
        sites: outcomes,
        server,
        partition_end,
        site_spans,
        server_span,
    })
}

/// Places every site's labels back in input order, with dense cluster
/// ids, as the in-process runtime does.
pub fn merge_labels(n: usize, back: &[Vec<u32>], site_labels: &[&Clustering]) -> Clustering {
    let mut full = vec![Label::Noise; n];
    for (ids, labels) in back.iter().zip(site_labels) {
        for (pos, &orig) in ids.iter().enumerate() {
            full[orig as usize] = labels.label(pos as u32);
        }
    }
    Clustering::from_labels(full)
}
