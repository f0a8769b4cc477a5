//! The protocol steps of Section 3, each defined once.
//!
//! DBDC runs (1) local clustering and (2) local-model extraction on
//! every site, (3) the global model on the server, and (4) relabeling
//! on every site. Every driver — the in-process [`crate::runtime`] and
//! the TCP site and server of `dbdc-net` — calls the functions here, so
//! a step computes the same result, records the same counters and
//! emits the same bytes whichever driver runs it:
//!
//! - [`local_phase`]: steps 1 and 2, then the wire encoding of the model;
//! - [`global_step`]: step 3, then the wire encoding of the global model;
//! - [`relabel_step`]: the decode of the broadcast model, then step 4.
//!
//! Drivers own only what differs between them: how a site's data and
//! the models travel, and how the steps are scheduled and timed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dbdc_cluster::{
    dbscan_with_scp, effective_partitions, effective_threads, par_dbscan_with_scp,
    partitioned_dbscan_with_scp, try_cell_path, DbscanParams, ScpResult,
};
use dbdc_geom::{Clustering, Dataset, Euclidean};
use dbdc_index::{BuildOptions, RangePredicate};
use dbdc_obs::{CounterSheet, Recorder, Span};

use crate::global_model::{build_global_model_observed, GlobalModel};
use crate::local_model::{build_local_model, LocalModel};
use crate::params::DbdcParams;
use crate::relabel::relabel_site_observed;
use crate::wire::{self, WireError};

/// Wall times of one site's local phase, total and by sub-phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalTimes {
    /// The whole local phase, build through encode.
    pub total: Duration,
    /// Index construction. Zero when the site ran partitioned (each
    /// partition builds its own index inside its [`LocalTimes::partitions`]
    /// entry) or on the cell path, which needs no index.
    pub build: Duration,
    /// Clustering over the built index(es), excluding a site-wide build.
    pub cluster: Duration,
    /// Local-model extraction.
    pub extract: Duration,
    /// Wire encoding of the local model.
    pub encode: Duration,
    /// Per-partition wall times; empty when the site ran unpartitioned.
    pub partitions: Vec<Duration>,
}

impl LocalTimes {
    /// The `local[site]` span run on `threads` OS threads, with
    /// `build`, `cluster` (one `partition[j]` child per spatial
    /// partition), `extract` and `encode` children.
    pub fn to_span(&self, site: usize, threads: usize) -> Span {
        let mut local =
            Span::new(format!("local[{site}]"), self.total).with_threads(threads.max(1));
        local.push(Span::new("build", self.build));
        let mut cluster = Span::new("cluster", self.cluster);
        for (j, &t) in self.partitions.iter().enumerate() {
            cluster.push(Span::new(format!("partition[{j}]"), t));
        }
        local.push(cluster);
        local.push(Span::new("extract", self.extract));
        local.push(Span::new("encode", self.encode));
        local
    }
}

/// Steps 1 and 2 on site `site`: cluster, extract the model, encode it.
/// Returns the site's clustering (which stays on the site for the
/// relabel step), the encoded model bytes and the sub-phase walls. Work
/// counters land in the recorder's `local[site]` scope.
///
/// With [`DbdcParams::partitions`] resolving above 1 the site runs the
/// partitioned execution path (stripes + ε-halos + one private index
/// per partition); the labels are identical either way, and the halo
/// replication volume lands in the site's `halo_points` counter. A site
/// that qualifies for the cell path (see [`dbdc_cluster::cells`]) builds
/// no index at all; `threads` and `partitions` do not apply to it.
pub fn local_phase(
    site: u32,
    site_data: &Dataset,
    params: &DbdcParams,
    rec: &dyn Recorder,
) -> (ScpResult, Bytes, LocalTimes) {
    let sheet = rec.sheet(&format!("local[{site}]"));
    let eps_hist = rec.hist(&format!("local[{site}]/eps_range_ns"));
    let t0 = Instant::now();
    let dbscan_params = DbscanParams::new(params.eps_local, params.min_pts_local);
    let partitions = effective_partitions(params.partitions, params.threads);
    let (scp, t_build, partition_times) = if partitions > 1 {
        let (scp, stats) = partitioned_dbscan_with_scp(
            site_data,
            params.index,
            &dbscan_params,
            partitions,
            params.threads,
            params.precision,
            sheet.as_ref(),
            eps_hist.as_ref(),
        );
        if let Some(s) = &sheet {
            s.add_halo_points(stats.halo_points);
        }
        // Each partition builds its own index inside its timed span;
        // there is no site-wide build to report separately.
        (scp, Duration::ZERO, stats.partition_times)
    } else if let Some(scp) = try_cell_path(
        site_data,
        &RangePredicate::for_kind(params.index, &Euclidean, params.precision),
        &dbscan_params,
        sheet.as_deref(),
    ) {
        (scp, Duration::ZERO, Vec::new())
    } else {
        // The clustering call below repeats the cell-path check (one
        // hash per point) before it takes the index path.
        let index = dbdc_index::build_index_opts(
            params.index,
            site_data,
            Euclidean,
            params.eps_local,
            BuildOptions {
                threads: effective_threads(params.threads),
                precision: params.precision,
            },
            sheet.as_ref(),
            eps_hist.as_ref(),
        );
        let t_build = t0.elapsed();
        let scp = if params.threads == 1 {
            dbscan_with_scp(site_data, index.as_ref(), &dbscan_params)
        } else {
            par_dbscan_with_scp(site_data, index.as_ref(), &dbscan_params, params.threads)
        };
        (scp, t_build, Vec::new())
    };
    let t_cluster = t0.elapsed();
    let model: LocalModel = build_local_model(params.model, site_data, &scp, site);
    let t_extract = t0.elapsed();
    let encoded = wire::encode_local_model(&model).expect("local model fits the wire format");
    let t_encode = t0.elapsed();
    if let Some(s) = &sheet {
        s.add_representatives(model.len() as u64);
        s.add_bytes_sent(encoded.len() as u64);
    }
    let times = LocalTimes {
        total: t_encode,
        build: t_build,
        cluster: t_cluster - t_build,
        extract: t_extract - t_cluster,
        encode: t_encode - t_extract,
        partitions: partition_times,
    };
    (scp, encoded, times)
}

/// Step 3 on the server: clusters the representatives of every site's
/// model into the global model and encodes it for the broadcast. The
/// server-side DBSCAN work and the representative count land in `sheet`.
pub fn global_step(
    models: &[LocalModel],
    params: &DbdcParams,
    sheet: Option<&Arc<CounterSheet>>,
) -> (GlobalModel, Bytes) {
    let global = build_global_model_observed(models, params, sheet);
    let encoded = wire::encode_global_model(&global).expect("global model fits the wire format");
    if let Some(s) = sheet {
        s.add_representatives(models.iter().map(LocalModel::len).sum::<usize>() as u64);
    }
    (global, encoded)
}

/// Step 4 on site `site`: decodes the broadcast global model and
/// relabels the site's points (clustered locally as `local`) against
/// it. The received bytes and the relabel work land in the recorder's
/// `relabel[site]` scope.
pub fn relabel_step(
    site: u32,
    site_data: &Dataset,
    local: &Clustering,
    encoded_global: &[u8],
    rec: &dyn Recorder,
) -> Result<(GlobalModel, Clustering), WireError> {
    let sheet = rec.sheet(&format!("relabel[{site}]"));
    let global = wire::decode_global_model(encoded_global)?;
    if let Some(s) = &sheet {
        s.add_bytes_received(encoded_global.len() as u64);
    }
    if !global.reps.is_empty() && global.dim != site_data.dim() {
        return Err(WireError::DimMismatch {
            expected: site_data.dim(),
            got: global.dim,
        });
    }
    let labels = relabel_site_observed(site_data, local, &global, sheet.as_ref());
    Ok((global, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_model::GlobalRep;
    use dbdc_geom::{Label, Point};
    use dbdc_obs::NoopRecorder;

    /// Two 2-D site points, one local cluster.
    fn site() -> (Dataset, Clustering) {
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0]);
        d.push(&[1.0, 0.0]);
        let local = Clustering::from_labels(vec![Label::Cluster(0), Label::Cluster(0)]);
        (d, local)
    }

    /// A checksum-valid encoded global model with one representative.
    fn encoded(coords: Vec<f64>, global_cluster: u32, n_clusters: u32) -> Bytes {
        let g = GlobalModel {
            dim: coords.len(),
            reps: vec![GlobalRep {
                point: Point::new(coords),
                eps_range: 1.5,
                site: 0,
                local_cluster: 0,
                global_cluster,
            }],
            n_clusters,
            eps_global: 2.0,
        };
        wire::encode_global_model(&g).unwrap()
    }

    fn relabel(bytes: &[u8]) -> Result<(GlobalModel, Clustering), WireError> {
        let (d, local) = site();
        relabel_step(0, &d, &local, bytes, &NoopRecorder)
    }

    #[test]
    fn wrong_dim_model_is_an_error_not_a_panic() {
        assert_eq!(
            relabel(&encoded(vec![0.0, 0.0, 0.0], 0, 1)).unwrap_err(),
            WireError::DimMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn one_dim_model_is_an_error_not_a_panic() {
        assert_eq!(
            relabel(&encoded(vec![0.0], 0, 1)).unwrap_err(),
            WireError::DimMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn undeclared_global_cluster_is_an_error_not_a_panic() {
        assert_eq!(
            relabel(&encoded(vec![0.0, 0.0], 5, 1)).unwrap_err(),
            WireError::BadClusterId {
                id: 5,
                n_clusters: 1
            }
        );
    }

    #[test]
    fn local_phase_builds_no_index_on_the_cell_path() {
        // 40 points per blob, packed far inside one ε/√2 cell: every
        // point lies in a dense cell. Spread 10 apart, no cell is dense.
        let dense = Dataset::from_flat(
            2,
            (0..80)
                .flat_map(|i| [(i / 40) as f64 * 9.0 + (i % 40) as f64 * 1e-3, 0.5])
                .collect(),
        );
        let sparse = Dataset::from_flat(2, (0..40).flat_map(|i| [i as f64 * 10.0, 0.0]).collect());
        for threads in [1, 2] {
            let p = DbdcParams::new(1.0, 5).with_threads(threads);
            let oracle = DbscanParams::new(1.0, 5);
            for (data, cells) in [(&dense, true), (&sparse, false)] {
                let (scp, _, times) = local_phase(0, data, &p, &NoopRecorder);
                let index = dbdc_index::LinearScan::new(data, Euclidean);
                assert_eq!(scp, dbscan_with_scp(data, &index, &oracle));
                assert_eq!(scp.dbscan.range_queries == 0, cells);
                if cells {
                    assert_eq!(times.build, Duration::ZERO);
                }
            }
        }
    }

    #[test]
    fn well_formed_model_relabels() {
        let (_, labels) = relabel(&encoded(vec![0.0, 0.0], 0, 1)).unwrap();
        assert_eq!(labels.labels(), &[Label::Cluster(0), Label::Cluster(0)]);
    }
}
