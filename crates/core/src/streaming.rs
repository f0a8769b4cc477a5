//! Streaming DBDC sessions — the paper's incremental mode.
//!
//! Section 6: "the incremental version of DBSCAN allows us to start with
//! the construction of the global model after the first representatives of
//! any local model come in. Thus we do not have to wait for all clients to
//! have transmitted their complete local models." And Section 4 motivates
//! incremental local clustering: a site only re-transmits its model when
//! its clustering changes "considerably".
//!
//! Two session types deliver that mode:
//!
//! * [`ServerSession`] — maintains the global model incrementally: local
//!   models are ingested as they arrive (each representative is an
//!   insertion into an incremental DBSCAN over representative space), and a
//!   consistent [`GlobalModel`] snapshot is available at any time. A site
//!   may also *replace* its model, which retracts its previous
//!   representatives.
//! * [`ClientSession`] — maintains a site's clustering with incremental
//!   DBSCAN as points stream in, extracts the `REP_Scor` local model from
//!   the maintained state on demand, and reports how far the clustering has
//!   drifted since the last transmitted model so the caller can decide when
//!   to re-send.

use crate::global_model::{GlobalModel, GlobalRep};
use crate::local_model::{LocalModel, Representative};
use crate::params::DbdcParams;
use dbdc_cluster::{select_specific_core_points, DbscanParams, IncrementalDbscan};
use dbdc_geom::{adjusted_rand_index, Clustering, Euclidean, Label, Point};
use dbdc_index::RStarTree;
use std::collections::HashMap;

/// The server side of streaming DBDC.
///
/// ```
/// use dbdc::{ClientSession, ServerSession, DbdcParams, EpsGlobal};
///
/// let params = DbdcParams::new(1.0, 3).with_eps_global(EpsGlobal::MultipleOfLocal(2.0));
/// let mut client = ClientSession::new(0, 2, params);
/// for i in 0..12 {
///     client.insert(&[i as f64 * 0.2, 0.0]);
/// }
/// let mut server = ServerSession::new(2, 2.0, &params);
/// server.ingest(&client.take_model());           // first model arrives
/// let snapshot = server.snapshot();              // global model available immediately
/// assert!(snapshot.n_clusters >= 1);
/// assert_eq!(client.drift(), 0.0);               // nothing changed since the send
/// ```
pub struct ServerSession {
    eps_global: f64,
    dim: usize,
    inc: IncrementalDbscan,
    /// Metadata per incremental point id; `None` for retracted entries.
    meta: Vec<Option<(u32, u32, f64)>>, // (site, local_cluster, eps_range)
    /// Ids contributed by each site, for retraction on model replacement.
    by_site: HashMap<u32, Vec<u32>>,
}

impl ServerSession {
    /// Creates a session clustering representatives of dimension `dim` with
    /// the resolved `Eps_global` of `params`. Since representatives arrive
    /// over time, the `MaxEpsRange` policy cannot be used here — resolve it
    /// with [`DbdcParams::resolve_eps_global`] over an expected range or use
    /// an explicit policy.
    ///
    /// # Panics
    /// Panics if `eps_global` is not positive and finite.
    pub fn new(dim: usize, eps_global: f64, params: &DbdcParams) -> Self {
        Self {
            eps_global,
            dim,
            inc: IncrementalDbscan::new(dim, DbscanParams::new(eps_global, params.min_pts_global)),
            meta: Vec::new(),
            by_site: HashMap::new(),
        }
    }

    /// Number of live representatives.
    pub fn n_representatives(&self) -> usize {
        self.meta.iter().flatten().count()
    }

    /// Ingests (or replaces) a site's local model.
    ///
    /// # Panics
    /// Panics if the model's dimensionality disagrees with the session.
    pub fn ingest(&mut self, model: &LocalModel) {
        assert!(
            model.is_empty() || model.dim == self.dim,
            "model dimensionality mismatch"
        );
        // Retract the site's previous representatives, if any.
        if let Some(old) = self.by_site.remove(&model.site) {
            for id in old {
                self.inc.remove(id);
                self.meta[id as usize] = None;
            }
        }
        let mut ids = Vec::with_capacity(model.reps.len());
        for r in &model.reps {
            let id = self.inc.insert(r.point.coords());
            debug_assert_eq!(id as usize, self.meta.len());
            self.meta
                .push(Some((model.site, r.local_cluster, r.eps_range)));
            ids.push(id);
        }
        self.by_site.insert(model.site, ids);
    }

    /// A consistent snapshot of the current global model (representatives
    /// that incremental DBSCAN considers noise are promoted to singleton
    /// clusters, as in the batch path).
    pub fn snapshot(&self) -> GlobalModel {
        let mut reps = Vec::with_capacity(self.n_representatives());
        let mut dense: HashMap<u32, u32> = HashMap::new();
        let mut next = 0u32;
        // First pass: count clustered ids densely in id order.
        for (id, m) in self.meta.iter().enumerate() {
            let Some(&(site, local_cluster, eps_range)) = m.as_ref() else {
                continue;
            };
            let global_cluster = match self.inc.label(id as u32) {
                Label::Cluster(c) => *dense.entry(c).or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                }),
                Label::Noise => {
                    let v = next;
                    next += 1;
                    v
                }
            };
            reps.push(GlobalRep {
                point: Point::from(self.inc.point(id as u32)),
                eps_range,
                site,
                local_cluster,
                global_cluster,
            });
        }
        GlobalModel {
            dim: self.dim,
            reps,
            n_clusters: next,
            eps_global: self.eps_global,
        }
    }
}

/// The client side of streaming DBDC: a site whose data arrives over time.
pub struct ClientSession {
    site: u32,
    dim: usize,
    params: DbdcParams,
    inc: IncrementalDbscan,
    /// The clustering at the time of the last transmitted model.
    last_sent: Option<Clustering>,
}

impl ClientSession {
    /// Creates a streaming client for 2-d data (the workspace's datasets).
    pub fn new(site: u32, dim: usize, params: DbdcParams) -> Self {
        Self {
            site,
            dim,
            params,
            inc: IncrementalDbscan::new(
                dim,
                DbscanParams::new(params.eps_local, params.min_pts_local),
            ),
            last_sent: None,
        }
    }

    /// Inserts a streamed point; returns its id.
    pub fn insert(&mut self, p: &[f64]) -> u32 {
        self.inc.insert(p)
    }

    /// Removes a point (e.g. record expiry).
    pub fn remove(&mut self, id: u32) {
        self.inc.remove(id);
    }

    /// Number of live points on the site.
    pub fn len(&self) -> usize {
        self.inc.len()
    }

    /// Whether the site holds no live points.
    pub fn is_empty(&self) -> bool {
        self.inc.is_empty()
    }

    /// The site's current clustering.
    pub fn clustering(&self) -> Clustering {
        self.inc.clustering()
    }

    /// Drift of the current clustering relative to the last transmitted
    /// model, as `1 - ARI` in `[0, 1]` (1 if nothing was sent yet).
    pub fn drift(&self) -> f64 {
        match &self.last_sent {
            None => 1.0,
            Some(prev) => {
                let current = self.inc.clustering();
                // Compare over the ids that existed at send time.
                let k = prev.len().min(current.len());
                let prev_k = Clustering::from_labels(prev.labels()[..k].to_vec());
                let cur_k = Clustering::from_labels(current.labels()[..k].to_vec());
                (1.0 - adjusted_rand_index(&prev_k, &cur_k)).clamp(0.0, 1.0)
            }
        }
    }

    /// Extracts the current `REP_Scor` local model from the maintained
    /// clustering state and marks it as transmitted (resetting drift).
    ///
    /// The specific core points are the *current* core points selected
    /// by the id-order rule of [`dbdc_cluster::scp`], the one every batch
    /// driver uses; the specific ε-ranges follow Definition 7, one
    /// R\*-tree range query per specific core point.
    pub fn take_model(&mut self) -> LocalModel {
        let clustering = self.inc.clustering();
        self.last_sent = Some(clustering.clone());
        let data = self.inc.data();
        let core: Vec<bool> = (0..data.len() as u32)
            .map(|id| self.inc.is_live(id) && self.inc.is_core(id))
            .collect();
        let scp = select_specific_core_points(
            data,
            &clustering,
            &core,
            self.params.eps_local,
            &RStarTree::bulk_load(data, Euclidean),
        );
        let reps = scp
            .iter()
            .enumerate()
            .flat_map(|(cluster, list)| {
                list.iter().map(move |s| Representative {
                    point: Point::from(data.point(s.point)),
                    eps_range: s.eps_range,
                    local_cluster: cluster as u32,
                })
            })
            .collect();
        LocalModel {
            site: self.site,
            dim: self.dim,
            reps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EpsGlobal;
    use crate::quality::{q_dbdc, ObjectQuality};
    use crate::relabel::relabel_site;
    use crate::runtime::central_dbscan;
    use dbdc_geom::{Dataset, Metric};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> DbdcParams {
        DbdcParams::new(1.2, 5).with_eps_global(EpsGlobal::MultipleOfLocal(2.0))
    }

    /// Streamed sites + incremental server must reach the same quality as
    /// the batch pipeline.
    #[test]
    fn streaming_matches_batch_quality() {
        let g = dbdc_datagen::dataset_c(77);
        let p = params();
        let sites = 3;
        // Stream points round-robin into client sessions.
        let mut clients: Vec<ClientSession> = (0..sites)
            .map(|s| ClientSession::new(s as u32, 2, p))
            .collect();
        let mut site_points: Vec<Dataset> = vec![Dataset::new(2); sites];
        for (i, pt) in g.data.iter().enumerate() {
            clients[i % sites].insert(pt);
            site_points[i % sites].push(pt);
        }
        // Server ingests models as they "arrive".
        let mut server = ServerSession::new(2, 2.0 * p.eps_local, &p);
        for c in clients.iter_mut() {
            server.ingest(&c.take_model());
        }
        let global = server.snapshot();
        assert!(global.n_clusters >= 3);
        // Relabel every site and reassemble.
        let mut full = vec![Label::Noise; g.data.len()];
        for (s, client) in clients.iter().enumerate() {
            let local = client.clustering();
            let relabeled = relabel_site(&site_points[s], &local, &global);
            for (pos, orig) in (s..g.data.len()).step_by(sites).enumerate() {
                full[orig] = relabeled.label(pos as u32);
            }
        }
        let assignment = Clustering::from_labels(full);
        let (central, _) = central_dbscan(&g.data, &p);
        let q = q_dbdc(&assignment, &central.clustering, ObjectQuality::PII);
        assert!(q.q > 0.9, "streaming quality {:.3}", q.q);
    }

    #[test]
    fn server_supports_early_snapshots() {
        let g = dbdc_datagen::dataset_c(78);
        let p = params();
        let mut clients: Vec<ClientSession> = (0..2).map(|s| ClientSession::new(s, 2, p)).collect();
        for (i, pt) in g.data.iter().enumerate() {
            clients[i % 2].insert(pt);
        }
        let mut server = ServerSession::new(2, 2.0 * p.eps_local, &p);
        // Snapshot after the FIRST model only — Section 6's selling point.
        server.ingest(&clients[0].take_model());
        let early = server.snapshot();
        assert!(early.n_clusters > 0);
        assert!(early.reps.iter().all(|r| r.site == 0));
        // Then the second model arrives and the snapshot extends.
        server.ingest(&clients[1].take_model());
        let late = server.snapshot();
        assert!(late.reps.len() > early.reps.len());
    }

    #[test]
    fn model_replacement_retracts_old_representatives() {
        let p = params();
        let mut server = ServerSession::new(2, 2.0 * p.eps_local, &p);
        let model_a = LocalModel {
            site: 4,
            dim: 2,
            reps: vec![Representative {
                point: Point::xy(0.0, 0.0),
                eps_range: 1.5,
                local_cluster: 0,
            }],
        };
        server.ingest(&model_a);
        assert_eq!(server.n_representatives(), 1);
        let model_b = LocalModel {
            site: 4,
            dim: 2,
            reps: vec![
                Representative {
                    point: Point::xy(10.0, 10.0),
                    eps_range: 1.5,
                    local_cluster: 0,
                },
                Representative {
                    point: Point::xy(11.0, 10.0),
                    eps_range: 1.5,
                    local_cluster: 0,
                },
            ],
        };
        server.ingest(&model_b);
        assert_eq!(server.n_representatives(), 2);
        let snap = server.snapshot();
        assert!(snap.reps.iter().all(|r| r.point.coords()[0] >= 10.0));
        // The two nearby representatives merge into one cluster.
        assert_eq!(snap.n_clusters, 1);
    }

    #[test]
    fn drift_tracks_structural_change() {
        let p = params();
        let mut client = ClientSession::new(0, 2, p);
        assert_eq!(client.drift(), 1.0, "everything is drift before a send");
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..60 {
            client.insert(&[rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)]);
        }
        let model = client.take_model();
        assert!(!model.is_empty());
        assert_eq!(client.drift(), 0.0, "freshly sent model has zero drift");
        // A new far-away cluster appears: drift grows.
        for _ in 0..60 {
            client.insert(&[
                20.0 + rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            ]);
        }
        // Drift is measured on the common prefix, which is unchanged, so
        // feed churn into the old region too.
        for id in 0..20 {
            client.remove(id);
        }
        assert!(client.drift() > 0.0);
    }

    #[test]
    fn streaming_model_satisfies_scor_invariants() {
        let p = params();
        let mut client = ClientSession::new(0, 2, p);
        let g = dbdc_datagen::dataset_c(79);
        for pt in g.data.iter().take(400) {
            client.insert(pt);
        }
        let model = client.take_model();
        let metric = Euclidean;
        // Pairwise separation of representatives of the same cluster.
        for (i, a) in model.reps.iter().enumerate() {
            for b in &model.reps[i + 1..] {
                if a.local_cluster == b.local_cluster {
                    assert!(
                        metric.dist(a.point.coords(), b.point.coords()) > p.eps_local,
                        "scor separation violated"
                    );
                }
            }
            assert!(a.eps_range >= p.eps_local);
            assert!(a.eps_range <= 2.0 * p.eps_local + 1e-9);
        }
    }

    #[test]
    fn empty_session_behaviour() {
        let p = params();
        let mut client = ClientSession::new(0, 2, p);
        assert!(client.is_empty());
        let model = client.take_model();
        assert!(model.is_empty());
        let mut server = ServerSession::new(2, 2.0 * p.eps_local, &p);
        server.ingest(&model);
        let snap = server.snapshot();
        assert_eq!(snap.n_clusters, 0);
        assert_eq!(client.len(), 0);
    }
}
