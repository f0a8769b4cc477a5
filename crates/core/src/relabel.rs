//! Relabeling of the local clustering from the global model (Section 7).
//!
//! After the server broadcasts the global model, every site independently
//! relabels its objects:
//!
//! * if a local object `o` lies within the ε_r-range of a global
//!   representative `r`, `o` joins `r`'s global cluster (the nearest
//!   qualifying representative wins when several cover `o`, and on an
//!   exact distance tie the one listed first in the model);
//! * this both merges formerly independent local clusters (their
//!   representatives share a global id) and upgrades local noise that a
//!   remote representative covers (objects `A`, `B` of the paper's
//!   Figure 5);
//! * objects covered by no representative remain noise (object `C`).
//!
//! Locally clustered objects are guaranteed covered by a representative of
//! their own cluster (the ε-range constructions of Section 5 ensure it; see
//! the coverage tests in `local_model`), but a defensive fallback assigns
//! stragglers — e.g. under float round-off — to the global cluster of their
//! local cluster's first representative.
//!
//! The representatives are indexed in an STR-loaded R*-tree, the same
//! index the sites cluster with (Section 4): each object issues one range
//! query at the largest ε-range, and every candidate is then tested
//! against its own ε_r.

use crate::global_model::GlobalModel;
use dbdc_geom::{Clustering, Dataset, Euclidean, Label, Metric};
use dbdc_index::{NeighborIndex, RStarTree};

/// Relabels one site's objects against the global model.
///
/// `local` is the site's own DBSCAN clustering (used for the fallback and
/// for noise identification); the result assigns each of the site's points
/// a **global** cluster id or noise.
pub fn relabel_site(site_data: &Dataset, local: &Clustering, global: &GlobalModel) -> Clustering {
    relabel_site_observed(site_data, local, global, None)
}

/// [`relabel_site`] with an optional [`dbdc_obs::CounterSheet`] recording
/// the range queries, distance evaluations and node visits against the
/// representative index.
///
/// # Panics
/// Panics if `local` does not cover `site_data`, if a non-empty model's
/// dimensionality differs from the site's data, or if a representative's
/// global cluster id is not below the model's `n_clusters`.
pub fn relabel_site_observed(
    site_data: &Dataset,
    local: &Clustering,
    global: &GlobalModel,
    sheet: Option<&std::sync::Arc<dbdc_obs::CounterSheet>>,
) -> Clustering {
    assert_eq!(
        site_data.len(),
        local.len(),
        "local clustering must cover the site's data"
    );
    if global.reps.is_empty() || site_data.is_empty() {
        return Clustering::all_noise(site_data.len());
    }
    assert_eq!(
        global.dim,
        site_data.dim(),
        "global model dimensionality must match the site's data"
    );

    // Spatial index over the representative points: query with the largest
    // ε-range, then filter each candidate by its own range.
    let mut rep_points = Dataset::new(global.dim);
    for r in &global.reps {
        rep_points.push(r.point.coords());
    }
    let max_range = global
        .reps
        .iter()
        .map(|r| r.eps_range)
        .fold(0.0f64, f64::max);
    let mut tree = RStarTree::bulk_load(&rep_points, Euclidean);
    if let Some(s) = sheet {
        tree = tree.observed(s.clone());
    }

    let mut labels = Vec::with_capacity(site_data.len());
    let mut candidates = Vec::new();
    for (i, p) in site_data.iter().enumerate() {
        tree.range(p, max_range, &mut candidates);
        // (distance, representative index): the nearest covering
        // representative wins, the lower index on an exact tie, so the
        // answer does not depend on the order the index visits candidates.
        let mut best: Option<(f64, u32)> = None;
        for &c in &candidates {
            let rep = &global.reps[c as usize];
            let d = Euclidean.dist(p, rep.point.coords());
            if d <= rep.eps_range && best.is_none_or(|b| (d, c) < b) {
                best = Some((d, c));
            }
        }
        let label = match best {
            Some((_, c)) => Label::Cluster(global.reps[c as usize].global_cluster),
            None => match local.label(i as u32) {
                Label::Noise => Label::Noise,
                Label::Cluster(lc) => {
                    // Defensive fallback: first representative of the local
                    // cluster.
                    global
                        .reps
                        .iter()
                        .find(|r| r.local_cluster == lc)
                        .map(|r| Label::Cluster(r.global_cluster))
                        .unwrap_or(Label::Noise)
                }
            },
        };
        labels.push(label);
    }
    // NOTE: ids are global cluster ids shared across sites; do not densify
    // here or sites would disagree. Densification happens when the runtime
    // assembles the full assignment.
    Clustering::from_labels_verbatim(labels, global.n_clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_model::GlobalRep;
    use dbdc_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force reference: scans every representative in model order
    /// under the same rule — the nearest covering representative wins,
    /// the lower index on an exact tie — then falls back to the first
    /// representative of the object's local cluster.
    fn oracle(site_data: &Dataset, local: &Clustering, global: &GlobalModel) -> Vec<Label> {
        site_data
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut best: Option<(f64, usize)> = None;
                for (c, r) in global.reps.iter().enumerate() {
                    let d = Euclidean.dist(p, r.point.coords());
                    if d <= r.eps_range && best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, c));
                    }
                }
                match (best, local.label(i as u32)) {
                    (Some((_, c)), _) => Label::Cluster(global.reps[c].global_cluster),
                    (None, Label::Noise) => Label::Noise,
                    (None, Label::Cluster(lc)) => global
                        .reps
                        .iter()
                        .find(|r| r.local_cluster == lc)
                        .map_or(Label::Noise, |r| Label::Cluster(r.global_cluster)),
                }
            })
            .collect()
    }

    /// Relabels and requires exact equality with [`oracle`].
    fn relabel_checked(
        site_data: &Dataset,
        local: &Clustering,
        global: &GlobalModel,
    ) -> Clustering {
        let r = relabel_site(site_data, local, global);
        assert_eq!(r.labels(), oracle(site_data, local, global).as_slice());
        r
    }

    fn global(reps: Vec<(f64, f64, f64, u32)>) -> GlobalModel {
        let n = reps.iter().map(|r| r.3 + 1).max().unwrap_or(0);
        GlobalModel {
            dim: 2,
            reps: reps
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, eps, g))| GlobalRep {
                    point: Point::xy(x, y),
                    eps_range: eps,
                    site: 0,
                    local_cluster: i as u32,
                    global_cluster: g,
                })
                .collect(),
            n_clusters: n,
            eps_global: 2.0,
        }
    }

    #[test]
    fn figure_5_scenario() {
        // R1, R2 are local representatives of two local clusters; R3 comes
        // from another site. All three belong to global cluster 0. Objects
        // A, B were local noise inside R3's range; C stays outside.
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0]); // in R1's range (local cluster 0)
        d.push(&[3.0, 0.0]); // in R2's range (local cluster 1)
        d.push(&[6.2, 0.0]); // A: local noise, in R3's range
        d.push(&[6.8, 0.0]); // B: local noise, in R3's range
        d.push(&[20.0, 0.0]); // C: local noise, outside everything
        let local = Clustering::from_labels(vec![
            Label::Cluster(0),
            Label::Cluster(1),
            Label::Noise,
            Label::Noise,
            Label::Noise,
        ]);
        let g = global(vec![
            (0.0, 0.0, 1.5, 0), // R1
            (3.0, 0.0, 1.5, 0), // R2
            (6.5, 0.0, 1.5, 0), // R3 (from another site)
        ]);
        let relabeled = relabel_checked(&d, &local, &g);
        assert_eq!(relabeled.label(0), Label::Cluster(0));
        assert_eq!(relabeled.label(1), Label::Cluster(0));
        assert_eq!(
            relabeled.label(2),
            Label::Cluster(0),
            "A joins the global cluster"
        );
        assert_eq!(
            relabeled.label(3),
            Label::Cluster(0),
            "B joins the global cluster"
        );
        assert_eq!(relabeled.label(4), Label::Noise, "C stays noise");
    }

    #[test]
    fn merges_two_local_clusters() {
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0]);
        d.push(&[2.0, 0.0]);
        let local = Clustering::from_labels(vec![Label::Cluster(0), Label::Cluster(1)]);
        // Both representatives map to the same global cluster.
        let g = global(vec![(0.0, 0.0, 1.0, 0), (2.0, 0.0, 1.0, 0)]);
        let r = relabel_checked(&d, &local, &g);
        assert_eq!(r.label(0), r.label(1));
    }

    #[test]
    fn nearest_covering_representative_wins() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 0.0]);
        let local = Clustering::from_labels(vec![Label::Cluster(0)]);
        // Two overlapping representatives from different global clusters;
        // the nearer one (at x=1.4) wins.
        let g = global(vec![(0.0, 0.0, 2.0, 0), (1.4, 0.0, 2.0, 1)]);
        let r = relabel_checked(&d, &local, &g);
        assert_eq!(r.label(0), Label::Cluster(1));
    }

    #[test]
    fn fallback_assigns_uncovered_cluster_member() {
        let mut d = Dataset::new(2);
        d.push(&[10.0, 10.0]); // outside every ε-range
        let local = Clustering::from_labels(vec![Label::Cluster(0)]);
        let g = global(vec![(0.0, 0.0, 1.0, 3)]);
        // local_cluster of that rep is 0 (enumerate index) -> fallback hits;
        // relabel_site keeps global ids verbatim.
        let r = relabel_checked(&d, &local, &g);
        assert_eq!(r.label(0), Label::Cluster(3));
    }

    #[test]
    fn empty_global_model_keeps_everything_noise() {
        let mut d = Dataset::new(2);
        d.push(&[0.0, 0.0]);
        let local = Clustering::from_labels(vec![Label::Cluster(0)]);
        let g = GlobalModel {
            dim: 2,
            reps: vec![],
            n_clusters: 0,
            eps_global: 2.0,
        };
        let r = relabel_checked(&d, &local, &g);
        assert!(r.label(0).is_noise());
    }

    #[test]
    fn boundary_inclusion_is_closed() {
        let mut d = Dataset::new(2);
        d.push(&[1.5, 0.0]); // exactly on the ε-range boundary
        let local = Clustering::from_labels(vec![Label::Noise]);
        let g = global(vec![(0.0, 0.0, 1.5, 0)]);
        let r = relabel_checked(&d, &local, &g);
        assert_eq!(r.label(0), Label::Cluster(0));
    }

    #[test]
    #[should_panic(expected = "global model dimensionality must match")]
    fn wrong_dim_model_panics_with_a_clear_message() {
        let mut d = Dataset::new(3);
        d.push(&[0.0, 0.0, 0.0]);
        let local = Clustering::from_labels(vec![Label::Noise]);
        relabel_site(&d, &local, &global(vec![(0.0, 0.0, 1.0, 0)]));
    }

    #[test]
    fn exact_distance_tie_goes_to_the_lower_model_index() {
        // r0 and r1 both cover the query at distance exactly 1.5; r0 comes
        // first in the model, so its cluster wins wherever the index
        // happens to find r1.
        let mut d = Dataset::new(2);
        d.push(&[1.5, 0.0]);
        let local = Clustering::from_labels(vec![Label::Noise]);
        let g = global(vec![(3.0, 0.0, 1.6, 0), (0.0, 0.0, 1.6, 1)]);
        let r = relabel_checked(&d, &local, &g);
        assert_eq!(r.label(0), Label::Cluster(0));
    }

    /// A random 2-D model on a half-unit lattice (so exact distance ties
    /// are common) and random site points with random local labels.
    fn random_case(seed: u64) -> (Dataset, Clustering, GlobalModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_reps = rng.random_range(1..40usize);
        let n_clusters = rng.random_range(1..6u32);
        let n_local = rng.random_range(1..8u32);
        let lattice = |rng: &mut StdRng| rng.random_range(0..40i32) as f64 * 0.5;
        let reps = (0..n_reps)
            .map(|_| GlobalRep {
                point: Point::xy(lattice(&mut rng), lattice(&mut rng)),
                eps_range: rng.random_range(1..8i32) as f64 * 0.5,
                site: 0,
                local_cluster: rng.random_range(0..n_local),
                global_cluster: rng.random_range(0..n_clusters),
            })
            .collect();
        let g = GlobalModel {
            dim: 2,
            reps,
            n_clusters,
            eps_global: 2.0,
        };
        let mut d = Dataset::new(2);
        let mut labels = Vec::new();
        for _ in 0..200 {
            d.push(&[lattice(&mut rng), lattice(&mut rng)]);
            labels.push(if rng.random_range(0..3u32) == 0 {
                Label::Noise
            } else {
                Label::Cluster(rng.random_range(0..n_local))
            });
        }
        (d, Clustering::from_labels_verbatim(labels, n_local), g)
    }

    #[test]
    fn random_2d_models_match_the_oracle() {
        for seed in 0..50 {
            let (d, local, g) = random_case(seed);
            relabel_checked(&d, &local, &g);
        }
    }

    #[test]
    fn hyper_blobs_8d_model_matches_the_oracle() {
        use crate::params::DbdcParams;
        use crate::partition::Partitioner;
        use crate::protocol::local_phase;
        use crate::wire;
        use dbdc_obs::NoopRecorder;

        let gen = dbdc_datagen::hyper_blobs(8, 4, 300, 7);
        let params = DbdcParams::new(gen.suggested_eps, gen.suggested_min_pts);
        let assignment = Partitioner::RandomEqual { seed: 3 }.assign(&gen.data, 2);
        let (parts, _) = gen.data.partition(2, &assignment);
        let mut locals = Vec::new();
        let mut models = Vec::new();
        for (site, part) in parts.iter().enumerate() {
            let (scp, encoded, _) = local_phase(site as u32, part, &params, &NoopRecorder);
            models.push(wire::decode_local_model(&encoded).unwrap());
            locals.push(scp.dbscan.clustering);
        }
        let g = crate::global_model::build_global_model(&models, &params);
        assert!(g.reps.len() > 10, "{} representatives", g.reps.len());
        for (part, local) in parts.iter().zip(&locals) {
            let r = relabel_checked(part, local, &g);
            assert!(r.labels().iter().any(|l| !l.is_noise()));
        }
    }
}
