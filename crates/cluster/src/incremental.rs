//! Incremental DBSCAN (after Ester, Kriegel, Sander, Wimmer, Xu — VLDB 1998).
//!
//! Section 4 of the paper lists the existence of an incremental DBSCAN as a
//! key reason for choosing density-based local clustering: a client site
//! only needs to transmit a new local model when its clustering changes
//! "considerably". This module provides that substrate: a maintained
//! clustering that absorbs point insertions and deletions with work
//! proportional to the affected neighborhood, following the reference's
//! case analysis (noise / creation / absorption / merge on insertion, and
//! potential splits on deletion).
//!
//! Deletions use a conservative *affected-cluster recluster*: the members of
//! every cluster touched by the deletion are re-expanded from their
//! (up-to-date) core points. This is more work than the minimal update in
//! the reference but is guaranteed to coincide with a fresh DBSCAN run —
//! a property the tests verify — while still only touching the affected
//! clusters.

use crate::dbscan::DbscanParams;
use dbdc_geom::{Clustering, Dataset, Euclidean, Label, Metric};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

const UNCLASSIFIED: i64 = -2;
const NOISE: i64 = -1;

/// A dynamically maintained DBSCAN clustering.
///
/// Point ids are assigned on insertion and never reused; removed points keep
/// their id but are excluded from all queries and reported as noise.
///
/// ```
/// use dbdc_cluster::{IncrementalDbscan, DbscanParams};
///
/// let mut inc = IncrementalDbscan::new(2, DbscanParams::new(1.0, 3));
/// let a = inc.insert(&[0.0, 0.0]);
/// inc.insert(&[0.5, 0.0]);
/// assert!(inc.label(a).is_noise());      // not dense enough yet
/// inc.insert(&[0.0, 0.5]);               // third point creates a cluster
/// assert!(!inc.label(a).is_noise());
/// assert_eq!(inc.clustering().n_clusters(), 1);
/// ```
pub struct IncrementalDbscan {
    params: DbscanParams,
    dim: usize,
    data: Dataset,
    live: Vec<bool>,
    labels: Vec<i64>,
    core: Vec<bool>,
    next_cluster: i64,
    /// ε-sized uniform grid over the live points.
    grid: HashMap<Box<[i64]>, Vec<u32>>,
}

impl IncrementalDbscan {
    /// Creates an empty maintained clustering for `dim`-dimensional points.
    pub fn new(dim: usize, params: DbscanParams) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            params,
            dim,
            data: Dataset::new(dim),
            live: Vec::new(),
            labels: Vec::new(),
            core: Vec::new(),
            next_cluster: 0,
            grid: HashMap::new(),
        }
    }

    /// Number of live (inserted and not removed) points.
    pub fn len(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Whether there are no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether point `id` is live.
    pub fn is_live(&self, id: u32) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// The coordinates of point `id` (live or removed).
    pub fn point(&self, id: u32) -> &[f64] {
        self.data.point(id)
    }

    /// Every point ever inserted, live or removed, indexed by id.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Whether live point `id` currently satisfies the core condition.
    pub fn is_core(&self, id: u32) -> bool {
        self.core[id as usize]
    }

    /// The current label of point `id` (removed points report noise).
    pub fn label(&self, id: u32) -> Label {
        match self.labels[id as usize] {
            l if l < 0 => Label::Noise,
            l => Label::Cluster(l as u32),
        }
    }

    /// A snapshot of the full clustering, one label per ever-inserted id
    /// (removed ids are noise).
    pub fn clustering(&self) -> Clustering {
        Clustering::from_labels(
            self.labels
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    if !self.live[i] || l < 0 {
                        Label::Noise
                    } else {
                        Label::Cluster(l as u32)
                    }
                })
                .collect(),
        )
    }

    fn cell_of(&self, p: &[f64]) -> Box<[i64]> {
        p.iter()
            .map(|&c| (c / self.params.eps).floor() as i64)
            .collect()
    }

    /// Live point ids within `eps` of `q` (closed ball).
    fn range(&self, q: &[f64]) -> Vec<u32> {
        let eps = self.params.eps;
        let lo: Vec<i64> = q
            .iter()
            .map(|&c| ((c - eps) / eps).floor() as i64)
            .collect();
        let hi: Vec<i64> = q
            .iter()
            .map(|&c| ((c + eps) / eps).floor() as i64)
            .collect();
        let mut out = Vec::new();
        let mut cur = lo.clone();
        'outer: loop {
            if let Some(ids) = self.grid.get(cur.as_slice()) {
                for &i in ids {
                    if Euclidean.dist(q, self.data.point(i)) <= eps {
                        out.push(i);
                    }
                }
            }
            for d in 0..self.dim {
                if cur[d] < hi[d] {
                    cur[d] += 1;
                    continue 'outer;
                }
                cur[d] = lo[d];
            }
            break;
        }
        out
    }

    /// Inserts a point and updates the clustering; returns the new id.
    ///
    /// Implements the insertion cases of the reference: *noise* (no new core
    /// points and no core neighbor), *absorption* (no new core points but a
    /// core neighbor exists), and *creation/merge* (new core points appear —
    /// one BFS over the core graph from the new cores relabels everything
    /// that becomes density-connected, merging clusters if several are
    /// reached).
    pub fn insert(&mut self, p: &[f64]) -> u32 {
        assert_eq!(p.len(), self.dim, "wrong dimensionality");
        let id = self.data.push(p);
        self.live.push(true);
        self.labels.push(UNCLASSIFIED);
        self.core.push(false);
        self.grid.entry(self.cell_of(p)).or_default().push(id);

        let neighbors = self.range(p);
        // Only points in N_eps(p) gain a neighbor, so only they can change
        // core status — and only from non-core to core.
        let mut new_cores = Vec::new();
        for &q in &neighbors {
            if !self.core[q as usize] && self.range(self.data.point(q)).len() >= self.params.min_pts
            {
                self.core[q as usize] = true;
                new_cores.push(q);
            }
        }

        if new_cores.is_empty() {
            // Noise or absorption.
            let core_neighbor = neighbors.iter().find(|&&q| self.core[q as usize]);
            self.labels[id as usize] = match core_neighbor {
                Some(&q) => self.labels[q as usize],
                None => NOISE,
            };
            return id;
        }

        // Creation / merge: BFS over the core graph from the new cores.
        let cluster = self.next_cluster;
        self.next_cluster += 1;
        let mut queue = new_cores;
        let mut visited: HashMap<u32, ()> = HashMap::new();
        for &c in &queue {
            visited.insert(c, ());
        }
        while let Some(x) = queue.pop() {
            debug_assert!(self.core[x as usize]);
            self.labels[x as usize] = cluster;
            for q in self.range(self.data.point(x)) {
                if self.core[q as usize] {
                    if let Entry::Vacant(e) = visited.entry(q) {
                        e.insert(());
                        queue.push(q);
                    }
                } else {
                    // Border point of the (possibly merged) cluster.
                    self.labels[q as usize] = cluster;
                }
            }
        }
        id
    }

    /// Removes point `id` and updates the clustering.
    ///
    /// # Panics
    /// Panics if `id` was never inserted or is already removed.
    pub fn remove(&mut self, id: u32) {
        assert!(self.is_live(id), "point {id} is not live");
        let p: Vec<f64> = self.data.point(id).to_vec();
        self.live[id as usize] = false;
        let cell = self.cell_of(&p);
        if let Some(ids) = self.grid.get_mut(&cell) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.grid.remove(&cell);
            }
        }
        let was_core = self.core[id as usize];
        let old_label = self.labels[id as usize];
        self.core[id as usize] = false;
        self.labels[id as usize] = NOISE;

        let neighbors = self.range(&p);
        // Neighbors lose a member; some cores may be demoted.
        let mut demoted = Vec::new();
        for &q in &neighbors {
            if self.core[q as usize] && self.range(self.data.point(q)).len() < self.params.min_pts {
                self.core[q as usize] = false;
                demoted.push(q);
            }
        }

        if !was_core && demoted.is_empty() {
            // The removed point was border or noise and nothing depended on
            // it; no labels can change.
            return;
        }

        // Recluster every affected cluster from scratch over its members.
        let mut affected: Vec<i64> = neighbors
            .iter()
            .map(|&q| self.labels[q as usize])
            .chain([old_label])
            .filter(|&l| l >= 0)
            .collect();
        affected.sort_unstable();
        affected.dedup();
        if affected.is_empty() {
            return;
        }
        let members: Vec<u32> = (0..self.labels.len() as u32)
            .filter(|&i| {
                self.live[i as usize] && affected.binary_search(&self.labels[i as usize]).is_ok()
            })
            .collect();
        let mut in_members = vec![false; self.labels.len()];
        for &m in &members {
            in_members[m as usize] = true;
        }
        for &m in &members {
            self.labels[m as usize] = UNCLASSIFIED;
        }
        // Expand from cores within the member set.
        for &m in &members {
            if self.labels[m as usize] != UNCLASSIFIED || !self.core[m as usize] {
                continue;
            }
            let cluster = self.next_cluster;
            self.next_cluster += 1;
            self.labels[m as usize] = cluster;
            let mut queue = vec![m];
            while let Some(x) = queue.pop() {
                for q in self.range(self.data.point(x)) {
                    if !in_members[q as usize] {
                        continue; // points of unaffected clusters keep labels
                    }
                    if self.labels[q as usize] == UNCLASSIFIED {
                        self.labels[q as usize] = cluster;
                        if self.core[q as usize] {
                            queue.push(q);
                        }
                    }
                }
            }
        }
        // Unreached members become noise unless a live core (possibly of an
        // unaffected cluster) still covers them.
        for &m in &members {
            if self.labels[m as usize] != UNCLASSIFIED {
                continue;
            }
            let adopt = self
                .range(self.data.point(m))
                .into_iter()
                .find(|&q| self.core[q as usize]);
            self.labels[m as usize] = match adopt {
                Some(q) => self.labels[q as usize],
                None => NOISE,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::dbscan;
    use dbdc_index::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1.2;
    const MIN_PTS: usize = 4;

    /// Checks that the maintained state is a valid DBSCAN result for the
    /// live points: exact core flags, matching core partition, and valid
    /// border/noise assignment.
    fn assert_matches_batch(inc: &IncrementalDbscan) {
        // Rebuild the live dataset.
        let mut live_ids = Vec::new();
        let mut d = Dataset::new(2);
        for id in 0..inc.labels.len() as u32 {
            if inc.is_live(id) {
                live_ids.push(id);
                d.push(inc.point(id));
            }
        }
        let idx = LinearScan::new(&d, Euclidean);
        let batch = dbscan(&d, &idx, &DbscanParams::new(EPS, MIN_PTS));
        // 1. Core flags must match exactly.
        for (bi, &id) in live_ids.iter().enumerate() {
            assert_eq!(
                inc.is_core(id),
                batch.core[bi],
                "core flag mismatch for id {id}"
            );
        }
        // 2. Two core points share a cluster iff batch agrees.
        for (bi, &a) in live_ids.iter().enumerate() {
            if !inc.is_core(a) {
                continue;
            }
            for (bj, &b) in live_ids.iter().enumerate().skip(bi + 1) {
                if !inc.is_core(b) {
                    continue;
                }
                let same_inc = inc.label(a) == inc.label(b);
                let same_batch =
                    batch.clustering.label(bi as u32) == batch.clustering.label(bj as u32);
                assert_eq!(same_inc, same_batch, "core partition mismatch ({a},{b})");
            }
        }
        // 3. Non-core points: noise iff no core within eps; otherwise the
        // assigned cluster must contain a core neighbor.
        for &id in &live_ids {
            if inc.is_core(id) {
                continue;
            }
            let core_neighbors: Vec<u32> = inc
                .range(inc.point(id))
                .into_iter()
                .filter(|&q| inc.is_core(q))
                .collect();
            match inc.label(id) {
                Label::Noise => {
                    assert!(
                        core_neighbors.is_empty(),
                        "point {id} is noise but has a core neighbor"
                    );
                }
                Label::Cluster(_) => {
                    assert!(
                        core_neighbors
                            .iter()
                            .any(|&q| inc.label(q) == inc.label(id)),
                        "border {id} not adjacent to a core of its cluster"
                    );
                }
            }
        }
    }

    fn params() -> DbscanParams {
        DbscanParams::new(EPS, MIN_PTS)
    }

    #[test]
    fn insertion_cases() {
        let mut inc = IncrementalDbscan::new(2, params());
        // Noise case: isolated points.
        let a = inc.insert(&[0.0, 0.0]);
        assert_eq!(inc.label(a), Label::Noise);
        inc.insert(&[0.5, 0.0]);
        inc.insert(&[0.0, 0.5]);
        assert_matches_batch(&inc);
        // Creation case: the 4th nearby point makes a core.
        inc.insert(&[0.5, 0.5]);
        assert!(!inc.label(a).is_noise(), "cluster should be created");
        assert_matches_batch(&inc);
        // Absorption case: a 5th point near the cluster.
        let e = inc.insert(&[1.0, 0.5]);
        assert!(!inc.label(e).is_noise());
        assert_matches_batch(&inc);
    }

    #[test]
    fn merge_case() {
        let mut inc = IncrementalDbscan::new(2, params());
        // Two clusters 4 apart (eps=1.2), then a bridge point merges them.
        for i in 0..5 {
            inc.insert(&[i as f64 * 0.3, 0.0]);
        }
        for i in 0..5 {
            inc.insert(&[4.0 + i as f64 * 0.3, 0.0]);
        }
        assert_matches_batch(&inc);
        let c = inc.clustering();
        assert_eq!(c.n_clusters(), 2);
        // A dense bridge of core points connects the two blobs.
        inc.insert(&[2.0, 0.0]);
        inc.insert(&[2.8, 0.0]);
        inc.insert(&[3.1, 0.0]);
        assert_matches_batch(&inc);
        let c = inc.clustering();
        assert_eq!(c.n_clusters(), 1, "clusters should merge");
    }

    #[test]
    fn deletion_split_case() {
        let mut inc = IncrementalDbscan::new(2, params());
        // A dumbbell: two dense blobs joined by a thin bridge.
        let mut ids = Vec::new();
        for i in 0..6 {
            ids.push(inc.insert(&[i as f64 * 0.3, 0.0]));
        }
        for i in 0..6 {
            ids.push(inc.insert(&[5.0 + i as f64 * 0.3, 0.0]));
        }
        let b1 = inc.insert(&[2.3, 0.0]);
        let b2 = inc.insert(&[2.9, 0.0]);
        let b3 = inc.insert(&[3.5, 0.0]);
        let b4 = inc.insert(&[4.1, 0.0]);
        assert_eq!(inc.clustering().n_clusters(), 1);
        assert_matches_batch(&inc);
        // Removing the bridge splits the cluster.
        inc.remove(b2);
        assert_matches_batch(&inc);
        inc.remove(b1);
        inc.remove(b3);
        inc.remove(b4);
        assert_matches_batch(&inc);
        assert_eq!(inc.clustering().n_clusters(), 2, "cluster should split");
    }

    #[test]
    fn deletion_of_border_and_noise_is_local() {
        let mut inc = IncrementalDbscan::new(2, params());
        for i in 0..8 {
            inc.insert(&[i as f64 * 0.3, 0.0]);
        }
        let noise = inc.insert(&[50.0, 50.0]);
        assert_matches_batch(&inc);
        inc.remove(noise);
        assert_matches_batch(&inc);
    }

    #[test]
    fn randomized_against_batch() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut inc = IncrementalDbscan::new(2, params());
        let mut live: Vec<u32> = Vec::new();
        for step in 0..300 {
            if !live.is_empty() && rng.random_range(0..100) < 25 {
                let pos = rng.random_range(0..live.len());
                let id = live.swap_remove(pos);
                inc.remove(id);
            } else {
                // Clustered-ish data: a few attractors plus noise.
                let p = if rng.random_range(0..100) < 80 {
                    let (cx, cy) = [(0.0, 0.0), (6.0, 6.0), (0.0, 8.0)][rng.random_range(0..3)];
                    [
                        cx + rng.random_range(-1.5..1.5),
                        cy + rng.random_range(-1.5..1.5),
                    ]
                } else {
                    [rng.random_range(-12.0..12.0), rng.random_range(-12.0..12.0)]
                };
                live.push(inc.insert(&p));
            }
            if step % 25 == 24 {
                assert_matches_batch(&inc);
            }
        }
        assert_matches_batch(&inc);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_remove_panics() {
        let mut inc = IncrementalDbscan::new(2, params());
        let id = inc.insert(&[0.0, 0.0]);
        inc.remove(id);
        inc.remove(id);
    }

    #[test]
    fn len_tracks_live_points() {
        let mut inc = IncrementalDbscan::new(2, params());
        assert!(inc.is_empty());
        let a = inc.insert(&[0.0, 0.0]);
        let _b = inc.insert(&[1.0, 1.0]);
        assert_eq!(inc.len(), 2);
        inc.remove(a);
        assert_eq!(inc.len(), 1);
        assert!(!inc.is_live(a));
    }
}
