//! Cell-based exact DBSCAN (Gunawan 2013; Gan & Tao, SIGMOD 2015).
//!
//! The site is cut into axis-aligned cubes ("cells") just small enough
//! that any two points of one cell lie within ε of each other: side
//! ε/√d under the Euclidean metric, less a relative margin of 10⁻⁶ that
//! absorbs the rounding of the cell keys. Then:
//!
//! 1. A cell holding at least MinPts points is all-core, with no distance
//!    computed. A point of a sparser cell counts the points of its
//!    occupied neighbour cells within ε, stopping as soon as it reaches
//!    MinPts.
//! 2. Core points of one cell are mutually within ε, so each cell's core
//!    points start as one set. Union-find joins two core cells once some
//!    core pair across them lies within ε. Adjacent cells (|Δ| ≤ 1 on
//!    every axis) are linked first: they merge most of a cluster, so the
//!    farther pairs mostly find their two cells already joined and cost
//!    no distance at all.
//! 3. Clusters are numbered by their lowest core id, and a border point
//!    joins the lowest-numbered cluster with a core point within ε. That
//!    is the canonical form [`mod@crate::par_dbscan`] proves equal to
//!    sequential [`crate::dbscan::dbscan`].
//!
//! Every ε-membership test is the index's [`RangePredicate`], so labels
//! and core flags equal `dbscan`'s bit for bit. Neighbour cells come from
//! a walk over the sorted list of *occupied* cells, never from the
//! (2⌈√d⌉+1)^d lattice around a cell.
//!
//! # When the cells are used
//!
//! The cells are built only if the index compares in
//! `f64` (an `f32` index answers a slightly different predicate near ε,
//! which the geometric shortcuts of step 1 cannot reproduce), the
//! metric's cell passes the diameter check, and every axis spans fewer
//! than 2²⁶ cells (past that, the key rounding eats the margin). The
//! drivers then take the cell path only when at least
//! [`DENSE_SHARE_FOR_CELLS`] of the points lie in dense cells. Below that
//! share most points need a point-by-point count anyway, and the index's
//! range queries are the cheaper way to get it.
//!
//! The cell path runs on one thread as one partition: the thread and
//! partition counts of [`crate::par_dbscan::par_dbscan_with_scp`] and
//! [`crate::partitioned::partitioned_dbscan_with_scp`] (the CLI's
//! `--threads` and `--partitions`) have no effect on a site that takes
//! it.

use crate::dbscan::DbscanResult;
use crate::union_find::UnionFind;
use dbdc_geom::{Clustering, Dataset, Label};
use dbdc_index::{Precision, RangePredicate};

/// The share of points in dense cells at and above which the drivers
/// cluster on cells instead of issuing one range query per point.
///
/// Measured (best of 3, 2-CPU x86-64 host) against three index paths
/// over the R\*-tree: sequential [`crate::scp::dbscan_with_scp`],
/// [`crate::par_dbscan::par_dbscan_with_scp`] at 2 threads (the host's
/// full count) and [`crate::partitioned::partitioned_dbscan_with_scp`]
/// at 2 partitions × 2 threads. The cell path runs on one thread. Times
/// are cells / fastest index path:
///
/// | site | eps, MinPts | share | cells | fastest index |
/// |---|---|---|---|---|
/// | 2-D, 50k, dataset A | 1.0, 5 | 0.951 | 15 ms | 233 ms (seq.) |
/// | | 1.0, 100 | 0.603 | 32 ms | 236 ms (seq.) |
/// | | 0.5, 25 | 0.607 | 33 ms | 199 ms (seq.) |
/// | | 0.5, 30 | 0.413 | 23 ms | 126 ms (seq.) |
/// | | 0.1, 5 | 0.028 | 69 ms | 53 ms (part.) |
/// | | 0.05, 5 | 0.000 | 41 ms | 37 ms (part.) |
/// | 8-D, 21k, `hyper_blobs` | 8.1, 17 | 0.759 | 31 ms | 919 ms (seq.) |
/// | | 7.2, 17 | 0.611 | 36 ms | 731 ms (seq.) |
/// | | 6.3, 17 | 0.439 | 179 ms | 992 ms (seq.) |
/// | | 5.4, 17 | 0.135 | 325 ms | 790 ms (seq.) |
/// | | 1.8, 17 | 0.000 | 4979 ms | 290 ms (part.) |
///
/// Near a share of ½ the cells win by 5× or more against every index
/// path; on dense sites the threaded index paths were slower than the
/// sequential one, since they hold every ε-neighborhood in memory. The
/// index paths win only on sparse sites (share ≤ 0.03), far below ½. A
/// share of ½ keeps every measured 2-D site of the benchmark
/// (0.93–0.95) on cells and every sparse high-dimensional one (0.000) on
/// the index. Hosts with many more cores than measured here may move
/// the crossover, since only the index paths use the threads.
pub const DENSE_SHARE_FOR_CELLS: f64 = 0.5;

/// Relative shrink of the cell side below the metric's exact cube side.
const SIDE_MARGIN: f64 = 1e-6;

/// Cells per axis above which a site stays on the index path.
const KEY_LIMIT: f64 = (1u64 << 26) as f64;

/// Largest per-axis cell offset a neighbour cell may have. The Euclidean
/// metric needs 1 + ⌊√d⌋, so this covers every dimension below 900.
const MAX_REACH: i64 = 32;

/// The occupied cells of one site, sorted by key, with each cell's
/// points and its occupied neighbour cells.
pub(crate) struct CellGrid {
    /// Point ids grouped by cell; ascending within each cell.
    order: Vec<u32>,
    /// Cell `c` holds `order[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    /// The cell of every point.
    cell_of: Vec<u32>,
    /// Neighbour cells of `c` (itself excluded) are
    /// `nbrs[nbr_start[c]..nbr_start[c + 1]]`, adjacent ones first.
    nbrs: Vec<u32>,
    nbr_start: Vec<u32>,
    /// The first `n_adjacent[c]` neighbours of `c` are adjacent to it.
    n_adjacent: Vec<u32>,
}

impl CellGrid {
    /// Builds the grid of `data` for radius `eps` under `pred`, or `None`
    /// when the site stays on the index path: the predicate is not `f64`,
    /// the cells cannot be keyed exactly, or (unless `force`) fewer than
    /// [`DENSE_SHARE_FOR_CELLS`] of the points lie in cells of at least
    /// `min_pts` points.
    pub(crate) fn build(
        data: &Dataset,
        pred: &RangePredicate,
        eps: f64,
        min_pts: usize,
        force: bool,
    ) -> Option<CellGrid> {
        let n = data.len();
        let dim = data.dim();
        if n == 0 || pred.precision() != Precision::F64 {
            return None;
        }
        let metric = pred.metric();
        let zeros = vec![0.0; dim];
        let bound = metric.to_surrogate(eps);

        // The side of a cube whose diagonal is ε, shrunk by the margin.
        // The check below proves (for any metric monotone in the
        // per-axis gaps) that two points of one cell are within ε even
        // after the key rounding widens the cell by 2⁻²⁵ of a side.
        let unit = metric.dist(&vec![1.0; dim], &zeros);
        let side = eps / unit * (1.0 - SIDE_MARGIN);
        let widened = vec![side * (1.0 + 1e-7); dim];
        if !(side > 0.0 && metric.surrogate(&widened, &zeros) <= bound * (1.0 - 1e-7)) {
            return None;
        }

        // A cell at offset Δ can hold a point within ε only if the box
        // gap ((|Δᵢ| − 1)⁺ · side) is within ε; the gap is shrunk again
        // so key rounding can never exclude a true neighbour.
        let gap_within = |delta: &[i64], gap: &mut Vec<f64>| {
            gap.clear();
            gap.extend(
                delta
                    .iter()
                    .map(|&d| (d.abs() - 1).max(0) as f64 * side * (1.0 - SIDE_MARGIN)),
            );
            metric.surrogate(gap, &zeros) <= bound
        };
        // `reach`: the largest offset on one axis that passes the gap test.
        let mut gap = Vec::with_capacity(dim);
        let mut reach = 1i64;
        let mut axis_delta = vec![0i64; dim];
        loop {
            axis_delta[0] = reach + 1;
            if !gap_within(&axis_delta, &mut gap) {
                break;
            }
            reach += 1;
            if reach > MAX_REACH {
                return None;
            }
        }

        // Integer keys relative to the lower corner of the bounding box.
        let rect = data.bounding_rect().expect("non-empty dataset");
        let lo = rect.lo();
        if (0..dim).any(|a| (rect.hi()[a] - lo[a]) / side >= KEY_LIMIT) {
            return None;
        }
        let key_of = |p: &[f64], a: usize| ((p[a] - lo[a]) / side).floor() as i64;
        if !force && dense_share(data, key_of, min_pts) < DENSE_SHARE_FOR_CELLS {
            return None;
        }
        let keys: Vec<i64> = data
            .iter()
            .flat_map(|p| (0..dim).map(move |a| key_of(p, a)))
            .collect();
        let key = |i: u32| &keys[i as usize * dim..(i as usize + 1) * dim];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));

        let mut start: Vec<u32> = Vec::new();
        let mut cell_keys: Vec<i64> = Vec::new();
        let mut cell_of = vec![0u32; n];
        for (pos, &i) in order.iter().enumerate() {
            if pos == 0 || key(order[pos - 1]) != key(i) {
                start.push(pos as u32);
                cell_keys.extend_from_slice(key(i));
            }
            cell_of[i as usize] = (start.len() - 1) as u32;
        }
        start.push(n as u32);
        let n_cells = start.len() - 1;

        let walk = SortedWalk {
            keys: &cell_keys,
            dim,
            reach,
        };
        let mut nbrs: Vec<u32> = Vec::new();
        let mut nbr_start: Vec<u32> = Vec::with_capacity(n_cells + 1);
        let mut n_adjacent: Vec<u32> = Vec::with_capacity(n_cells);
        let mut candidates: Vec<u32> = Vec::new();
        let mut far: Vec<u32> = Vec::new();
        let mut delta = vec![0i64; dim];
        for c in 0..n_cells {
            nbr_start.push(nbrs.len() as u32);
            candidates.clear();
            walk.collect(c, 0, 0, n_cells, &mut candidates);
            far.clear();
            let kc = &cell_keys[c * dim..(c + 1) * dim];
            let mut adjacent = 0u32;
            for &b in &candidates {
                if b as usize == c {
                    continue;
                }
                let kb = &cell_keys[b as usize * dim..(b as usize + 1) * dim];
                for a in 0..dim {
                    delta[a] = kb[a] - kc[a];
                }
                if delta.iter().all(|d| d.abs() <= 1) {
                    nbrs.push(b);
                    adjacent += 1;
                } else if gap_within(&delta, &mut gap) {
                    far.push(b);
                }
            }
            nbrs.extend_from_slice(&far);
            n_adjacent.push(adjacent);
        }
        nbr_start.push(nbrs.len() as u32);

        Some(CellGrid {
            order,
            start,
            cell_of,
            nbrs,
            nbr_start,
            n_adjacent,
        })
    }

    /// Number of occupied cells.
    pub(crate) fn n_cells(&self) -> usize {
        self.start.len() - 1
    }

    /// The cell holding point `p`.
    pub(crate) fn cell_of(&self, p: u32) -> usize {
        self.cell_of[p as usize] as usize
    }

    /// The points of cell `c`, ascending.
    pub(crate) fn members(&self, c: usize) -> &[u32] {
        &self.order[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// The occupied cells that may hold a point within ε of a point of
    /// `c`, `c` itself excluded, adjacent ones first.
    pub(crate) fn neighbours(&self, c: usize) -> &[u32] {
        &self.nbrs[self.nbr_start[c] as usize..self.nbr_start[c + 1] as usize]
    }

    /// The neighbours of `c` within one cell on every axis.
    fn adjacent(&self, c: usize) -> &[u32] {
        &self.neighbours(c)[..self.n_adjacent[c] as usize]
    }

    /// The neighbours of `c` farther than one cell on some axis.
    fn far(&self, c: usize) -> &[u32] {
        &self.neighbours(c)[self.n_adjacent[c] as usize..]
    }
}

/// The share of the points of `data` that lie in cells of at least
/// `min_pts` points, with `key(p, axis)` a point's cell key. Cells are
/// told apart by a 64-bit hash of their key, so the check costs one word
/// per point in any dimension, and a site that stays on the index path
/// never builds the grid. A hash collision could only merge two cells
/// and raise the share: it can steer the path choice, never a result.
fn dense_share(data: &Dataset, key: impl Fn(&[f64], usize) -> i64, min_pts: usize) -> f64 {
    let mut hashes: Vec<u64> = data
        .iter()
        .map(|p| (0..data.dim()).fold(0u64, |h, a| splitmix(h ^ key(p, a) as u64)))
        .collect();
    hashes.sort_unstable();
    let mut dense = 0;
    let mut run_start = 0;
    for i in 1..=hashes.len() {
        if i == hashes.len() || hashes[i] != hashes[run_start] {
            if i - run_start >= min_pts {
                dense += i - run_start;
            }
            run_start = i;
        }
    }
    dense as f64 / hashes.len() as f64
}

/// The splitmix64 finalizer: a bijective 64-bit mix.
fn splitmix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A range walk over the lexicographically sorted cell keys: axis by
/// axis, it descends only into key prefixes that occur, so it touches
/// occupied cells and never enumerates the empty lattice between them.
struct SortedWalk<'a> {
    keys: &'a [i64],
    dim: usize,
    reach: i64,
}

impl SortedWalk<'_> {
    fn key(&self, cell: usize, axis: usize) -> i64 {
        self.keys[cell * self.dim + axis]
    }

    /// First cell in `[lo, hi)` whose key on `axis` exceeds `limit`
    /// (the cells in the range agree on every earlier axis, so their
    /// keys on `axis` are sorted).
    fn first_above(&self, axis: usize, lo: usize, hi: usize, limit: i64) -> usize {
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid, axis) <= limit {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Appends every cell in `[lo, hi)` within `reach` of cell `c` on
    /// every axis from `axis` on.
    fn collect(&self, c: usize, axis: usize, lo: usize, hi: usize, out: &mut Vec<u32>) {
        let kc = self.key(c, axis);
        let mut a = self.first_above(axis, lo, hi, kc - self.reach - 1);
        while a < hi {
            let v = self.key(a, axis);
            if v > kc + self.reach {
                break;
            }
            let b = self.first_above(axis, a, hi, v);
            if axis + 1 == self.dim {
                out.push(a as u32);
            } else {
                self.collect(c, axis + 1, a, b, out);
            }
            a = b;
        }
    }
}

/// Exact DBSCAN over the cells of `grid`: the labels and core flags of
/// [`crate::dbscan::dbscan`] under the same predicate, with no range
/// query (`range_queries` is 0). Every distance computed is added to
/// `evals`.
pub(crate) fn cell_dbscan(
    data: &Dataset,
    grid: &CellGrid,
    pred: &RangePredicate,
    eps: f64,
    min_pts: usize,
    evals: &mut u64,
) -> DbscanResult {
    let n = data.len();
    let n_cells = grid.n_cells();
    let within = |p: u32, q: u32, evals: &mut u64| {
        *evals += 1;
        pred.within(data.point(p), data.point(q), eps)
    };

    // 1. Core flags: dense cells need no distance, sparse-cell points
    //    count across neighbour cells until they reach MinPts.
    let mut core = vec![false; n];
    for c in 0..n_cells {
        let members = grid.members(c);
        if members.len() >= min_pts {
            for &p in members {
                core[p as usize] = true;
            }
            continue;
        }
        for &p in members {
            let mut count = members.len();
            'count: for &b in grid.neighbours(c) {
                for &q in grid.members(b as usize) {
                    if within(p, q, evals) {
                        count += 1;
                        if count >= min_pts {
                            break 'count;
                        }
                    }
                }
            }
            core[p as usize] = count >= min_pts;
        }
    }
    let has_core: Vec<bool> = (0..n_cells)
        .map(|c| grid.members(c).iter().any(|&p| core[p as usize]))
        .collect();

    // 2. Join core cells that hold a core pair within ε, adjacent
    //    cells first so the far pass mostly finds them joined already.
    let mut sets = UnionFind::new(n_cells);
    let linked = |a: usize, b: usize, evals: &mut u64| {
        grid.members(a)
            .iter()
            .filter(|&&p| core[p as usize])
            .any(|&p| {
                grid.members(b)
                    .iter()
                    .any(|&q| core[q as usize] && within(p, q, evals))
            })
    };
    for pass in 0..2 {
        for a in 0..n_cells {
            if !has_core[a] {
                continue;
            }
            let others = if pass == 0 {
                grid.adjacent(a)
            } else {
                grid.far(a)
            };
            for &b in others {
                let b = b as usize;
                if b > a
                    && has_core[b]
                    && sets.find(a as u32) != sets.find(b as u32)
                    && linked(a, b, evals)
                {
                    sets.union(a as u32, b as u32);
                }
            }
        }
    }

    // 3. Number the clusters by their lowest core id.
    const NONE: u32 = u32::MAX;
    let mut cluster_of_root = vec![NONE; n_cells];
    let mut cluster_of_cell = vec![NONE; n_cells];
    let mut next = 0u32;
    for p in 0..n as u32 {
        if !core[p as usize] {
            continue;
        }
        let c = grid.cell_of(p);
        if cluster_of_cell[c] == NONE {
            let root = sets.find(c as u32) as usize;
            if cluster_of_root[root] == NONE {
                cluster_of_root[root] = next;
                next += 1;
            }
            cluster_of_cell[c] = cluster_of_root[root];
        }
    }

    // Border points join the lowest-numbered cluster with a core point
    // within ε; a core point of their own cell always is.
    let mut labels = vec![Label::Noise; n];
    for p in 0..n as u32 {
        let c = grid.cell_of(p);
        if core[p as usize] {
            labels[p as usize] = Label::Cluster(cluster_of_cell[c]);
            continue;
        }
        let mut best = cluster_of_cell[c];
        for &b in grid.neighbours(c) {
            let b = b as usize;
            if cluster_of_cell[b] < best
                && grid
                    .members(b)
                    .iter()
                    .any(|&q| core[q as usize] && within(p, q, evals))
            {
                best = cluster_of_cell[b];
            }
        }
        if best != NONE {
            labels[p as usize] = Label::Cluster(best);
        }
    }

    DbscanResult {
        clustering: Clustering::from_labels(labels),
        core,
        range_queries: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_geom::Euclidean;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(dim: usize, n: usize, spread: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(dim);
        for _ in 0..n {
            let p: Vec<f64> = (0..dim)
                .map(|_| rng.random_range(-spread..spread))
                .collect();
            d.push(&p);
        }
        d
    }

    #[test]
    fn cells_are_within_eps_and_neighbours_cover_every_pair() {
        let pred = RangePredicate::new(&Euclidean, Precision::F64);
        for dim in 1..=4 {
            for (eps, seed) in [(0.5, 1), (1.0, 2), (3.0, 3)] {
                let d = random_data(dim, 300, 4.0, seed + 10 * dim as u64);
                let grid = CellGrid::build(&d, &pred, eps, 4, true).expect("fits");
                for p in 0..d.len() as u32 {
                    let cp = grid.cell_of(p);
                    for q in 0..d.len() as u32 {
                        let cq = grid.cell_of(q);
                        let near = pred.within(d.point(p), d.point(q), eps);
                        if cp == cq {
                            assert!(near, "dim {dim}: {p} and {q} share a cell");
                        } else if near {
                            assert!(
                                grid.neighbours(cp).contains(&(cq as u32)),
                                "dim {dim}: cell of {q} missing next to {p}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn path_choice_follows_the_dense_share() {
        let pred = RangePredicate::new(&Euclidean, Precision::F64);
        // 40 copies of one point: every point in one dense cell.
        let dense = Dataset::from_flat(2, [1.0, 2.0].repeat(40));
        assert!(CellGrid::build(&dense, &pred, 1.0, 5, false).is_some());
        // Points 10 apart: no dense cell at all.
        let sparse = Dataset::from_flat(1, (0..40).map(|i| i as f64 * 10.0).collect());
        assert!(CellGrid::build(&sparse, &pred, 1.0, 5, false).is_none());
        assert!(CellGrid::build(&sparse, &pred, 1.0, 5, true).is_some());
        // An f32 index compares differently near ε: never on cells.
        let f32_pred = RangePredicate::new(&Euclidean, Precision::F32);
        assert!(CellGrid::build(&dense, &f32_pred, 1.0, 5, true).is_none());
    }
}
