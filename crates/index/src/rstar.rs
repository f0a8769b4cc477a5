//! R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990).
//!
//! This is the spatial access method the paper uses for DBSCAN's region
//! queries (reference \[3\]). Each site clusters its complete local data
//! in one pass (§4), so the whole point set is known when the tree is
//! built: it is STR (sort-tile-recursive) bulk-loaded once and then only
//! queried. The tree lives in one preorder flat arena — node pool, child
//! lists, bounding boxes and traversal-ordered leaf coordinate blocks —
//! that ε-range queries walk with an explicit stack and kNN queries
//! best-first.
//!
//! Leaf entries are point indices into the borrowed [`Dataset`]; every
//! node's bounding box sits in the arena, so queries never touch
//! coordinates except to verify leaf candidates.

use crate::linear::ordered::F64;
use crate::{dist_to_box, scan_block, scan_block_f32, with_scratch, NeighborIndex, QueryWorkspace};
use crate::{IndexKind, Precision, QueryF32, RangePredicate};
use dbdc_geom::{Dataset, Metric, Rect};
use dbdc_obs::CounterSheet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// STR bulk-load fill factor: entries per node.
const STR_FILL: usize = 24;

/// The tree as five contiguous `Vec`s in preorder. Leaf points are
/// packed into traversal-ordered structure-of-arrays blocks so every
/// leaf scan is one batched [`Metric::surrogate_batch`] call.
#[derive(Debug)]
struct FlatRStar {
    /// Node pool in preorder; root at 0. Empty for an empty dataset.
    nodes: Vec<FlatRNode>,
    /// Child node ids of the inner nodes, concatenated in child order.
    children: Vec<u32>,
    /// Node `i`'s bounding box at `[i * 2 * dim, (i + 1) * 2 * dim)`:
    /// `dim` low coordinates, then `dim` high.
    bounds: Vec<f64>,
    /// Leaf point ids in traversal order.
    ids: Vec<u32>,
    /// Per-leaf SoA coordinate blocks, same order as `ids`. Empty when
    /// the arena was narrowed to [`Precision::F32`].
    coords: Vec<f64>,
    /// `f32` twin of `coords`, populated instead of it under
    /// [`Precision::F32`].
    coords32: Vec<f32>,
    precision: Precision,
    dim: usize,
}

#[derive(Debug, Clone, Copy)]
enum FlatRNode {
    Leaf {
        /// First point in the `ids` arena.
        start: u32,
        len: u32,
        /// Offset of the leaf's SoA block in `coords` (coordinate `d`
        /// of the `k`-th point at `coords + d * len + k`).
        coords: u32,
    },
    Inner {
        /// First child in the `children` arena.
        start: u32,
        len: u32,
    },
}

/// One node of the build-local STR hierarchy: its bounding box and its
/// run `entries[start..start + len]` of the level's entry list.
struct Tile {
    rect: Rect,
    start: u32,
    len: u32,
}

/// One level of the STR hierarchy. Entries are point ids at the leaf
/// level and tile indices into the level below everywhere else.
struct Level {
    entries: Vec<u32>,
    tiles: Vec<Tile>,
}

impl Level {
    /// STR-tiles `points` (the data points at the leaf level, the
    /// centers of the level below otherwise) into nodes of at most
    /// [`STR_FILL`] entries; `bound` gives a node's box from its run.
    fn tile(points: &Dataset, bound: impl Fn(&[u32]) -> Rect) -> Level {
        let mut entries: Vec<u32> = (0..points.len() as u32).collect();
        let mut tiles = Vec::new();
        // `str_tile` emits consecutive runs of `entries`, left to right,
        // each final by the time it is emitted.
        let mut start = 0u32;
        str_tile(points, &mut entries, 0, &mut |run| {
            tiles.push(Tile {
                rect: bound(run),
                start,
                len: run.len() as u32,
            });
            start += run.len() as u32;
        });
        Level { entries, tiles }
    }

    /// Tile `t`'s entries.
    fn run(&self, t: u32) -> &[u32] {
        let t = &self.tiles[t as usize];
        &self.entries[t.start as usize..(t.start + t.len) as usize]
    }
}

/// Packs `data` bottom-up into STR levels, leaves first, until a single
/// root tile remains. `data` must be non-empty.
fn str_levels(data: &Dataset) -> Vec<Level> {
    let leaves = Level::tile(data, |run| {
        Rect::bounding(run.iter().map(|&i| data.point(i))).expect("run is non-empty")
    });
    let mut levels = vec![leaves];
    while let Some(below) = levels.last().filter(|l| l.tiles.len() > 1) {
        // Inner nodes are tiled by their children's box centers.
        let centers: Vec<f64> = below.tiles.iter().flat_map(|t| t.rect.center()).collect();
        let up = Level::tile(&Dataset::from_flat(data.dim(), centers), |run| {
            run.iter()
                .map(|&i| &below.tiles[i as usize].rect)
                .fold(None::<Rect>, |acc, r| {
                    Some(acc.map_or_else(|| r.clone(), |a| a.union(r)))
                })
                .expect("run is non-empty")
        });
        levels.push(up);
    }
    levels
}

impl FlatRStar {
    fn empty(dim: usize, n: usize) -> FlatRStar {
        FlatRStar {
            nodes: Vec::new(),
            children: Vec::new(),
            bounds: Vec::new(),
            ids: Vec::with_capacity(n),
            coords: Vec::with_capacity(n * dim),
            coords32: Vec::new(),
            precision: Precision::F64,
            dim,
        }
    }

    /// Lays the STR hierarchy out in preorder with up to `threads`
    /// workers, fanning out over the root's children. Each worker lays
    /// out its subtrees into private arenas which are then spliced back
    /// in child order, so the result is bit-identical to the sequential
    /// (`threads == 1`) layout.
    fn build(data: &Dataset, levels: &[Level], threads: usize) -> FlatRStar {
        let mut flat = FlatRStar::empty(data.dim(), data.len());
        let root = levels.len() - 1;
        let kids = levels[root].run(0);
        if threads <= 1 || root == 0 || kids.len() <= 1 {
            flat.add(data, levels, root, 0);
            return flat;
        }
        let rect = &levels[root].tiles[0].rect;
        flat.bounds.extend_from_slice(rect.lo());
        flat.bounds.extend_from_slice(rect.hi());
        flat.nodes.push(FlatRNode::Inner { start: 0, len: 0 });
        let workers = threads.min(kids.len());
        let chunk = kids.len().div_ceil(workers);
        // Each worker lays out a contiguous run of root subtrees into
        // fresh arenas; joining in spawn order restores child order.
        let subs: Vec<FlatRStar> = std::thread::scope(|s| {
            let handles: Vec<_> = kids
                .chunks(chunk)
                .map(|run| {
                    s.spawn(move || {
                        run.iter()
                            .map(|&c| {
                                let mut sub = FlatRStar::empty(data.dim(), 0);
                                sub.add(data, levels, root - 1, c);
                                sub
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("r*-tree layout worker panicked"))
                .collect()
        });
        let kid_ids: Vec<u32> = subs.into_iter().map(|sub| flat.splice(sub)).collect();
        // The root's child list lands after every subtree's own
        // children entries, exactly as the sequential `add` appends it.
        let start = flat.children.len() as u32;
        flat.children.extend_from_slice(&kid_ids);
        flat.nodes[0] = FlatRNode::Inner {
            start,
            len: kid_ids.len() as u32,
        };
        flat
    }

    /// Appends `sub`'s arenas to `self`, rebasing every intra-arena
    /// offset, and returns the new node id of `sub`'s root. A subtree
    /// occupies one contiguous run of every arena in the sequential
    /// layout, so splicing a privately built subtree reproduces the
    /// in-place layout exactly.
    fn splice(&mut self, sub: FlatRStar) -> u32 {
        let node_base = self.nodes.len() as u32;
        let children_base = self.children.len() as u32;
        let ids_base = self.ids.len() as u32;
        let coords_base = self.coords.len() as u32;
        for n in sub.nodes {
            self.nodes.push(match n {
                FlatRNode::Leaf { start, len, coords } => FlatRNode::Leaf {
                    start: start + ids_base,
                    len,
                    coords: coords + coords_base,
                },
                FlatRNode::Inner { start, len } => FlatRNode::Inner {
                    start: start + children_base,
                    len,
                },
            });
        }
        self.children
            .extend(sub.children.iter().map(|&c| c + node_base));
        self.bounds.extend_from_slice(&sub.bounds);
        self.ids.extend_from_slice(&sub.ids);
        self.coords.extend_from_slice(&sub.coords);
        node_base
    }

    /// Appends tile `t` of level `level` and its subtree in preorder,
    /// children in tile order, and returns its node id.
    fn add(&mut self, data: &Dataset, levels: &[Level], level: usize, t: u32) -> u32 {
        let me = self.nodes.len() as u32;
        let rect = &levels[level].tiles[t as usize].rect;
        self.bounds.extend_from_slice(rect.lo());
        self.bounds.extend_from_slice(rect.hi());
        let run = levels[level].run(t);
        if level == 0 {
            let start = self.ids.len() as u32;
            let coords = self.coords.len() as u32;
            self.ids.extend_from_slice(run);
            for d in 0..self.dim {
                for &i in run {
                    self.coords.push(data.point(i)[d]);
                }
            }
            self.nodes.push(FlatRNode::Leaf {
                start,
                len: run.len() as u32,
                coords,
            });
        } else {
            // Reserve the parent slot, append the subtrees, then patch
            // the child range in.
            self.nodes.push(FlatRNode::Inner { start: 0, len: 0 });
            let kid_ids: Vec<u32> = run
                .iter()
                .map(|&c| self.add(data, levels, level - 1, c))
                .collect();
            let start = self.children.len() as u32;
            self.children.extend_from_slice(&kid_ids);
            self.nodes[me as usize] = FlatRNode::Inner {
                start,
                len: kid_ids.len() as u32,
            };
        }
        me
    }

    /// Node `n`'s bounding box as `(lo, hi)` slices.
    #[inline]
    fn node_bounds(&self, n: u32) -> (&[f64], &[f64]) {
        let off = n as usize * 2 * self.dim;
        let b = &self.bounds[off..off + 2 * self.dim];
        b.split_at(self.dim)
    }
}

/// A static R*-tree over a borrowed dataset.
#[derive(Debug)]
pub struct RStarTree<'a, M> {
    data: &'a Dataset,
    metric: M,
    flat: FlatRStar,
    sheet: Option<Arc<CounterSheet>>,
}

impl<'a, M: Metric> RStarTree<'a, M> {
    /// Attaches a counter sheet recording per-query work.
    pub fn observed(mut self, sheet: Arc<CounterSheet>) -> Self {
        self.sheet = Some(sheet);
        self
    }

    /// Bulk-loads all points of `data` with the STR algorithm.
    pub fn bulk_load(data: &'a Dataset, metric: M) -> Self {
        Self::bulk_load_opts(data, metric, 1, Precision::F64)
    }

    /// Bulk-loads with `threads` construction workers and the given
    /// scan-path precision. The STR tiling itself stays sequential (it
    /// is a cheap series of sorts); the arena layout fans out over the
    /// root's children and is bit-identical across thread counts. Under
    /// [`Precision::F32`] the leaf blocks are narrowed after the
    /// fully-`f64` build.
    pub fn bulk_load_opts(
        data: &'a Dataset,
        metric: M,
        threads: usize,
        precision: Precision,
    ) -> Self {
        let mut flat = if data.is_empty() {
            FlatRStar::empty(data.dim(), 0)
        } else {
            FlatRStar::build(data, &str_levels(data), threads.max(1))
        };
        if precision == Precision::F32 {
            flat.coords32 = flat.coords.iter().map(|&x| x as f32).collect();
            flat.coords = Vec::new();
            flat.precision = Precision::F32;
        }
        Self {
            data,
            metric,
            flat,
            sheet: None,
        }
    }

    /// Serializes the arenas to a stable bit pattern (empty for an
    /// empty dataset). Test hook for the construction-identity gate:
    /// parallel layout must be byte-for-byte equal to sequential.
    #[doc(hidden)]
    pub fn arena_bits(&self) -> Vec<u64> {
        let flat = &self.flat;
        let mut v = Vec::new();
        for n in &flat.nodes {
            match *n {
                FlatRNode::Leaf { start, len, coords } => {
                    v.extend_from_slice(&[0, start as u64, len as u64, coords as u64]);
                }
                FlatRNode::Inner { start, len } => {
                    v.extend_from_slice(&[1, start as u64, len as u64, 0]);
                }
            }
        }
        v.extend(flat.children.iter().map(|&c| c as u64));
        v.extend(flat.bounds.iter().map(|b| b.to_bits()));
        v.extend(flat.ids.iter().map(|&i| i as u64));
        v.extend(flat.coords.iter().map(|c| c.to_bits()));
        v.extend(flat.coords32.iter().map(|c| c.to_bits() as u64));
        v
    }
}

/// Recursive STR tiling: partitions `ids` (point indices into `data`) into
/// chunks of at most [`STR_FILL`] and calls `emit` for each.
fn str_tile(data: &Dataset, ids: &mut [u32], axis: usize, emit: &mut impl FnMut(&[u32])) {
    if ids.len() <= STR_FILL {
        if !ids.is_empty() {
            emit(ids);
        }
        return;
    }
    let dim = data.dim();
    if axis + 1 == dim {
        // Last axis: sort and cut into runs.
        ids.sort_by(|&a, &b| data.point(a)[axis].total_cmp(&data.point(b)[axis]));
        for chunk in ids.chunks(STR_FILL) {
            emit(chunk);
        }
        return;
    }
    // Number of slabs along this axis: ceil((n / fill)^(1/remaining_axes)).
    let n_nodes = ids.len().div_ceil(STR_FILL);
    let remaining = (dim - axis) as f64;
    let slabs = (n_nodes as f64).powf(1.0 / remaining).ceil() as usize;
    let slabs = slabs.max(1);
    let per_slab = ids.len().div_ceil(slabs);
    ids.sort_by(|&a, &b| data.point(a)[axis].total_cmp(&data.point(b)[axis]));
    let mut rest = ids;
    while !rest.is_empty() {
        let take = per_slab.min(rest.len());
        let (slab, tail) = rest.split_at_mut(take);
        str_tile(data, slab, axis + 1, emit);
        rest = tail;
    }
}

impl<M: Metric> NeighborIndex for RStarTree<'_, M> {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn predicate(&self) -> RangePredicate<'_> {
        RangePredicate::for_kind(IndexKind::RStar, &self.metric, self.flat.precision)
    }

    fn counter_sheet(&self) -> Option<&CounterSheet> {
        self.sheet.as_deref()
    }

    fn range(&self, q: &[f64], eps: f64, out: &mut Vec<u32>) {
        with_scratch(|ws| self.range_with(q, eps, out, ws));
    }

    fn range_with(&self, q: &[f64], eps: f64, out: &mut Vec<u32>, ws: &mut QueryWorkspace) {
        out.clear();
        let flat = &self.flat;
        let mut evals = 0u64;
        let mut visits = 0u64;
        let bound = self.metric.to_surrogate(eps);
        // Box pruning stays f64 in both precisions (bounds are exact);
        // only the leaf candidate test narrows.
        let q32 = match flat.precision {
            Precision::F32 => Some(QueryF32::new(q)),
            Precision::F64 => None,
        };
        ws.stack.clear();
        if !flat.nodes.is_empty() {
            ws.stack.push(0);
        }
        while let Some(n) = ws.stack.pop() {
            // A node counts as visited when the search descends into
            // it: only the root and nodes whose box passed the test are
            // ever pushed.
            visits += 1;
            match flat.nodes[n as usize] {
                FlatRNode::Leaf { start, len, coords } => {
                    evals += len as u64;
                    let (start, len, coords) = (start as usize, len as usize, coords as usize);
                    match &q32 {
                        None => scan_block(
                            &self.metric,
                            q,
                            &flat.ids[start..start + len],
                            &flat.coords[coords..coords + flat.dim * len],
                            len,
                            bound,
                            out,
                        ),
                        Some(q32) => scan_block_f32(
                            &self.metric,
                            q32.as_slice(),
                            &flat.ids[start..start + len],
                            &flat.coords32[coords..coords + flat.dim * len],
                            len,
                            bound as f32,
                            out,
                        ),
                    }
                }
                FlatRNode::Inner { start, len } => {
                    // Children pushed in reverse so they pop — and their
                    // subtrees complete — in child order.
                    let kids = &flat.children[start as usize..(start + len) as usize];
                    for &c in kids.iter().rev() {
                        let (lo, hi) = flat.node_bounds(c);
                        if self.metric.surrogate_dist_to_box(q, lo, hi) <= bound {
                            ws.stack.push(c);
                        }
                    }
                }
            }
        }
        if let Some(s) = &self.sheet {
            s.record_range(evals, visits);
        }
    }

    fn knn(&self, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        let flat = &self.flat;
        if k == 0 || flat.nodes.is_empty() {
            return Vec::new();
        }
        // Best-first search over nodes and points. Every entry's key
        // carries a unique push-order tiebreak, so the key alone orders
        // the heap and equidistant points pop in push order.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Item {
            Node(u32),
            Point(u32),
        }
        let mut frontier: BinaryHeap<(Reverse<(F64, usize)>, Item)> = BinaryHeap::new();
        let mut tiebreak = 0usize;
        frontier.push((Reverse((F64(0.0), tiebreak)), Item::Node(0)));
        let mut out: Vec<(u32, f64)> = Vec::with_capacity(k);
        let mut evals = 0u64;
        let mut visits = 0u64;
        while let Some((Reverse((F64(d), _)), item)) = frontier.pop() {
            if out.len() == k {
                break;
            }
            let n = match item {
                Item::Point(i) => {
                    out.push((i, d));
                    continue;
                }
                Item::Node(n) => n,
            };
            visits += 1;
            match flat.nodes[n as usize] {
                FlatRNode::Leaf { start, len, .. } => {
                    evals += len as u64;
                    // Exact distances come from the f64 dataset: the
                    // leaf blocks may be narrowed to f32.
                    for &i in &flat.ids[start as usize..(start + len) as usize] {
                        tiebreak += 1;
                        let pd = self.metric.dist(q, self.data.point(i));
                        frontier.push((Reverse((F64(pd), tiebreak)), Item::Point(i)));
                    }
                }
                FlatRNode::Inner { start, len } => {
                    for &c in &flat.children[start as usize..(start + len) as usize] {
                        tiebreak += 1;
                        let (lo, hi) = flat.node_bounds(c);
                        let nd = dist_to_box(&self.metric, q, lo, hi);
                        frontier.push((Reverse((F64(nd), tiebreak)), Item::Node(c)));
                    }
                }
            }
        }
        if let Some(s) = &self.sheet {
            s.record_knn(evals, visits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use dbdc_geom::{Euclidean, Manhattan};

    #[test]
    fn bulk_load_matches_linear() {
        let d = testutil::random_dataset(800, 21);
        let idx = RStarTree::bulk_load(&d, Euclidean);
        testutil::check_against_linear(&idx, &d, Euclidean);
    }

    #[test]
    fn bulk_load_manhattan() {
        let d = testutil::random_dataset(300, 22);
        let idx = RStarTree::bulk_load(&d, Manhattan);
        testutil::check_against_linear(&idx, &d, Manhattan);
    }

    #[test]
    fn empty_and_tiny() {
        let empty = Dataset::new(2);
        let idx = RStarTree::bulk_load(&empty, Euclidean);
        assert!(idx.is_empty());
        assert!(idx.arena_bits().is_empty());
        assert!(idx.range_vec(&[0.0, 0.0], 10.0).is_empty());
        assert!(idx.knn(&[0.0, 0.0], 2).is_empty());
        assert!(idx.knn(&[0.0, 0.0], 0).is_empty());

        let d = Dataset::from_flat(2, vec![1.0, 1.0, 2.0, 2.0]);
        let idx = RStarTree::bulk_load(&d, Euclidean);
        assert_eq!(idx.len(), 2);
        let nn = idx.knn(&[0.0, 0.0], 1);
        assert_eq!(nn[0].0, 0);
        assert!(idx.knn(&[0.0, 0.0], 0).is_empty());
        // k > n returns every point, nearest first.
        let all = idx.knn(&[0.0, 0.0], 5);
        assert_eq!(all.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 1]);
        assert!(all[0].1 < all[1].1);
    }

    #[test]
    fn duplicate_points() {
        let d = Dataset::from_flat(2, [5.0, 5.0].repeat(200));
        let idx = RStarTree::bulk_load(&d, Euclidean);
        assert_eq!(idx.range_vec(&[5.0, 5.0], 0.0).len(), 200);
        assert_eq!(idx.knn(&[5.0, 5.0], 300).len(), 200);
    }

    #[test]
    fn parallel_layout_is_bit_identical() {
        let d = testutil::random_dataset(4000, 41);
        let seq = RStarTree::bulk_load(&d, Euclidean).arena_bits();
        assert!(!seq.is_empty());
        for threads in [2, 3, 8] {
            let par = RStarTree::bulk_load_opts(&d, Euclidean, threads, Precision::F64);
            assert_eq!(seq, par.arena_bits(), "threads={threads}");
        }
    }

    #[test]
    fn f32_range_matches_oracle_away_from_boundary() {
        let d = testutil::random_dataset(800, 42);
        let oracle = RStarTree::bulk_load(&d, Euclidean);
        let narrow = RStarTree::bulk_load_opts(&d, Euclidean, 2, Precision::F32);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in (0..d.len() as u32).step_by(11) {
            for eps in [0.5, 3.0, 20.0] {
                oracle.range(d.point(i), eps, &mut a);
                narrow.range(d.point(i), eps, &mut b);
                total += 1;
                if a == b {
                    agree += 1;
                }
            }
        }
        assert!(
            agree * 100 >= total * 99,
            "f32 agreement too low: {agree}/{total}"
        );
    }
}
