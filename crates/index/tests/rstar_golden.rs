//! Golden pin of the R*-tree across commits: FNV-64 hashes of the STR
//! arena layout, of the ordered ε-range output, and of the kNN output
//! on fixed inputs. Representative selection (Def. 6) depends on the
//! order of range results and DBCV on the order of kNN results, so any
//! change to the layout, the traversal order or the per-query work
//! counters must show up here as a changed constant.
//!
//! Each input's constants were recorded with this same test body on the
//! last commit that still kept the pointer-based tree beside the arena.

use dbdc_geom::{Dataset, Euclidean};
use dbdc_index::{NeighborIndex, RStarTree};
use dbdc_obs::CounterSheet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// FNV-1a over the little-endian bytes of each word.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(mut self, ws: impl IntoIterator<Item = u64>) -> Self {
        for w in ws {
            self.word(w);
        }
        self
    }
}

fn uniform_2d(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::with_capacity(2, n);
    for _ in 0..n {
        d.push(&[rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0)]);
    }
    d
}

/// Query points: a stride through the data plus two off-data points.
fn queries(data: &Dataset) -> Vec<Vec<f64>> {
    let step = (data.len() / 17).max(1);
    data.iter()
        .step_by(step)
        .map(|p| p.to_vec())
        .chain([vec![0.0; data.dim()], vec![1e3; data.dim()]])
        .collect()
}

/// `(arena, range, knn)` hashes of one input. The range and kNN hashes
/// also fold in the distance evaluations and node visits the queries
/// recorded.
fn pin(data: &Dataset) -> (u64, u64, u64) {
    let sheet = Arc::new(CounterSheet::new());
    let tree = RStarTree::bulk_load(data, Euclidean).observed(Arc::clone(&sheet));
    let arena = Fnv::new().words(tree.arena_bits()).0;
    let qs = queries(data);

    let mut range = Fnv::new();
    let mut out = Vec::new();
    for q in &qs {
        for eps in [0.0, 0.5, 2.0, 8.0, 40.0] {
            tree.range(q, eps, &mut out);
            range.word(out.len() as u64);
            range = range.words(out.iter().map(|&i| i as u64));
        }
    }
    let c = sheet.snapshot();
    range = range.words([c.range_queries, c.distance_evals, c.node_visits]);

    let mut knn = Fnv::new();
    for q in &qs {
        for k in [1, 10, 65] {
            let nn = tree.knn(q, k);
            knn.word(nn.len() as u64);
            knn = knn.words(nn.iter().flat_map(|&(i, d)| [i as u64, d.to_bits()]));
        }
    }
    let after = sheet.snapshot();
    knn = knn.words([
        after.knn_queries,
        after.distance_evals - c.distance_evals,
        after.node_visits - c.node_visits,
    ]);
    (arena, range.0, knn.0)
}

#[test]
fn uniform_2d_4000() {
    assert_eq!(
        pin(&uniform_2d(4000, 2004)),
        (0x301ca6fcb3bd953c, 0x242dc0836196a857, 0xb468d8fd64a0928f)
    );
}

#[test]
fn duplicates_200() {
    let d = Dataset::from_flat(2, [5.0, 5.0].repeat(200));
    assert_eq!(
        pin(&d),
        (0xe34ef4d98c133616, 0xb6c75cd814f88742, 0xaea5663be57b3bee)
    );
}

#[test]
fn single_point() {
    let d = Dataset::from_flat(2, vec![1.5, -2.5]);
    assert_eq!(
        pin(&d),
        (0xf316a521ddd14445, 0x9e944dbd8d936a2b, 0x2d361924e216cbe7)
    );
}

#[test]
fn two_leaves_33() {
    assert_eq!(
        pin(&uniform_2d(33, 33)),
        (0x246092063339d82c, 0xe35b5e4306bf9f0d, 0x11e97bf4223cdc7e)
    );
}

#[test]
fn hyper_blobs_8d() {
    let g = dbdc_datagen::hyper_blobs(8, 4, 100, 7);
    assert_eq!(
        pin(&g.data),
        (0xfd596a996ad52592, 0xc2ab0fc1fe88801f, 0x996f642a54443dc4)
    );
}
