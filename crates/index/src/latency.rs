//! Per-query latency capture for any [`NeighborIndex`].
//!
//! [`LatencyObserved`] wraps a built index and times every `range` /
//! `knn` call into a shared [`HistSheet`], so reports carry the full
//! per-query latency *distribution* per backend — the paper's speedup
//! claim lives in the tail, not the mean. The wrapper composes with the
//! counter-observed backends: counters and latency are independent
//! layers, and a run that asks for neither goes through the raw index
//! with zero instrumentation cost.
//!
//! One histogram sheet serves both query kinds — DBSCAN issues ε-range
//! queries almost exclusively, and scope names (`…/eps_range_ns`) say
//! what was measured.

use std::sync::Arc;
use std::time::Instant;

use dbdc_obs::HistSheet;

use crate::{NeighborIndex, QueryWorkspace, RangePredicate};

/// A [`NeighborIndex`] that records each query's wall time in
/// nanoseconds into a [`HistSheet`].
pub struct LatencyObserved<'a> {
    inner: Box<dyn NeighborIndex + 'a>,
    hist: Arc<HistSheet>,
}

impl<'a> LatencyObserved<'a> {
    /// Wraps `inner`, recording every query into `hist`.
    pub fn new(inner: Box<dyn NeighborIndex + 'a>, hist: Arc<HistSheet>) -> LatencyObserved<'a> {
        LatencyObserved { inner, hist }
    }
}

impl NeighborIndex for LatencyObserved<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn predicate(&self) -> RangePredicate<'_> {
        self.inner.predicate()
    }

    fn counter_sheet(&self) -> Option<&dbdc_obs::CounterSheet> {
        self.inner.counter_sheet()
    }

    fn range(&self, q: &[f64], eps: f64, out: &mut Vec<u32>) {
        let t0 = Instant::now();
        self.inner.range(q, eps, out);
        self.hist.record_duration(t0.elapsed());
    }

    fn range_with(&self, q: &[f64], eps: f64, out: &mut Vec<u32>, ws: &mut QueryWorkspace) {
        let t0 = Instant::now();
        self.inner.range_with(q, eps, out, ws);
        self.hist.record_duration(t0.elapsed());
    }

    fn knn(&self, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        let t0 = Instant::now();
        let result = self.inner.knn(q, k);
        self.hist.record_duration(t0.elapsed());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_index, IndexKind};
    use dbdc_geom::Euclidean;

    #[test]
    fn wrapper_times_queries_and_preserves_answers() {
        let data = crate::testutil::random_dataset(120, 11);
        for kind in IndexKind::ALL {
            let plain = build_index(kind, &data, Euclidean, 4.0);
            let hist = Arc::new(HistSheet::new());
            let timed =
                LatencyObserved::new(build_index(kind, &data, Euclidean, 4.0), Arc::clone(&hist));
            assert_eq!(timed.len(), data.len());
            let q = data.point(5);
            let mut a = plain.range_vec(q, 4.0);
            let mut b = timed.range_vec(q, 4.0);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{kind:?}");
            let knn = timed.knn(q, 3);
            assert_eq!(knn.len(), 3);
            let h = hist.snapshot();
            assert_eq!(h.count(), 2, "{kind:?}: one range + one knn");
        }
    }
}
