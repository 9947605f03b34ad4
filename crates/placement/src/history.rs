//! Utilization histories.
//!
//! The pairwise VM-multiplexing baseline ([`crate::multiplex`]) is the
//! one consumer of history rather than an instantaneous snapshot: it
//! correlates VMs' recent CPU demand series. No registered control
//! policy reads a history; the datacenter controller keeps none.

use dds_sim_core::{HostId, VmId};
use std::collections::HashMap;

/// Bounded per-VM demand history (most recent last).
#[derive(Debug, Clone)]
pub struct HistoryBook {
    capacity: usize,
    series: HashMap<VmId, Vec<f64>>,
}

impl HistoryBook {
    /// Creates a book keeping up to `capacity` samples per VM.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "need at least two samples for correlation");
        HistoryBook {
            capacity,
            series: HashMap::new(),
        }
    }

    /// Appends a demand sample for a VM, evicting the oldest if full.
    pub fn push(&mut self, vm: VmId, demand: f64) {
        let s = self.series.entry(vm).or_default();
        if s.len() == self.capacity {
            s.remove(0);
        }
        s.push(demand);
    }

    /// The stored series for a VM (empty slice when unknown).
    pub fn series(&self, vm: VmId) -> &[f64] {
        self.series.get(&vm).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tracked VMs.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no VM is tracked.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Pearson correlation of two VMs' overlapping recent samples.
    ///
    /// Returns 0 when either series is too short or constant (no signal),
    /// which makes the correlation-based policies degrade gracefully to
    /// their secondary criteria.
    pub fn correlation(&self, a: VmId, b: VmId) -> f64 {
        let sa = self.series(a);
        let sb = self.series(b);
        let n = sa.len().min(sb.len());
        if n < 2 {
            return 0.0;
        }
        let sa = &sa[sa.len() - n..];
        let sb = &sb[sb.len() - n..];
        pearson(sa, sb)
    }
}

/// Per-host normalized-utilization histories (most recent last),
/// densely indexed by [`HostId`] and never trimmed. No planner reads
/// them; [`crate::policy::PlanningView::host_hist`] carries one for
/// outside callers that build a view by hand.
#[derive(Debug, Clone, Default)]
pub struct HostHistories {
    hist: Vec<Vec<f64>>,
}

impl HostHistories {
    /// An empty history set.
    pub const fn new() -> Self {
        HostHistories { hist: Vec::new() }
    }

    /// Appends one observation for `host`, growing the table as needed.
    pub fn push(&mut self, host: HostId, value: f64) {
        let i = host.index();
        if i >= self.hist.len() {
            self.hist.resize_with(i + 1, Vec::new);
        }
        self.hist[i].push(value);
    }
}

/// Pearson correlation coefficient of two equal-length slices.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_evict() {
        let mut h = HistoryBook::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            h.push(VmId(0), x);
        }
        assert_eq!(h.series(VmId(0)), &[2.0, 3.0, 4.0]);
        assert_eq!(h.series(VmId(9)), &[] as &[f64]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn perfect_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_zero_correlation() {
        let a = [1.0, 1.0, 1.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&a, &b), 0.0);
    }

    #[test]
    fn book_correlation_uses_overlap() {
        let mut h = HistoryBook::new(10);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.push(VmId(0), x);
        }
        for x in [30.0, 40.0, 50.0] {
            h.push(VmId(1), x);
        }
        // Overlap = last 3 of VM0 (3,4,5) vs (30,40,50): perfectly aligned.
        assert!((h.correlation(VmId(0), VmId(1)) - 1.0).abs() < 1e-12);
        // Too-short series → 0.
        h.push(VmId(2), 1.0);
        assert_eq!(h.correlation(VmId(0), VmId(2)), 0.0);
        assert_eq!(h.correlation(VmId(0), VmId(9)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_capacity_rejected() {
        HistoryBook::new(1);
    }

    proptest! {
        #[test]
        fn correlation_bounded(xs in proptest::collection::vec(0.0f64..100.0, 2..50),
                               ys in proptest::collection::vec(0.0f64..100.0, 2..50)) {
            let n = xs.len().min(ys.len());
            let r = pearson(&xs[..n], &ys[..n]);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }

        #[test]
        fn capacity_never_exceeded(
            pushes in proptest::collection::vec(0.0f64..10.0, 0..100),
            cap in 2usize..20,
        ) {
            let mut h = HistoryBook::new(cap);
            for x in pushes {
                h.push(VmId(0), x);
            }
            prop_assert!(h.series(VmId(0)).len() <= cap);
        }
    }
}
