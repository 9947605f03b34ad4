//! Incremental free-capacity index over a host fleet.
//!
//! Every consolidation policy in this crate ultimately answers the same
//! question many times per control epoch: *which host has room for this
//! VM?* Answered by a linear scan, each decision costs O(hosts) — fine at
//! the paper's rack scale, a wall at the ROADMAP's 100k-host scale.
//!
//! [`CapacityIndex`] makes the query cheap: hosts are bucketed by their
//! **integral free vCPU count**, and the buckets are updated incrementally
//! on `admit` / `evict` / `park` / `unpark`. A placement query walks at
//! most `max_free_vcpus` buckets (a hardware constant, typically ≲ 64)
//! instead of the whole fleet, turning an O(hosts) scan into O(1)
//! amortized work per decision.
//!
//! **Determinism contract.** Every query is defined in terms of an
//! equivalent linear scan over host slots (`first_fit` = lowest slot with
//! enough room; `best_fit` = tightest fit, lowest slot on ties;
//! `worst_fit` = roomiest fit, lowest slot on ties). The bucket structure
//! is an accelerator, never an answer-changer: the property tests below
//! drive the index and a reference linear scan through random
//! admit/evict/park/unpark churn and require **bit-identical** decisions.
//!
//! Hosts are addressed by dense `u32` slots (position in the fleet, not
//! `HostId`), matching the SoA arenas of the fleet engine; the caller owns
//! the slot ↔ id mapping.

use std::cell::Cell;
use std::collections::BTreeSet;

/// Sentinel: no host satisfies the query.
const NONE: u32 = u32::MAX;

/// Operation counters maintained by [`CapacityIndex`] for telemetry.
///
/// Every count is a **logical** quantity — a pure function of the
/// decision stream driving the index, independent of threads, shards or
/// wall-clock — so it can feed the byte-diffed telemetry artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexOps {
    /// `admit` calls (VM placed, free count dropped).
    pub admits: u64,
    /// `evict` calls (VM left, free count rose).
    pub evicts: u64,
    /// `park` calls (host excluded from placement).
    pub parks: u64,
    /// `unpark` calls (host returned to placement).
    pub unparks: u64,
    /// Fit queries answered (`first_fit` + `best_fit` + `worst_fit`).
    pub queries: u64,
}

impl IndexOps {
    /// Total operations of any kind.
    pub fn total(&self) -> u64 {
        self.admits + self.evicts + self.parks + self.unparks + self.queries
    }
}

/// An incrementally maintained "hosts by free vCPUs" index.
///
/// ```
/// use dds_placement::capacity::CapacityIndex;
///
/// let mut idx = CapacityIndex::new(&[8, 8, 8]);
/// idx.admit(0, 6); // host 0: 2 free
/// idx.admit(1, 4); // host 1: 4 free
/// assert_eq!(idx.best_fit(2), Some(0));  // tightest fit
/// assert_eq!(idx.worst_fit(2), Some(2)); // roomiest fit
/// idx.park(2);
/// assert_eq!(idx.worst_fit(2), Some(1)); // parked hosts are not placeable
/// ```
#[derive(Debug, Clone)]
pub struct CapacityIndex {
    /// Free vCPUs per host slot (maintained even while parked).
    free: Vec<u32>,
    /// Parked (not placeable) flag per host slot.
    parked: Vec<bool>,
    /// `buckets[f]` holds the *unparked* host slots with exactly `f` free
    /// vCPUs, ordered by slot (`BTreeSet` gives O(log n) updates and an
    /// O(1) minimum — the deterministic tie-break).
    buckets: Vec<BTreeSet<u32>>,
    /// Mutation counters (telemetry; see [`IndexOps`]).
    ops: IndexOps,
    /// Query counter; interior-mutable because fit queries take `&self`.
    queries: Cell<u64>,
}

impl CapacityIndex {
    /// Builds the index over hosts with the given free-capacity column;
    /// all hosts start unparked.
    pub fn new(free: &[u32]) -> Self {
        let max = free.iter().copied().max().unwrap_or(0) as usize;
        let mut buckets = vec![BTreeSet::new(); max + 1];
        for (slot, &f) in free.iter().enumerate() {
            buckets[f as usize].insert(slot as u32);
        }
        CapacityIndex {
            free: free.to_vec(),
            parked: vec![false; free.len()],
            buckets,
            ops: IndexOps::default(),
            queries: Cell::new(0),
        }
    }

    /// Builds the index over a [`ClusterState`](crate::types::ClusterState)
    /// snapshot: slot *i* is `state.hosts[i]`, its free count the whole
    /// vCPUs not claimed by resident VMs (fractional remainders truncate —
    /// a host with 1.5 spare cores cannot seat a 2-vCPU VM).
    pub fn from_cluster(state: &crate::types::ClusterState) -> Self {
        let free: Vec<u32> = state
            .hosts
            .iter()
            .map(|h| {
                let used: f64 = h.vms.iter().map(|v| v.vcpus).sum();
                (h.cpu_capacity - used).max(0.0).floor() as u32
            })
            .collect();
        Self::new(&free)
    }

    /// Number of host slots.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when the index tracks no hosts.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Free vCPUs of a host slot.
    pub fn free_of(&self, slot: u32) -> u32 {
        self.free[slot as usize]
    }

    /// True when the host is parked (excluded from placement).
    pub fn is_parked(&self, slot: u32) -> bool {
        self.parked[slot as usize]
    }

    /// Operation counts since construction (telemetry).
    pub fn ops(&self) -> IndexOps {
        IndexOps {
            queries: self.queries.get(),
            ..self.ops
        }
    }

    /// Total free vCPUs across unparked hosts.
    pub fn total_free(&self) -> u64 {
        self.free
            .iter()
            .zip(&self.parked)
            .filter(|(_, &p)| !p)
            .map(|(&f, _)| f as u64)
            .sum()
    }

    fn move_bucket(&mut self, slot: u32, from: u32, to: u32) {
        if !self.parked[slot as usize] {
            self.buckets[from as usize].remove(&slot);
            if to as usize >= self.buckets.len() {
                self.buckets.resize_with(to as usize + 1, BTreeSet::new);
            }
            self.buckets[to as usize].insert(slot);
        }
    }

    /// Records a VM of `vcpus` placed on `slot` (its free count drops).
    ///
    /// Panics in debug builds if the host lacks the capacity — callers
    /// must only admit after a successful fit query.
    pub fn admit(&mut self, slot: u32, vcpus: u32) {
        let f = self.free[slot as usize];
        debug_assert!(
            f >= vcpus,
            "admit of {vcpus} vCPUs onto slot {slot} with {f} free"
        );
        let to = f.saturating_sub(vcpus);
        self.free[slot as usize] = to;
        self.move_bucket(slot, f, to);
        self.ops.admits += 1;
    }

    /// Records a VM of `vcpus` leaving `slot` (its free count rises).
    pub fn evict(&mut self, slot: u32, vcpus: u32) {
        let f = self.free[slot as usize];
        let to = f + vcpus;
        self.free[slot as usize] = to;
        self.move_bucket(slot, f, to);
        self.ops.evicts += 1;
    }

    /// Removes the host from placement (suspended / drained). Free-count
    /// bookkeeping continues while parked. Idempotent.
    pub fn park(&mut self, slot: u32) {
        self.ops.parks += 1;
        if !self.parked[slot as usize] {
            let f = self.free[slot as usize];
            self.buckets[f as usize].remove(&slot);
            self.parked[slot as usize] = true;
        }
    }

    /// Returns the host to placement. Idempotent.
    pub fn unpark(&mut self, slot: u32) {
        self.ops.unparks += 1;
        if self.parked[slot as usize] {
            self.parked[slot as usize] = false;
            let f = self.free[slot as usize];
            if f as usize >= self.buckets.len() {
                self.buckets.resize_with(f as usize + 1, BTreeSet::new);
            }
            self.buckets[f as usize].insert(slot);
        }
    }

    /// The lowest-numbered unparked host with at least `need` free vCPUs.
    pub fn first_fit(&self, need: u32) -> Option<u32> {
        self.queries.set(self.queries.get() + 1);
        let mut best = NONE;
        for bucket in self.buckets.iter().skip(need as usize) {
            if let Some(&slot) = bucket.first() {
                best = best.min(slot);
            }
        }
        (best != NONE).then_some(best)
    }

    /// The unparked host with the *fewest* free vCPUs still ≥ `need`
    /// (tightest fit packs the fleet); lowest slot on ties.
    pub fn best_fit(&self, need: u32) -> Option<u32> {
        self.queries.set(self.queries.get() + 1);
        self.buckets
            .iter()
            .skip(need as usize)
            .find_map(|bucket| bucket.first().copied())
    }

    /// The unparked host with the *most* free vCPUs ≥ `need` (roomiest
    /// fit spreads load); lowest slot on ties.
    pub fn worst_fit(&self, need: u32) -> Option<u32> {
        self.queries.set(self.queries.get() + 1);
        self.buckets
            .iter()
            .skip(need as usize)
            .rev()
            .find_map(|bucket| bucket.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the exact linear scans the index must reproduce, over
    /// the same dense-slot API.
    struct ScanIndex {
        free: Vec<u32>,
        parked: Vec<bool>,
    }

    impl ScanIndex {
        fn new(free: &[u32]) -> Self {
            ScanIndex {
                free: free.to_vec(),
                parked: vec![false; free.len()],
            }
        }

        fn admit(&mut self, slot: u32, vcpus: u32) {
            self.free[slot as usize] = self.free[slot as usize].saturating_sub(vcpus);
        }

        fn evict(&mut self, slot: u32, vcpus: u32) {
            self.free[slot as usize] += vcpus;
        }

        fn park(&mut self, slot: u32) {
            self.parked[slot as usize] = true;
        }

        fn unpark(&mut self, slot: u32) {
            self.parked[slot as usize] = false;
        }

        fn candidates(&self, need: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
            self.free
                .iter()
                .zip(&self.parked)
                .enumerate()
                .filter(move |(_, (&f, &p))| !p && f >= need)
                .map(|(slot, (&f, _))| (slot as u32, f))
        }

        fn first_fit(&self, need: u32) -> Option<u32> {
            self.candidates(need).next().map(|(slot, _)| slot)
        }

        fn best_fit(&self, need: u32) -> Option<u32> {
            self.candidates(need)
                .min_by_key(|&(slot, f)| (f, slot))
                .map(|(slot, _)| slot)
        }

        fn worst_fit(&self, need: u32) -> Option<u32> {
            // `min_by_key` keeps the *first* minimum: scanning by ascending
            // slot gives the lowest slot among the roomiest hosts.
            self.candidates(need)
                .min_by_key(|&(slot, f)| (std::cmp::Reverse(f), slot))
                .map(|(slot, _)| slot)
        }
    }

    #[test]
    fn queries_follow_documented_tie_breaks() {
        // free: [2, 4, 4, 8, 0], slot 3 parked.
        let mut idx = CapacityIndex::new(&[2, 4, 4, 8, 0]);
        idx.park(3);
        assert_eq!(idx.first_fit(1), Some(0));
        assert_eq!(idx.first_fit(3), Some(1));
        assert_eq!(idx.best_fit(3), Some(1), "lowest slot among ties");
        assert_eq!(idx.worst_fit(1), Some(1), "roomiest unparked");
        assert_eq!(idx.best_fit(5), None, "only the parked host is big enough");
        idx.unpark(3);
        assert_eq!(idx.best_fit(5), Some(3));
        assert_eq!(idx.first_fit(0), Some(0));
    }

    #[test]
    fn admit_evict_move_hosts_between_buckets() {
        let mut idx = CapacityIndex::new(&[8, 8]);
        idx.admit(0, 8);
        assert_eq!(idx.free_of(0), 0);
        assert_eq!(idx.best_fit(1), Some(1));
        idx.evict(0, 3);
        assert_eq!(idx.free_of(0), 3);
        assert_eq!(idx.best_fit(2), Some(0), "tightest fit is the drained host");
        assert_eq!(idx.total_free(), 11);
    }

    #[test]
    fn eviction_can_grow_past_the_initial_maximum() {
        // A host can end up with more free vCPUs than any host had at
        // build time (e.g. capacity added); buckets must grow.
        let mut idx = CapacityIndex::new(&[4]);
        idx.evict(0, 10);
        assert_eq!(idx.free_of(0), 14);
        assert_eq!(idx.first_fit(14), Some(0));
        // Same while parked: the bucket grows on unpark.
        let mut idx = CapacityIndex::new(&[4]);
        idx.park(0);
        idx.evict(0, 10);
        idx.unpark(0);
        assert_eq!(idx.worst_fit(12), Some(0));
    }

    #[test]
    fn park_is_idempotent_and_preserves_bookkeeping() {
        let mut idx = CapacityIndex::new(&[6, 6]);
        idx.park(0);
        idx.park(0);
        idx.admit(0, 2); // bookkeeping continues while parked
        assert_eq!(idx.first_fit(1), Some(1));
        assert!(idx.is_parked(0));
        idx.unpark(0);
        idx.unpark(0);
        assert_eq!(idx.free_of(0), 4);
        assert_eq!(idx.best_fit(1), Some(0));
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }

    #[test]
    fn op_counters_track_the_decision_stream() {
        let mut idx = CapacityIndex::new(&[8, 8]);
        idx.admit(0, 2);
        idx.evict(0, 1);
        idx.park(1);
        idx.park(1); // idempotent parks still count as calls
        idx.unpark(1);
        let _ = idx.best_fit(1);
        let _ = idx.first_fit(1);
        let _ = idx.worst_fit(1);
        let ops = idx.ops();
        assert_eq!(
            ops,
            IndexOps {
                admits: 1,
                evicts: 1,
                parks: 2,
                unparks: 1,
                queries: 3,
            }
        );
        assert_eq!(ops.total(), 8);
    }

    #[test]
    fn from_cluster_truncates_fractional_spare_cores() {
        use crate::types::testkit::{host, vm};
        // testkit host = 8 cores, vm = 2 vCPUs.
        let mut h0 = host(0, 0, vec![vm(0, 0.5, 0.0)]);
        h0.vms[0].vcpus = 6.5; // 1.5 spare cores -> 1 whole free vCPU
        let state = crate::types::ClusterState::new(vec![h0, host(1, 0, vec![vm(1, 0.5, 0.0)])]);
        let idx = CapacityIndex::from_cluster(&state);
        assert_eq!(idx.free_of(0), 1);
        assert_eq!(idx.free_of(1), 6);
        assert_eq!(idx.best_fit(2), Some(1));
    }

    proptest! {
        /// The satellite property: across random admit/evict/park/unpark
        /// sequences, every placement decision of the bucketed index is
        /// bit-identical to the reference linear scan.
        #[test]
        fn index_decisions_match_linear_scan(
            capacities in proptest::collection::vec(0u32..32, 1..40),
            ops in proptest::collection::vec((0u8..7, 0usize..40, 1u32..8), 0..200),
        ) {
            let mut idx = CapacityIndex::new(&capacities);
            let mut scan = ScanIndex::new(&capacities);
            for (op, raw_slot, amount) in ops {
                let slot = (raw_slot % capacities.len()) as u32;
                match op {
                    0 => {
                        // Admit only what fits, as real callers do.
                        let v = amount.min(idx.free_of(slot));
                        idx.admit(slot, v);
                        scan.admit(slot, v);
                    }
                    1 => {
                        idx.evict(slot, amount);
                        scan.evict(slot, amount);
                    }
                    2 => {
                        idx.park(slot);
                        scan.park(slot);
                    }
                    3 => {
                        idx.unpark(slot);
                        scan.unpark(slot);
                    }
                    4 => prop_assert_eq!(idx.first_fit(amount), scan.first_fit(amount)),
                    5 => prop_assert_eq!(idx.best_fit(amount), scan.best_fit(amount)),
                    _ => prop_assert_eq!(idx.worst_fit(amount), scan.worst_fit(amount)),
                }
            }
            // Final state: every query at every need agrees.
            for need in 0..40 {
                prop_assert_eq!(idx.first_fit(need), scan.first_fit(need));
                prop_assert_eq!(idx.best_fit(need), scan.best_fit(need));
                prop_assert_eq!(idx.worst_fit(need), scan.worst_fit(need));
            }
        }
    }
}
