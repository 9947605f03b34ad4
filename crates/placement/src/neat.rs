//! The OpenStack Neat dynamic-consolidation baseline.
//!
//! Neat (Beloglazov & Buyya) "splits the problem into four sub-problems:
//! (1) determine the underloaded hosts (all their VMs should be migrated
//! and the hosts should be switched to low-power state); (2) determine the
//! overloaded hosts (some of their VMs should be migrated in order to meet
//! the QoS requirements); (3) select VMs to migrate; and (4) place the
//! selected VMs to other hosts."
//!
//! Each sub-problem is a pluggable policy here, mirroring the published
//! framework: overload detection via static threshold / median-absolute-
//! deviation / inter-quartile-range; VM selection via minimum-migration-
//! time / random / maximum-correlation; placement via power-aware
//! best-fit-decreasing (PABFD).

use crate::history::HistoryBook;
use crate::scratch::{drain_underloaded, PlanScratch};
use crate::types::{ClusterState, ConsolidationPlan, HostState, Migration, VmState};
use dds_sim_core::{HostId, SimRng, VmId};

/// Per-host utilization histories (most recent last), for the adaptive
/// overload detectors.
///
/// Densely indexed by [`HostId`] — host ids are dense indexes assigned by
/// the datacenter, so a `Vec` beats a hash map on the hot control path
/// (no hashing, deterministic iteration order, cache-friendly pushes).
/// Unknown hosts read as an empty history.
#[derive(Debug, Clone, Default)]
pub struct HostHistories {
    hist: Vec<Vec<f64>>,
}

impl HostHistories {
    /// An empty history set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one observation for `host`, growing the table as needed.
    pub fn push(&mut self, host: HostId, value: f64) {
        let i = host.index();
        if i >= self.hist.len() {
            self.hist.resize_with(i + 1, Vec::new);
        }
        self.hist[i].push(value);
    }

    /// The history of `host`, oldest first (empty when never observed).
    pub fn get(&self, host: HostId) -> &[f64] {
        self.hist
            .get(host.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of host slots allocated (= highest observed id + 1).
    pub fn host_count(&self) -> usize {
        self.hist.len()
    }

    /// True when no host has any history.
    pub fn is_empty(&self) -> bool {
        self.hist.iter().all(Vec::is_empty)
    }
}

/// Sub-problem (2): when is a host overloaded?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverloadPolicy {
    /// Fixed utilization threshold (Neat's THR, default 0.8).
    StaticThreshold(f64),
    /// Adaptive: threshold = 1 − factor × MAD(history); falls back to the
    /// given static threshold with short histories.
    Mad {
        /// Safety factor s (Neat default 2.5).
        factor: f64,
        /// Threshold when history is too short.
        fallback: f64,
    },
    /// Adaptive: threshold = 1 − factor × IQR(history); same fallback.
    Iqr {
        /// Safety factor s (Neat default 1.5).
        factor: f64,
        /// Threshold when history is too short.
        fallback: f64,
    },
}

impl OverloadPolicy {
    /// The utilization threshold above which the host counts as
    /// overloaded, given its history.
    pub fn threshold(&self, history: &[f64]) -> f64 {
        match *self {
            OverloadPolicy::StaticThreshold(t) => t,
            OverloadPolicy::Mad { factor, fallback } => {
                if history.len() < 10 {
                    return fallback;
                }
                (1.0 - factor * mad(history)).clamp(0.1, 1.0)
            }
            OverloadPolicy::Iqr { factor, fallback } => {
                if history.len() < 10 {
                    return fallback;
                }
                (1.0 - factor * iqr(history)).clamp(0.1, 1.0)
            }
        }
    }

    /// True when the host is overloaded.
    pub fn is_overloaded(&self, utilization: f64, history: &[f64]) -> bool {
        utilization > self.threshold(history)
    }
}

/// Median of a slice (empty → 0).
fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median absolute deviation.
fn mad(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN utilization"));
    let med = median(&sorted);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).expect("NaN deviation"));
    median(&dev)
}

/// Inter-quartile range.
fn iqr(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN utilization"));
    let q = |p: f64| -> f64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    (q(0.75) - q(0.25)).max(0.0)
}

/// Sub-problem (1): when is a host underloaded?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnderloadPolicy {
    /// Hosts below this utilization are drain candidates (default 0.3).
    StaticThreshold(f64),
}

impl UnderloadPolicy {
    /// True when the host qualifies for draining.
    pub fn is_underloaded(&self, utilization: f64) -> bool {
        match *self {
            UnderloadPolicy::StaticThreshold(t) => utilization < t,
        }
    }
}

/// Sub-problem (3): which VM leaves an overloaded host first?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Minimum migration time: smallest RAM first (migration time is
    /// RAM-size / bandwidth-bound).
    MinimumMigrationTime,
    /// Uniformly random choice.
    Random,
    /// Maximum correlation with the other VMs on the host (the VM whose
    /// load most moves with its neighbours' contributes most to peaks).
    MaximumCorrelation,
}

impl SelectionPolicy {
    /// Picks the index of the next VM to migrate from `vms`.
    pub fn pick(&self, vms: &[VmState], history: &HistoryBook, rng: &mut SimRng) -> Option<usize> {
        if vms.is_empty() {
            return None;
        }
        match self {
            SelectionPolicy::MinimumMigrationTime => vms
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.ram_mb.cmp(&b.ram_mb).then(a.id.cmp(&b.id)))
                .map(|(i, _)| i),
            SelectionPolicy::Random => Some(rng.below(vms.len() as u64) as usize),
            SelectionPolicy::MaximumCorrelation => {
                let score = |i: usize| -> f64 {
                    vms.iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, other)| history.correlation(vms[i].id, other.id))
                        .sum()
                };
                (0..vms.len()).max_by(|&a, &b| {
                    score(a)
                        .partial_cmp(&score(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(vms[b].id.cmp(&vms[a].id))
                })
            }
        }
    }
}

/// Neat configuration (the published defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct NeatConfig {
    /// Overload detector.
    pub overload: OverloadPolicy,
    /// Underload detector.
    pub underload: UnderloadPolicy,
    /// VM selection policy.
    pub selection: SelectionPolicy,
    /// Guard utilization a destination may not exceed after receiving a
    /// VM (prevents migration-induced overload).
    pub destination_guard: f64,
}

impl NeatConfig {
    /// THR-0.8 / 0.3 underload / minimum-migration-time — the classic
    /// Neat configuration.
    pub fn paper_default() -> Self {
        NeatConfig {
            overload: OverloadPolicy::StaticThreshold(0.8),
            underload: UnderloadPolicy::StaticThreshold(0.3),
            selection: SelectionPolicy::MinimumMigrationTime,
            destination_guard: 0.8,
        }
    }
}

impl Default for NeatConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The Neat consolidation planner.
#[derive(Debug, Clone, Default)]
pub struct NeatPlanner {
    /// Configuration in effect.
    pub config: NeatConfig,
}

impl NeatPlanner {
    /// Creates a planner.
    pub fn new(config: NeatConfig) -> Self {
        NeatPlanner { config }
    }

    /// Power-aware best-fit-decreasing destination choice: among hosts
    /// that fit the VM and stay under the destination guard, pick the one
    /// with the smallest power increase; with a linear homogeneous power
    /// model this degenerates to best fit, so ties break toward the
    /// *highest* post-placement utilization, then lowest id. Visits only
    /// the scratch's non-excluded destinations with room for the VM.
    pub(crate) fn pabfd_choose(&self, scratch: &PlanScratch, vm: &VmState) -> Option<usize> {
        let mut best: Option<(f64, f64, HostId, usize)> = None; // (power_inc, -util_after, id, slot)
        for slot in scratch.destinations(vm.ram_mb) {
            let host = scratch.host(slot);
            let util_before = scratch.utilization(slot);
            let util_after =
                (scratch.cpu_demand(slot) + vm.cpu_demand) / host.cpu_capacity.max(1e-9);
            if util_after > self.config.destination_guard {
                continue;
            }
            // Linear power curve: ΔP ∝ Δutil × capacity; homogeneous in
            // this model but kept explicit for heterogeneous extensions.
            let power_inc = (util_after - util_before) * host.cpu_capacity;
            let key = (power_inc, -util_after, host.id);
            if best.is_none_or(|(p, u, id, _)| key < (p, u, id)) {
                best = Some((key.0, key.1, key.2, slot));
            }
        }
        best.map(|(.., slot)| slot)
    }

    /// Detects overloaded hosts (sub-problem 2) and excludes them as
    /// destinations; returns their slots in snapshot order.
    pub(crate) fn exclude_overloaded(
        &self,
        scratch: &mut PlanScratch,
        host_hist: &HostHistories,
    ) -> Vec<usize> {
        let overloaded: Vec<usize> = (0..scratch.len())
            .filter(|&s| {
                let hist = host_hist.get(scratch.host(s).id);
                self.config
                    .overload
                    .is_overloaded(scratch.utilization(s), hist)
            })
            .collect();
        for &s in &overloaded {
            scratch.set_excluded(s, true);
        }
        overloaded
    }

    /// Runs the full four-step consolidation, returning the plan.
    pub fn plan(
        &self,
        state: &ClusterState,
        vm_hist: &HistoryBook,
        host_hist: &HostHistories,
        rng: &mut SimRng,
    ) -> ConsolidationPlan {
        self.plan_owned(state.clone(), vm_hist, host_hist, rng)
    }

    /// [`plan`](Self::plan) on a snapshot the caller already copied.
    pub(crate) fn plan_owned(
        &self,
        state: ClusterState,
        vm_hist: &HistoryBook,
        host_hist: &HostHistories,
        rng: &mut SimRng,
    ) -> ConsolidationPlan {
        let mut scratch = PlanScratch::new(state);
        let mut plan = ConsolidationPlan::default();

        // --- (2)+(3)+(4): relieve overloaded hosts.
        let overloaded = self.exclude_overloaded(&mut scratch, host_hist);
        for slot in overloaded {
            let host_id = scratch.host(slot).id;
            let hist = host_hist.get(host_id);
            loop {
                if !self
                    .config
                    .overload
                    .is_overloaded(scratch.utilization(slot), hist)
                {
                    break;
                }
                let vms = &scratch.host(slot).vms;
                let Some(idx) = self.config.selection.pick(vms, vm_hist, rng) else {
                    break;
                };
                let vm = vms[idx].clone();
                let Some(dest) = self.pabfd_choose(&scratch, &vm) else {
                    break; // nowhere to put it; accept the overload
                };
                let to = scratch.host(dest).id;
                if scratch.migrate(vm.id, slot, dest).is_err() {
                    break;
                }
                plan.migrations.push(Migration {
                    vm: vm.id,
                    from: host_id,
                    to,
                });
            }
        }

        // --- (1)+(4): drain underloaded hosts, least-utilized first,
        // biggest VMs first (BFD ordering).
        drain_underloaded(
            &mut scratch,
            self.config.underload,
            |vms| {
                vms.sort_by(|a, b| {
                    b.cpu_demand
                        .partial_cmp(&a.cpu_demand)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.ram_mb.cmp(&a.ram_mb))
                })
            },
            |scratch, vm| self.pabfd_choose(scratch, vm),
            &mut plan,
        );
        plan
    }
}

/// Returns the VMs of a host sorted for deterministic iteration (by id).
pub fn vms_sorted(host: &HostState) -> Vec<VmId> {
    let mut ids: Vec<VmId> = host.vms.iter().map(|v| v.id).collect();
    ids.sort();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testkit::{host, vm};
    use proptest::prelude::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    fn no_hist() -> (HistoryBook, HostHistories) {
        (HistoryBook::new(16), HostHistories::new())
    }

    /// PABFD's pick with the hosts in `exclude` masked (dense ids: slot =
    /// id), checked against the full-scan oracle.
    fn pabfd(
        planner: &NeatPlanner,
        state: &ClusterState,
        vm: &VmState,
        exclude: &[u32],
    ) -> Option<HostId> {
        let mut scratch = PlanScratch::new(state.clone());
        for &id in exclude {
            scratch.set_excluded(id as usize, true);
        }
        let got = planner
            .pabfd_choose(&scratch, vm)
            .map(|slot| scratch.host(slot).id);
        let exclude = exclude.iter().map(|&id| HostId(id)).collect();
        assert_eq!(
            got,
            crate::oracle::pabfd_choose(planner, state, vm, &exclude)
        );
        got
    }

    #[test]
    fn static_threshold_detection() {
        let p = OverloadPolicy::StaticThreshold(0.8);
        assert!(p.is_overloaded(0.85, &[]));
        assert!(!p.is_overloaded(0.8, &[]));
    }

    #[test]
    fn mad_threshold_adapts_to_variance() {
        let p = OverloadPolicy::Mad {
            factor: 2.5,
            fallback: 0.8,
        };
        // Short history: fallback.
        assert_eq!(p.threshold(&[0.5; 3]), 0.8);
        // Stable history → tiny MAD → threshold near 1.
        let stable = vec![0.5; 20];
        assert!(p.threshold(&stable) > 0.95);
        // Volatile history → lower threshold (more conservative).
        let volatile: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 0.2 } else { 0.8 })
            .collect();
        assert!(p.threshold(&volatile) < p.threshold(&stable));
    }

    #[test]
    fn iqr_threshold_adapts() {
        let p = OverloadPolicy::Iqr {
            factor: 1.5,
            fallback: 0.8,
        };
        let stable = vec![0.5; 20];
        let volatile: Vec<f64> = (0..20).map(|i| (i % 10) as f64 / 10.0).collect();
        assert!(p.threshold(&volatile) < p.threshold(&stable));
        assert_eq!(p.threshold(&[0.1]), 0.8);
    }

    #[test]
    fn mmt_selects_smallest_ram() {
        let mut a = vm(1, 0.5, 0.0);
        a.ram_mb = 8_000;
        let mut b = vm(2, 0.5, 0.0);
        b.ram_mb = 2_000;
        let (hist, _) = no_hist();
        let idx = SelectionPolicy::MinimumMigrationTime
            .pick(&[a, b], &hist, &mut rng())
            .unwrap();
        assert_eq!(idx, 1);
    }

    #[test]
    fn random_selection_in_range() {
        let vms = vec![vm(1, 0.1, 0.0), vm(2, 0.1, 0.0), vm(3, 0.1, 0.0)];
        let (hist, _) = no_hist();
        let mut r = rng();
        for _ in 0..50 {
            let idx = SelectionPolicy::Random.pick(&vms, &hist, &mut r).unwrap();
            assert!(idx < 3);
        }
        assert_eq!(
            SelectionPolicy::Random.pick(&[], &hist, &mut r),
            None,
            "empty host"
        );
    }

    #[test]
    fn max_correlation_picks_most_correlated() {
        let mut hist = HistoryBook::new(16);
        // VM1 and VM2 move together; VM3 is anti-correlated.
        for i in 0..10 {
            let x = (i % 2) as f64;
            hist.push(VmId(1), x);
            hist.push(VmId(2), x);
            hist.push(VmId(3), 1.0 - x);
        }
        let vms = vec![vm(1, 0.5, 0.0), vm(2, 0.5, 0.0), vm(3, 0.5, 0.0)];
        let idx = SelectionPolicy::MaximumCorrelation
            .pick(&vms, &hist, &mut rng())
            .unwrap();
        // VM1 and VM2 each have sum-correlation 1 + (−1) = 0; VM3 has −2.
        assert!(idx == 0 || idx == 1);
    }

    #[test]
    fn pabfd_prefers_fuller_host() {
        let planner = NeatPlanner::default();
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 2.0, 0.0)]), // util 0.25
            host(1, 0, vec![vm(2, 4.0, 0.0)]), // util 0.5
            host(2, 0, vec![]),
        ]);
        let candidate = vm(9, 1.0, 0.0);
        let dest = pabfd(&planner, &state, &candidate, &[]).unwrap();
        // Equal ΔP on homogeneous hosts: best fit → fullest host that fits.
        assert_eq!(dest, HostId(1));
    }

    #[test]
    fn pabfd_respects_guard_and_exclusions() {
        let planner = NeatPlanner::default();
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 6.0, 0.0)]), // util 0.75 → 1.0 would breach guard
            host(1, 0, vec![]),
        ]);
        let candidate = vm(9, 2.0, 0.0);
        let dest = pabfd(&planner, &state, &candidate, &[]).unwrap();
        assert_eq!(dest, HostId(1), "guard keeps VM off the hot host");
        assert_eq!(pabfd(&planner, &state, &candidate, &[1]), None);
    }

    #[test]
    fn plan_relieves_overloaded_host() {
        let planner = NeatPlanner::default();
        // Host 0 at util 0.85 (6.8 cores of 8); hosts 1-2 idle.
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 3.4, 0.0), vm(2, 3.4, 0.0)]),
            host(1, 0, vec![vm(3, 0.5, 0.0)]),
            host(2, 0, vec![]),
        ]);
        let (vm_hist, host_hist) = no_hist();
        let plan = planner.plan(&state, &vm_hist, &host_hist, &mut rng());
        assert!(!plan.migrations.is_empty());
        let mut after = state.clone();
        after.apply_plan(&plan).unwrap();
        let u0 = after.host(HostId(0)).unwrap().utilization();
        assert!(u0 <= 0.8, "post-plan utilization {u0}");
        after.check_invariants().unwrap();
    }

    #[test]
    fn plan_drains_underloaded_host() {
        let planner = NeatPlanner::default();
        // Host 1 nearly idle; host 0 moderately used with room.
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 3.0, 0.0)]),
            host(1, 0, vec![vm(2, 0.2, 0.0)]),
        ]);
        let (vm_hist, host_hist) = no_hist();
        let plan = planner.plan(&state, &vm_hist, &host_hist, &mut rng());
        assert_eq!(plan.hosts_to_power_off, vec![HostId(1)]);
        let mut after = state;
        after.apply_plan(&plan).unwrap();
        assert!(after.host(HostId(1)).unwrap().is_empty());
        after.check_invariants().unwrap();
    }

    #[test]
    fn drain_aborts_when_nothing_fits() {
        let planner = NeatPlanner::default();
        // Both hosts underloaded but each can only hold its own VM
        // (max_vms = 1): no drain possible.
        let state = ClusterState::new(vec![
            host(0, 1, vec![vm(1, 0.1, 0.0)]),
            host(1, 1, vec![vm(2, 0.1, 0.0)]),
        ]);
        let (vm_hist, host_hist) = no_hist();
        let plan = planner.plan(&state, &vm_hist, &host_hist, &mut rng());
        assert!(plan.is_empty(), "{plan:?}");
    }

    #[test]
    fn both_underloaded_hosts_merge_to_one() {
        let planner = NeatPlanner::default();
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 0.4, 0.0)]),
            host(1, 0, vec![vm(2, 0.2, 0.0)]),
        ]);
        let (vm_hist, host_hist) = no_hist();
        let plan = planner.plan(&state, &vm_hist, &host_hist, &mut rng());
        // The least-utilized host (1) drains into host 0; host 0 is then
        // no longer drainable (its "elsewhere" is being drained).
        assert_eq!(plan.hosts_to_power_off, vec![HostId(1)]);
        let mut after = state;
        after.apply_plan(&plan).unwrap();
        assert_eq!(after.host(HostId(0)).unwrap().vms.len(), 2);
    }

    proptest! {
        /// Neat plans always apply cleanly and preserve invariants for
        /// arbitrary demand patterns.
        #[test]
        fn plans_are_always_applicable(
            demands in proptest::collection::vec(0.0f64..4.0, 8),
            scores in proptest::collection::vec(-0.01f64..0.01, 8),
        ) {
            let mk = |i: usize| vm(i as u32, demands[i], scores[i]);
            let state = ClusterState::new(vec![
                host(0, 0, vec![mk(0), mk(1)]),
                host(1, 0, vec![mk(2), mk(3)]),
                host(2, 0, vec![mk(4), mk(5)]),
                host(3, 0, vec![mk(6), mk(7)]),
            ]);
            let (vm_hist, host_hist) = no_hist();
            let planner = NeatPlanner::default();
            let plan = planner.plan(&state, &vm_hist, &host_hist, &mut SimRng::new(1));
            let mut after = state.clone();
            prop_assert!(after.apply_plan(&plan).is_ok());
            prop_assert!(after.check_invariants().is_ok());
            prop_assert_eq!(after.vm_count(), state.vm_count());
            // Powered-off hosts are really empty.
            for h in &plan.hosts_to_power_off {
                prop_assert!(after.host(*h).unwrap().is_empty());
            }
        }
    }
}
