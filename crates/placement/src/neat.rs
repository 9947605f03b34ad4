//! The OpenStack Neat dynamic-consolidation baseline.
//!
//! Neat (Beloglazov & Buyya) "splits the problem into four sub-problems:
//! (1) determine the underloaded hosts (all their VMs should be migrated
//! and the hosts should be switched to low-power state); (2) determine the
//! overloaded hosts (some of their VMs should be migrated in order to meet
//! the QoS requirements); (3) select VMs to migrate; and (4) place the
//! selected VMs to other hosts."
//!
//! The published framework makes each sub-problem pluggable; every
//! registered policy runs its classic configuration, which is the only
//! one kept here: static-threshold overload detection (THR), a static
//! underload threshold, minimum-migration-time (MMT) VM selection and
//! power-aware best-fit-decreasing (PABFD) placement.

use crate::scratch::{drain_underloaded, PlanScratch};
use crate::types::{ClusterState, ConsolidationPlan, Migration, VmState};
use dds_sim_core::HostId;

/// Neat configuration (the published defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct NeatConfig {
    /// Sub-problem (2): a host above this utilization is overloaded
    /// (Neat's THR).
    pub overload_threshold: f64,
    /// Sub-problem (1): a host below this utilization is a drain
    /// candidate.
    pub underload_threshold: f64,
    /// Guard utilization a destination may not exceed after receiving a
    /// VM (prevents migration-induced overload).
    pub destination_guard: f64,
}

impl NeatConfig {
    /// THR-0.8 / 0.3 underload / 0.8 destination guard — the classic
    /// Neat configuration.
    pub fn paper_default() -> Self {
        NeatConfig {
            overload_threshold: 0.8,
            underload_threshold: 0.3,
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

    /// True when a host at `utilization` is overloaded (sub-problem 2).
    pub(crate) fn is_overloaded(&self, utilization: f64) -> bool {
        utilization > self.config.overload_threshold
    }

    /// Detects overloaded hosts (sub-problem 2) and excludes them as
    /// destinations; returns their slots in snapshot order.
    pub(crate) fn exclude_overloaded(&self, scratch: &mut PlanScratch) -> Vec<usize> {
        let overloaded: Vec<usize> = (0..scratch.len())
            .filter(|&s| self.is_overloaded(scratch.utilization(s)))
            .collect();
        for &s in &overloaded {
            scratch.set_excluded(s, true);
        }
        overloaded
    }

    /// Runs the full four-step consolidation, returning the plan.
    pub fn plan(&self, state: &ClusterState) -> ConsolidationPlan {
        self.plan_owned(state.clone())
    }

    /// [`plan`](Self::plan) on a snapshot the caller already copied.
    pub(crate) fn plan_owned(&self, state: ClusterState) -> ConsolidationPlan {
        let mut scratch = PlanScratch::new(state);
        let mut plan = ConsolidationPlan::default();

        // --- (2)+(3)+(4): relieve overloaded hosts.
        let overloaded = self.exclude_overloaded(&mut scratch);
        for slot in overloaded {
            let host_id = scratch.host(slot).id;
            while self.is_overloaded(scratch.utilization(slot)) {
                let Some(vm) = mmt_pick(&scratch.host(slot).vms) else {
                    break;
                };
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
            self.config.underload_threshold,
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

/// Sub-problem (3), minimum migration time: the smallest-RAM VM leaves
/// first (migration time is RAM-size / bandwidth-bound), ties to the
/// lower id.
pub(crate) fn mmt_pick(vms: &[VmState]) -> Option<VmState> {
    vms.iter()
        .min_by(|a, b| a.ram_mb.cmp(&b.ram_mb).then(a.id.cmp(&b.id)))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testkit::{host, vm};
    use dds_sim_core::VmId;
    use proptest::prelude::*;

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
        let p = NeatPlanner::default();
        assert!(p.is_overloaded(0.85));
        assert!(!p.is_overloaded(0.8));
    }

    #[test]
    fn mmt_selects_smallest_ram() {
        let mut a = vm(1, 0.5, 0.0);
        a.ram_mb = 8_000;
        let mut b = vm(2, 0.5, 0.0);
        b.ram_mb = 2_000;
        assert_eq!(mmt_pick(&[a, b]).map(|v| v.id), Some(VmId(2)));
        assert_eq!(mmt_pick(&[]), None, "empty host");
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
        let plan = planner.plan(&state);
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
        let plan = planner.plan(&state);
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
        let plan = planner.plan(&state);
        assert!(plan.is_empty(), "{plan:?}");
    }

    #[test]
    fn both_underloaded_hosts_merge_to_one() {
        let planner = NeatPlanner::default();
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 0.4, 0.0)]),
            host(1, 0, vec![vm(2, 0.2, 0.0)]),
        ]);
        let plan = planner.plan(&state);
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
            let plan = NeatPlanner::default().plan(&state);
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
