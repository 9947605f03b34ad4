//! Drowsy-DC's idleness-aware consolidation (§III-D of the paper).
//!
//! Drowsy-DC rides on Neat's four-step decomposition and changes the two
//! steps it is allowed to plug into:
//!
//! * **VM selection (step 3)** — on an overloaded host, prefer the VMs
//!   whose IP is *furthest* from the host's IP (they are the misfits);
//!   distances within a tolerance are considered equal and fall back to
//!   the classic criterion (minimum migration time).
//! * **VM placement (step 4)** — among suitable destinations, pick the
//!   host whose IP is *closest* to the VM's IP.
//!
//! On top, an **opportunistic consolidation** pass purely based on IP:
//! any host whose VM IP range exceeds 7σ has its most extreme VMs moved
//! to better-matching hosts until the range is under the threshold. "The
//! overall goal of IP-augmented consolidation is to put VMs with similar
//! IPs together."

use crate::neat::{NeatConfig, NeatPlanner};
use crate::scratch::{drain_underloaded, PlanScratch};
use crate::types::{ClusterState, ConsolidationPlan, Migration, Swap, VmState};
use dds_idleness::{ALPHA, BETA, SIGMA};
use dds_sim_core::{HostId, VmId};

/// Drowsy-DC planner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DrowsyConfig {
    /// The underlying Neat thresholds.
    pub neat: NeatConfig,
    /// Safety cap on opportunistic moves per planning round.
    pub max_opportunistic_moves: usize,
}

impl DrowsyConfig {
    /// The paper's configuration: Neat's thresholds and at most 64
    /// opportunistic moves per planning round.
    pub fn paper_default() -> Self {
        DrowsyConfig {
            neat: NeatConfig::paper_default(),
            max_opportunistic_moves: 64,
        }
    }
}

impl Default for DrowsyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The Drowsy-DC consolidation planner.
#[derive(Debug, Clone)]
pub struct DrowsyPlanner {
    /// Configuration in effect.
    pub config: DrowsyConfig,
    /// Maximum allowed VM IP spread on one host before the opportunistic
    /// pass breaks it up. Paper: 7σ, "roughly a difference of a week of
    /// constant maximum activity in a SId".
    pub(crate) ip_range_threshold: f64,
    /// Distances within this tolerance count as equal when sorting
    /// ("there is a tolerance when sorting by distance […] so close
    /// distances are considered equal").
    pub(crate) ip_tolerance: f64,
    neat: NeatPlanner,
}

impl DrowsyPlanner {
    /// Creates a planner.
    ///
    /// The 7σ threshold is calibrated by the paper as "a difference of a
    /// week of constant maximum activity in a SId" — i.e. in *unweighted,
    /// undamped* SId units. The weighted score `wᵀ·SI` grows slower by
    /// the dominant weight (uniform start: 1/4) and by the fresh-slot
    /// damping u(0) = 1/(1+e^{−αβ}) ≈ 0.587, so the threshold is
    /// converted accordingly; the sort tolerance is one day of the same
    /// differential (threshold / 7).
    pub fn new(config: DrowsyConfig) -> Self {
        let u0 = 1.0 / (1.0 + (-ALPHA * BETA).exp());
        let week_of_activity = 7.0 * SIGMA * 0.25 * u0;
        DrowsyPlanner {
            neat: NeatPlanner::new(config.neat.clone()),
            config,
            ip_range_threshold: week_of_activity,
            ip_tolerance: week_of_activity / 7.0,
        }
    }

    /// Destination choice: the suitable host with the IP closest to the
    /// VM's (ties → PABFD's power criterion via lower utilization gap,
    /// then id). Suitability = fits + destination guard, like Neat.
    /// Visits only the scratch's non-excluded destinations with room for
    /// the VM.
    pub(crate) fn closest_ip_choose(&self, scratch: &PlanScratch, vm: &VmState) -> Option<usize> {
        let tol = self.ip_tolerance;
        let mut best: Option<(i64, f64, HostId, usize)> = None; // (dist bucket, -util, id, slot)
        for slot in scratch.destinations(vm.ram_mb) {
            let h = scratch.host(slot);
            let util_after = (scratch.cpu_demand(slot) + vm.cpu_demand) / h.cpu_capacity.max(1e-9);
            if util_after > self.config.neat.destination_guard {
                continue;
            }
            let dist = (scratch.ip_score(slot) - vm.ip_score).abs();
            // Bucket distances by the tolerance so "close" ties break on
            // the classic packing criterion (fuller host first).
            let bucket = (dist / tol).floor() as i64;
            let key = (bucket, -util_after, h.id);
            if best.is_none_or(|(b, u, id, _)| key < (b, u, id)) {
                best = Some((key.0, key.1, key.2, slot));
            }
        }
        best.map(|(.., slot)| slot)
    }

    /// Selection order for migrating VMs off `host_id`: IP distance from
    /// the host's IP, descending, bucketed by the tolerance; equal buckets
    /// fall back to minimum migration time (smallest RAM first).
    pub fn select_order(&self, state: &ClusterState, host_id: HostId) -> Vec<VmId> {
        let Some(host) = state.host(host_id) else {
            return Vec::new();
        };
        let host_ip = host.ip_score();
        let tol = self.ip_tolerance;
        let mut vms: Vec<&VmState> = host.vms.iter().collect();
        vms.sort_by(|a, b| {
            let da = ((a.ip_score - host_ip).abs() / tol).floor() as i64;
            let db = ((b.ip_score - host_ip).abs() / tol).floor() as i64;
            db.cmp(&da) // furthest first
                .then(a.ram_mb.cmp(&b.ram_mb)) // then MMT
                .then(a.id.cmp(&b.id))
        });
        vms.into_iter().map(|v| v.id).collect()
    }

    /// The full Drowsy-DC planning round: Neat's overload/underload
    /// handling with IP-aware selection/placement, then the opportunistic
    /// 7σ-range pass.
    pub fn plan(&self, state: &ClusterState) -> ConsolidationPlan {
        let mut scratch = PlanScratch::new(state.clone());
        let mut plan = ConsolidationPlan::default();

        // --- overloaded hosts: IP-aware selection + placement.
        let overloaded = self.neat.exclude_overloaded(&mut scratch);
        for slot in overloaded {
            let host_id = scratch.host(slot).id;
            let order = self.select_order(scratch.state(), host_id);
            for vm_id in order {
                if !self.neat.is_overloaded(scratch.utilization(slot)) {
                    break;
                }
                let vm = scratch
                    .host(slot)
                    .vms
                    .iter()
                    .find(|v| v.id == vm_id)
                    .cloned()
                    .expect("vm still resident");
                let Some(dest) = self.closest_ip_choose(&scratch, &vm) else {
                    continue;
                };
                let to = scratch.host(dest).id;
                if scratch.migrate(vm.id, slot, dest).is_ok() {
                    plan.migrations.push(Migration {
                        vm: vm.id,
                        from: host_id,
                        to,
                    });
                }
            }
        }

        // --- underloaded hosts: drain with closest-IP destinations,
        // biggest resource requirements first ("we first treat VMs with
        // the biggest resource requirements").
        let drained = drain_underloaded(
            &mut scratch,
            self.config.neat.underload_threshold,
            |vms| {
                vms.sort_by(|a, b| {
                    b.ram_mb
                        .cmp(&a.ram_mb)
                        .then(
                            b.cpu_demand
                                .partial_cmp(&a.cpu_demand)
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                        .then(a.id.cmp(&b.id))
                })
            },
            |scratch, vm| self.closest_ip_choose(scratch, vm),
            &mut plan,
        );

        // --- opportunistic IP-range pass: only drained hosts (and the
        // host being fixed) are off-limits now.
        for (slot, &d) in drained.iter().enumerate() {
            scratch.set_excluded(slot, d);
        }
        let (moves, swaps) = self.opportunistic_pass(&mut scratch, &drained);
        plan.migrations.extend(moves);
        plan.swaps = swaps;
        plan
    }

    /// The purely IP-based consolidation step: break up hosts whose VM IP
    /// range exceeds the threshold by moving the most extreme VMs to the
    /// hosts with the closest IP. When every candidate destination is at
    /// capacity (the common case on a tightly packed cluster) the pass
    /// falls back to *exchanging* the extreme VM against the best-matching
    /// VM of another host. Expects exactly the `drained` slots excluded;
    /// mutates `scratch`; returns `(moves, swaps)`.
    fn opportunistic_pass(
        &self,
        scratch: &mut PlanScratch,
        drained: &[bool],
    ) -> (Vec<Migration>, Vec<Swap>) {
        let mut moves = Vec::new();
        let mut swaps = Vec::new();
        let mut budget = self.config.max_opportunistic_moves;
        // Iterate hosts in snapshot order for determinism; repeat per host
        // until its range is under threshold or no further move helps.
        for slot in 0..scratch.len() {
            loop {
                if budget == 0 {
                    return (moves, swaps);
                }
                let host = scratch.host(slot);
                let range_before = host.ip_range();
                if range_before <= self.ip_range_threshold {
                    break;
                }
                // The VM with the IP furthest from the host's mean.
                let host_ip = scratch.ip_score(slot);
                let frozen = &scratch.state().frozen;
                let Some(extreme) = host
                    .vms
                    .iter()
                    .filter(|v| !frozen.contains(&v.id))
                    .max_by(|a, b| {
                        let da = (a.ip_score - host_ip).abs();
                        let db = (b.ip_score - host_ip).abs();
                        da.partial_cmp(&db)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(b.id.cmp(&a.id))
                    })
                    .cloned()
                else {
                    break;
                };
                let host_id = host.id;
                // A wide-range host is never drained (drained hosts are
                // empty), so it is excluded only for its own query.
                scratch.set_excluded(slot, true);
                let dest = self.closest_ip_choose(scratch, &extreme);
                scratch.set_excluded(slot, false);
                if let Some(dest) = dest {
                    // Guard against thrash: the move must not leave the
                    // destination in (new) violation worse than its
                    // current state.
                    let dest_state = scratch.host(dest);
                    let before = dest_state.ip_range();
                    let after = range_with(&dest_state.vms, None, Some(extreme.ip_score));
                    if !(after > self.ip_range_threshold && after > before) {
                        let to = dest_state.id;
                        if scratch.migrate(extreme.id, slot, dest).is_ok() {
                            moves.push(Migration {
                                vm: extreme.id,
                                from: host_id,
                                to,
                            });
                            budget -= 1;
                            continue;
                        }
                    }
                }
                // No direct destination: look for the best exchange.
                match self.best_swap(scratch, slot, &extreme, drained) {
                    Some((swap, other)) if scratch.swap(slot, other, swap).is_ok() => {
                        swaps.push(swap);
                        budget -= 1;
                    }
                    _ => break, // accept the wide range
                }
            }
        }
        (moves, swaps)
    }

    /// Finds the swap partner for `extreme` (resident in slot `src_slot`)
    /// that minimizes the worse of the two post-swap IP ranges, requiring
    /// a strict improvement so repeated planning rounds terminate.
    /// Returns the swap and the partner's slot.
    fn best_swap(
        &self,
        scratch: &PlanScratch,
        src_slot: usize,
        extreme: &VmState,
        drained: &[bool],
    ) -> Option<(Swap, usize)> {
        let src = scratch.host(src_slot);
        let src_ram = scratch.ram_used(src_slot);
        let range_src = src.ip_range();
        let frozen = &scratch.state().frozen;
        let mut best: Option<(f64, Swap, usize)> = None;
        for (slot, &is_drained) in drained.iter().enumerate() {
            if slot == src_slot || is_drained {
                continue;
            }
            let other = scratch.host(slot);
            let other_ram = scratch.ram_used(slot);
            // RAM feasibility both ways (same-flavour swaps always pass).
            for cand in &other.vms {
                if frozen.contains(&cand.id) {
                    continue;
                }
                let src_ram_ok = src_ram - extreme.ram_mb + cand.ram_mb <= src.ram_capacity;
                let dst_ram_ok = other_ram - cand.ram_mb + extreme.ram_mb <= other.ram_capacity;
                if !src_ram_ok || !dst_ram_ok {
                    continue;
                }
                let src_after = range_with(&src.vms, Some(extreme.id), Some(cand.ip_score));
                let dst_after = range_with(&other.vms, Some(cand.id), Some(extreme.ip_score));
                let worst_after = src_after.max(dst_after);
                let worst_before = range_src.max(other.ip_range());
                // Accept only strict improvements of the worse range (or
                // both ranges dropping under the threshold).
                let fixes_both =
                    src_after <= self.ip_range_threshold && dst_after <= self.ip_range_threshold;
                if worst_after + 1e-12 < worst_before || fixes_both {
                    let key = worst_after;
                    if best.as_ref().is_none_or(|(b, ..)| key < *b) {
                        best = Some((
                            key,
                            Swap {
                                vm_a: extreme.id,
                                host_a: src.id,
                                vm_b: cand.id,
                                host_b: other.id,
                            },
                            slot,
                        ));
                    }
                }
            }
        }
        best.map(|(_, s, slot)| (s, slot))
    }
}

/// IP range of a VM set after optionally removing one VM and adding one
/// score.
pub(crate) fn range_with(vms: &[VmState], remove: Option<VmId>, add_score: Option<f64>) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut n = 0usize;
    for v in vms {
        if Some(v.id) == remove {
            continue;
        }
        lo = lo.min(v.ip_score);
        hi = hi.max(v.ip_score);
        n += 1;
    }
    if let Some(s) = add_score {
        lo = lo.min(s);
        hi = hi.max(s);
        n += 1;
    }
    if n < 2 {
        0.0
    } else {
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testkit::{host, vm};
    use proptest::prelude::*;

    fn planner() -> DrowsyPlanner {
        DrowsyPlanner::new(DrowsyConfig::paper_default())
    }

    /// The closest-IP pick over every host, checked against the
    /// full-scan oracle.
    fn closest(p: &DrowsyPlanner, state: &ClusterState, vm: &VmState) -> Option<HostId> {
        let scratch = PlanScratch::new(state.clone());
        let got = p
            .closest_ip_choose(&scratch, vm)
            .map(|slot| scratch.host(slot).id);
        let none = Default::default();
        assert_eq!(got, crate::oracle::closest_ip_choose(p, state, vm, &none));
        got
    }

    #[test]
    fn closest_ip_wins_over_packing() {
        let p = planner();
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 4.0, -0.5)]), // busy, active-ish IP
            host(1, 0, vec![vm(2, 0.5, 0.4)]),  // idle-ish IP
            host(2, 0, vec![]),
        ]);
        // An idle VM (score 0.41) should land with the idle host even
        // though the busy host is "fuller" (better packing).
        let candidate = vm(9, 0.1, 0.41);
        let dest = closest(&p, &state, &candidate).unwrap();
        assert_eq!(dest, HostId(1));
    }

    #[test]
    fn within_tolerance_falls_back_to_packing() {
        let p = planner();
        // Both hosts' IPs within σ of the VM: tie → fuller host.
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 1.0, 0.40000)]),
            host(1, 0, vec![vm(2, 3.0, 0.40002)]),
        ]);
        let candidate = vm(9, 0.1, 0.40001);
        let dest = closest(&p, &state, &candidate).unwrap();
        assert_eq!(dest, HostId(1), "equal-bucket tie → best fit");
    }

    #[test]
    fn select_order_puts_misfits_first() {
        let p = planner();
        let state = ClusterState::new(vec![host(
            0,
            0,
            vec![vm(1, 0.1, 0.30), vm(2, 0.1, 0.31), vm(3, 0.1, -0.40)],
        )]);
        let order = p.select_order(&state, HostId(0));
        assert_eq!(order[0], VmId(3), "the anti-pattern VM leaves first");
    }

    #[test]
    fn select_order_tolerance_falls_back_to_mmt() {
        let p = planner();
        let mut small = vm(1, 0.1, 0.100001);
        small.ram_mb = 1_000;
        let mut big = vm(2, 0.1, 0.1);
        big.ram_mb = 6_000;
        // Both distances ≈ 0 bucket; MMT picks the small-RAM VM first.
        let state = ClusterState::new(vec![host(0, 0, vec![big, small])]);
        let order = p.select_order(&state, HostId(0));
        assert_eq!(order[0], VmId(1));
    }

    #[test]
    fn opportunistic_pass_groups_similar_ips() {
        let p = planner();
        let thr = p.ip_range_threshold;
        // Hosts 0 and 1 each mix one idle-pattern and one active-pattern
        // VM (range 0.8 >> 7σ); the pass should regroup them.
        let state = ClusterState::new(vec![
            host(0, 2, vec![vm(1, 0.1, 0.4), vm(2, 0.1, -0.4)]),
            host(1, 2, vec![vm(3, 0.1, 0.4), vm(4, 0.1, -0.4)]),
        ]);
        let plan = p.plan(&state);
        assert!(!plan.swaps.is_empty(), "full hosts regroup via swaps");
        let mut after = state;
        after.apply_plan(&plan).unwrap();
        for h in &after.hosts {
            assert!(
                h.ip_range() <= thr,
                "host {} still has range {} > {thr}",
                h.id,
                h.ip_range()
            );
        }
        // Idle VMs together, active VMs together.
        let h_of = |v: u32| after.host_of(VmId(v)).unwrap();
        assert_eq!(h_of(1), h_of(3));
        assert_eq!(h_of(2), h_of(4));
        assert_ne!(h_of(1), h_of(2));
        after.check_invariants().unwrap();
    }

    #[test]
    fn opportunistic_pass_is_noop_within_threshold() {
        let p = planner();
        let state = ClusterState::new(vec![
            host(0, 2, vec![vm(1, 0.1, 0.0001), vm(2, 0.1, 0.0002)]),
            host(1, 2, vec![vm(3, 0.1, 0.0001)]),
        ]);
        let plan = p.plan(&state);
        // Hosts are under-utilized so Neat-style draining may still fire;
        // but no *opportunistic* move may occur. Drain moves all carry
        // hosts_to_power_off bookkeeping; verify ranges stayed tight.
        let mut after = state;
        after.apply_plan(&plan).unwrap();
        for h in &after.hosts {
            assert!(h.ip_range() <= p.ip_range_threshold);
        }
    }

    #[test]
    fn overloaded_host_sheds_furthest_ip_first() {
        let mut cfg = DrowsyConfig::paper_default();
        cfg.neat.underload_threshold = 0.0;
        let p = DrowsyPlanner::new(cfg);
        // Host 0 overloaded (util 0.9); VMs 1/2 share the active pattern,
        // VM 3 is the idle-pattern misfit (furthest from the host mean).
        // Host 1 has a matching IP for it. Small-RAM VMs so three fit.
        let mk = |id: u32, demand: f64, score: f64| {
            let mut v = vm(id, demand, score);
            v.ram_mb = 4_000;
            v
        };
        let state = ClusterState::new(vec![
            host(
                0,
                0,
                vec![mk(1, 2.4, -0.3), mk(2, 2.4, -0.3), mk(3, 2.4, 0.3)],
            ),
            host(1, 0, vec![mk(4, 0.5, 0.3)]),
        ]);
        let plan = p.plan(&state);
        assert!(!plan.migrations.is_empty());
        assert_eq!(plan.migrations[0].vm, VmId(3), "IP misfit leaves first");
        assert_eq!(plan.migrations[0].to, HostId(1), "to the matching host");
    }

    #[test]
    fn budget_caps_opportunistic_moves() {
        let mut cfg = DrowsyConfig::paper_default();
        cfg.max_opportunistic_moves = 1;
        cfg.neat.underload_threshold = 0.0;
        let p = DrowsyPlanner::new(cfg);
        let state = ClusterState::new(vec![
            host(0, 2, vec![vm(1, 0.1, 0.4), vm(2, 0.1, -0.4)]),
            host(1, 2, vec![vm(3, 0.1, 0.4), vm(4, 0.1, -0.4)]),
            host(2, 2, vec![vm(5, 0.1, 0.4), vm(6, 0.1, -0.4)]),
        ]);
        let plan = p.plan(&state);
        assert!(plan.migrations.len() <= 1);
    }

    proptest! {
        /// Drowsy plans always apply cleanly and never leave a host over
        /// capacity, for arbitrary IP scores and demands.
        #[test]
        fn plans_always_applicable(
            demands in proptest::collection::vec(0.0f64..4.0, 8),
            scores in proptest::collection::vec(-0.05f64..0.05, 8),
        ) {
            let mk = |i: usize| vm(i as u32, demands[i], scores[i]);
            let state = ClusterState::new(vec![
                host(0, 3, vec![mk(0), mk(1)]),
                host(1, 3, vec![mk(2), mk(3)]),
                host(2, 3, vec![mk(4), mk(5)]),
                host(3, 3, vec![mk(6), mk(7)]),
            ]);
            let plan = planner().plan(&state);
            let mut after = state.clone();
            prop_assert!(after.apply_plan(&plan).is_ok());
            prop_assert!(after.check_invariants().is_ok());
            prop_assert_eq!(after.vm_count(), state.vm_count());
        }

        /// The opportunistic pass never *increases* the worst host IP
        /// range.
        #[test]
        fn opportunistic_never_worsens_max_range(
            scores in proptest::collection::vec(-0.5f64..0.5, 8),
        ) {
            let mk = |i: usize| vm(i as u32, 0.1, scores[i]);
            let state = ClusterState::new(vec![
                host(0, 4, vec![mk(0), mk(1)]),
                host(1, 4, vec![mk(2), mk(3)]),
                host(2, 4, vec![mk(4), mk(5)]),
                host(3, 4, vec![mk(6), mk(7)]),
            ]);
            let worst_before = state
                .hosts
                .iter()
                .map(|h| h.ip_range())
                .fold(0.0f64, f64::max);
            let mut cfg = DrowsyConfig::paper_default();
            cfg.neat.underload_threshold = 0.0;
            let p = DrowsyPlanner::new(cfg);
            let plan = p.plan(&state);
            let mut after = state;
            after.apply_plan(&plan).unwrap();
            let worst_after = after
                .hosts
                .iter()
                .map(|h| h.ip_range())
                .fold(0.0f64, f64::max);
            prop_assert!(worst_after <= worst_before + 1e-9);
        }
    }
}
