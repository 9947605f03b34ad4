//! Test oracle for the planners: Neat's and Drowsy-DC's planning rounds
//! in their direct clone-and-scan form — a snapshot clone per drain
//! candidate and a full host scan per destination query. The production
//! planners, which run on [`PlanScratch`](crate::scratch::PlanScratch),
//! must return the same [`ConsolidationPlan`] on every state.

use crate::drowsy::range_with;
use crate::neat::{mmt_pick, NeatPlanner};
use crate::types::{ClusterState, ConsolidationPlan, Migration, Swap, VmState};
use crate::DrowsyPlanner;
use dds_sim_core::HostId;
use std::collections::HashSet;

/// Full-scan PABFD destination choice.
pub(crate) fn pabfd_choose(
    p: &NeatPlanner,
    state: &ClusterState,
    vm: &VmState,
    exclude: &HashSet<HostId>,
) -> Option<HostId> {
    let mut best: Option<(f64, f64, HostId)> = None; // (power_inc, -util_after, id)
    for host in &state.hosts {
        if exclude.contains(&host.id) || !host.fits(vm) {
            continue;
        }
        let util_before = host.utilization();
        let util_after = (host.cpu_demand() + vm.cpu_demand) / host.cpu_capacity.max(1e-9);
        if util_after > p.config.destination_guard {
            continue;
        }
        let power_inc = (util_after - util_before) * host.cpu_capacity;
        let key = (power_inc, -util_after, host.id);
        if best.is_none_or(|(p, u, id)| (key.0, key.1, key.2) < (p, u, id)) {
            best = Some(key);
        }
    }
    best.map(|(_, _, id)| id)
}

/// Full-scan closest-IP destination choice.
pub(crate) fn closest_ip_choose(
    p: &DrowsyPlanner,
    state: &ClusterState,
    vm: &VmState,
    exclude: &HashSet<HostId>,
) -> Option<HostId> {
    let tol = p.ip_tolerance;
    let mut best: Option<(i64, f64, HostId)> = None; // (dist bucket, -util, id)
    for h in &state.hosts {
        if exclude.contains(&h.id) || !h.fits(vm) {
            continue;
        }
        let util_after = (h.cpu_demand() + vm.cpu_demand) / h.cpu_capacity.max(1e-9);
        if util_after > p.config.neat.destination_guard {
            continue;
        }
        let dist = (h.ip_score() - vm.ip_score).abs();
        let bucket = (dist / tol).floor() as i64;
        let key = (bucket, -util_after, h.id);
        if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
            best = Some(key);
        }
    }
    best.map(|(_, _, id)| id)
}

/// Full-scan overload detection.
fn overloaded_hosts(p: &NeatPlanner, state: &ClusterState) -> Vec<HostId> {
    state
        .hosts
        .iter()
        .filter(|h| h.utilization() > p.config.overload_threshold)
        .map(|h| h.id)
        .collect()
}

/// Drains underloaded hosts with one snapshot clone per candidate.
fn drain(
    scratch: &mut ClusterState,
    p: &NeatPlanner,
    overloaded_set: &HashSet<HostId>,
    order: impl Fn(&mut [VmState]),
    choose: impl Fn(&ClusterState, &VmState, &HashSet<HostId>) -> Option<HostId>,
    plan: &mut ConsolidationPlan,
) -> HashSet<HostId> {
    let mut candidates: Vec<HostId> = scratch
        .hosts
        .iter()
        .filter(|h| {
            !h.is_empty()
                && !overloaded_set.contains(&h.id)
                && h.utilization() < p.config.underload_threshold
        })
        .map(|h| h.id)
        .collect();
    candidates.sort_by(|&a, &b| {
        let ua = scratch.host(a).unwrap().utilization();
        let ub = scratch.host(b).unwrap().utilization();
        ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut drained: HashSet<HostId> = HashSet::new();
    for host_id in candidates {
        let mut tentative = scratch.clone();
        let mut moves = Vec::new();
        let mut exclude = overloaded_set.clone();
        exclude.insert(host_id);
        exclude.extend(drained.iter().copied());
        exclude.extend(
            tentative
                .hosts
                .iter()
                .filter(|h| h.is_empty())
                .map(|h| h.id),
        );
        let mut vms = tentative.host(host_id).unwrap().vms.clone();
        order(&mut vms);
        let mut ok = true;
        for vm in vms {
            let Some(dest) = choose(&tentative, &vm, &exclude) else {
                ok = false;
                break;
            };
            let m = Migration {
                vm: vm.id,
                from: host_id,
                to: dest,
            };
            if tentative.apply(m).is_err() {
                ok = false;
                break;
            }
            moves.push(m);
        }
        if ok {
            *scratch = tentative;
            plan.migrations.extend(moves);
            plan.hosts_to_power_off.push(host_id);
            drained.insert(host_id);
        }
    }
    drained
}

/// Neat's planning round, clone-and-scan.
pub(crate) fn neat_plan(p: &NeatPlanner, state: &ClusterState) -> ConsolidationPlan {
    let mut scratch = state.clone();
    let mut plan = ConsolidationPlan::default();
    let overloaded = overloaded_hosts(p, &scratch);
    let overloaded_set: HashSet<HostId> = overloaded.iter().copied().collect();
    for host_id in overloaded {
        loop {
            let host = scratch.host(host_id).expect("host exists");
            if host.utilization() <= p.config.overload_threshold {
                break;
            }
            let Some(vm) = mmt_pick(&host.vms) else {
                break;
            };
            let Some(dest) = pabfd_choose(p, &scratch, &vm, &overloaded_set) else {
                break;
            };
            let m = Migration {
                vm: vm.id,
                from: host_id,
                to: dest,
            };
            if scratch.apply(m).is_err() {
                break;
            }
            plan.migrations.push(m);
        }
    }
    drain(
        &mut scratch,
        p,
        &overloaded_set,
        |vms| {
            vms.sort_by(|a, b| {
                b.cpu_demand
                    .partial_cmp(&a.cpu_demand)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.ram_mb.cmp(&a.ram_mb))
            })
        },
        |s, vm, ex| pabfd_choose(p, s, vm, ex),
        &mut plan,
    );
    plan
}

/// Drowsy-DC's planning round, clone-and-scan.
pub(crate) fn drowsy_plan(p: &DrowsyPlanner, state: &ClusterState) -> ConsolidationPlan {
    let neat = NeatPlanner::new(p.config.neat.clone());
    let mut scratch = state.clone();
    let mut plan = ConsolidationPlan::default();
    let overloaded = overloaded_hosts(&neat, &scratch);
    let overloaded_set: HashSet<HostId> = overloaded.iter().copied().collect();
    for host_id in overloaded {
        let order = p.select_order(&scratch, host_id);
        for vm_id in order {
            let host = scratch.host(host_id).expect("host exists");
            if host.utilization() <= p.config.neat.overload_threshold {
                break;
            }
            let vm = scratch
                .host(host_id)
                .and_then(|h| h.vms.iter().find(|v| v.id == vm_id))
                .cloned()
                .expect("vm still resident");
            let Some(dest) = closest_ip_choose(p, &scratch, &vm, &overloaded_set) else {
                continue;
            };
            let m = Migration {
                vm: vm.id,
                from: host_id,
                to: dest,
            };
            if scratch.apply(m).is_ok() {
                plan.migrations.push(m);
            }
        }
    }
    let drained = drain(
        &mut scratch,
        &neat,
        &overloaded_set,
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
        |s, vm, ex| closest_ip_choose(p, s, vm, ex),
        &mut plan,
    );
    let (moves, swaps) = opportunistic_pass(p, &mut scratch, &drained);
    plan.migrations.extend(moves);
    plan.swaps = swaps;
    plan
}

fn opportunistic_pass(
    p: &DrowsyPlanner,
    scratch: &mut ClusterState,
    drained: &HashSet<HostId>,
) -> (Vec<Migration>, Vec<Swap>) {
    let mut moves = Vec::new();
    let mut swaps = Vec::new();
    let mut budget = p.config.max_opportunistic_moves;
    let host_ids: Vec<HostId> = scratch.hosts.iter().map(|h| h.id).collect();
    for host_id in host_ids {
        loop {
            if budget == 0 {
                return (moves, swaps);
            }
            let host = scratch.host(host_id).expect("host exists");
            let range_before = host.ip_range();
            if range_before <= p.ip_range_threshold {
                break;
            }
            let host_ip = host.ip_score();
            let Some(extreme) = host
                .vms
                .iter()
                .filter(|v| !scratch.frozen.contains(&v.id))
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
            let mut exclude: HashSet<HostId> = drained.iter().copied().collect();
            exclude.insert(host_id);
            if let Some(dest) = closest_ip_choose(p, scratch, &extreme, &exclude) {
                let dest_state = scratch.host(dest).expect("dest exists");
                let before = dest_state.ip_range();
                let after = range_with(&dest_state.vms, None, Some(extreme.ip_score));
                if !(after > p.ip_range_threshold && after > before) {
                    let m = Migration {
                        vm: extreme.id,
                        from: host_id,
                        to: dest,
                    };
                    if scratch.apply(m).is_ok() {
                        moves.push(m);
                        budget -= 1;
                        continue;
                    }
                }
            }
            match best_swap(p, scratch, host_id, &extreme, drained) {
                Some(swap) if scratch.apply_swap(swap).is_ok() => {
                    swaps.push(swap);
                    budget -= 1;
                }
                _ => break,
            }
        }
    }
    (moves, swaps)
}

fn best_swap(
    p: &DrowsyPlanner,
    scratch: &ClusterState,
    host_id: HostId,
    extreme: &VmState,
    drained: &HashSet<HostId>,
) -> Option<Swap> {
    let src = scratch.host(host_id).expect("host exists");
    let range_src = src.ip_range();
    let mut best: Option<(f64, Swap)> = None;
    for other in &scratch.hosts {
        if other.id == host_id || drained.contains(&other.id) {
            continue;
        }
        for cand in &other.vms {
            if scratch.frozen.contains(&cand.id) {
                continue;
            }
            let src_ram_ok = src.ram_used() - extreme.ram_mb + cand.ram_mb <= src.ram_capacity;
            let dst_ram_ok = other.ram_used() - cand.ram_mb + extreme.ram_mb <= other.ram_capacity;
            if !src_ram_ok || !dst_ram_ok {
                continue;
            }
            let src_after = range_with(&src.vms, Some(extreme.id), Some(cand.ip_score));
            let dst_after = range_with(&other.vms, Some(cand.id), Some(extreme.ip_score));
            let worst_after = src_after.max(dst_after);
            let worst_before = range_src.max(other.ip_range());
            let fixes_both = src_after <= p.ip_range_threshold && dst_after <= p.ip_range_threshold;
            if worst_after + 1e-12 < worst_before || fixes_both {
                let key = worst_after;
                if best.as_ref().is_none_or(|(b, _)| key < *b) {
                    best = Some((
                        key,
                        Swap {
                            vm_a: extreme.id,
                            host_a: host_id,
                            vm_b: cand.id,
                            host_b: other.id,
                        },
                    ));
                }
            }
        }
    }
    best.map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neat::NeatConfig;
    use crate::types::HostState;
    use crate::DrowsyConfig;
    use dds_sim_core::{SimRng, VmId};
    use proptest::prelude::*;

    /// A random cluster built from `seed`, covering what makes the
    /// planners' fast paths tricky: non-dense host ids (one host dropped,
    /// as in Oasis's packing view), VM caps, two RAM flavours (a drain can
    /// place its small VMs and then fail on a large one), overloaded
    /// hosts, frozen VMs and IP scores both within the tolerance and far
    /// apart. Demands come from a small grid so ties and float
    /// summation order both matter.
    fn random_state(seed: u64) -> ClusterState {
        const DEMANDS: [f64; 8] = [0.0, 0.1, 0.2, 0.3, 0.7, 1.3, 2.4, 3.5];
        const SCORES: [f64; 6] = [-0.4, -0.01, 0.0, 1e-5, 0.01, 0.3];
        let mut rng = SimRng::new(seed);
        let n = 3 + rng.below(10) as u32;
        let mut next_vm = 0u32;
        let mut hosts = Vec::new();
        for id in 0..n {
            let max_vms = *rng.choose(&[0usize, 0, 2, 3, 4]);
            let mut h = HostState::new(HostId(id), 8.0, 16_384);
            h.max_vms = max_vms;
            let count = rng.below(5) as usize;
            let mut ram = 0;
            for _ in 0..count {
                if max_vms != 0 && h.vms.len() >= max_vms {
                    break;
                }
                let ram_mb = *rng.choose(&[4_096u64, 6_144]);
                if ram + ram_mb > h.ram_capacity {
                    break;
                }
                ram += ram_mb;
                let ip_score = if rng.chance(0.3) {
                    rng.uniform(-0.5, 0.5)
                } else {
                    *rng.choose(&SCORES)
                };
                h.vms.push(VmState {
                    id: VmId(next_vm),
                    vcpus: 2.0,
                    ram_mb,
                    cpu_demand: *rng.choose(&DEMANDS),
                    ip_score,
                });
                next_vm += 1;
            }
            hosts.push(h);
        }
        if rng.chance(0.5) {
            let drop = rng.below(n as u64) as usize;
            hosts.remove(drop);
        }
        let mut state = ClusterState::new(hosts);
        for v in 0..next_vm {
            if rng.chance(0.2) {
                state.freeze(VmId(v));
            }
        }
        state
    }

    /// The paper's thresholds, or ones that put more hosts through
    /// overload relief (and fewer through draining).
    fn neat_config(variant: u64) -> NeatConfig {
        match variant % 3 {
            0 => NeatConfig::paper_default(),
            1 => NeatConfig {
                overload_threshold: 0.5,
                ..NeatConfig::paper_default()
            },
            _ => NeatConfig {
                overload_threshold: 0.3,
                underload_threshold: 0.2,
                destination_guard: 0.9,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The scratch-based Neat planner returns the oracle's plan.
        #[test]
        fn neat_plans_match_the_clone_and_scan_oracle(seed in 0u64..u64::MAX, variant in 0u64..6) {
            let state = random_state(seed);
            let p = NeatPlanner::new(neat_config(variant));
            let fast = p.plan(&state);
            let slow = neat_plan(&p, &state);
            prop_assert_eq!(fast, slow);
        }

        /// The scratch-based Drowsy-DC planner returns the oracle's plan.
        #[test]
        fn drowsy_plans_match_the_clone_and_scan_oracle(seed in 0u64..u64::MAX, variant in 0u64..6) {
            let state = random_state(seed);
            let mut cfg = DrowsyConfig::paper_default();
            cfg.neat = neat_config(variant);
            let p = DrowsyPlanner::new(cfg);
            let fast = p.plan(&state);
            let slow = drowsy_plan(&p, &state);
            prop_assert_eq!(fast, slow);
        }
    }
}
