//! Oasis baseline — hybrid server consolidation via partial VM migration.
//!
//! Oasis (Zhi, Bila & de Lara, EuroSys'16) is the "comparable VM
//! consolidation support system" the paper benchmarks against in §VI.B.
//! Its mechanism: when a VM goes idle, only a *small working set* of its
//! state is migrated to an always-on consolidation server; the (now
//! logically empty) origin host can enter a low-power state. When the VM
//! becomes active again, it faults its state back to the origin host,
//! which must first be woken.
//!
//! We approximate the mechanism at the granularity our simulation
//! resolves (hourly activity, per-host power states):
//!
//! * a VM idle for [`PARK_AFTER_IDLE_HOURS`] consecutive hours is
//!   **parked** on the always-on consolidation host, occupying only
//!   [`PARK_FRACTION`] of its RAM there (the partial working set);
//! * a parked VM that shows activity is **unparked** back to its origin
//!   host (preferred) or any fitting host;
//! * the datacenter controller treats hosts with only parked-away VMs as
//!   suspendable and charges partial-migration time on both directions.
//!
//! What this preserves for the comparison: Oasis saves energy from
//! instantaneous idleness *without* modelling idleness patterns, so VMs
//! with mismatched schedules repeatedly wake their origin hosts — exactly
//! the behaviour Drowsy-DC's matching placement avoids.

use crate::types::{ClusterState, Migration};
use dds_sim_core::{HostId, VmId};
use std::collections::{HashMap, HashSet};

/// Fraction of a VM's RAM that its parked working set occupies on the
/// consolidation host (Oasis reports working sets ≈ tens of MB–10 %).
pub const PARK_FRACTION: f64 = 0.10;

/// Consecutive idle hours before a VM is parked. Parking is not
/// instantaneous in Oasis: the working set is trickled out and short
/// idle gaps are not worth the round trip.
pub const PARK_AFTER_IDLE_HOURS: u32 = 2;

/// One planning round's output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OasisPlan {
    /// Partial migrations of idle VMs onto consolidation hosts.
    pub park: Vec<Migration>,
    /// Fault-backs of newly active VMs to their origin (or fallback) host.
    pub unpark: Vec<Migration>,
}

impl OasisPlan {
    /// True when nothing moves.
    pub fn is_empty(&self) -> bool {
        self.park.is_empty() && self.unpark.is_empty()
    }
}

/// The stateful Oasis planner.
#[derive(Debug, Clone)]
pub struct OasisPlanner {
    /// The always-on host that holds parked working sets.
    consolidation_host: HostId,
    /// Consecutive idle hours per VM.
    idle_streak: HashMap<VmId, u32>,
    /// Origin host of each parked VM.
    origin: HashMap<VmId, HostId>,
    /// Currently parked VMs.
    parked: HashSet<VmId>,
}

impl OasisPlanner {
    /// Creates a planner parking on `consolidation_host`.
    pub fn new(consolidation_host: HostId) -> Self {
        OasisPlanner {
            consolidation_host,
            idle_streak: HashMap::new(),
            origin: HashMap::new(),
            parked: HashSet::new(),
        }
    }

    /// True when the VM's working set currently lives on the
    /// consolidation host.
    pub fn is_parked(&self, vm: VmId) -> bool {
        self.parked.contains(&vm)
    }

    /// RAM a VM occupies on the consolidation host while parked.
    fn parked_ram(&self, full_ram: u64) -> u64 {
        (full_ram as f64 * PARK_FRACTION).ceil() as u64
    }

    /// One planning round. `state` reflects current residency (parked VMs
    /// appear on consolidation hosts with their full `VmState`; the
    /// controller accounts the reduced footprint). `cpu_demand` per VM
    /// encodes this hour's activity (0 = idle).
    pub fn plan(&mut self, state: &ClusterState) -> OasisPlan {
        let mut plan = OasisPlan::default();
        let ch = self.consolidation_host;

        // Free parked-capacity on the consolidation host (working sets).
        let mut parked_free: i64 = state.host(ch).map_or(0, |h| {
            let parked_used: u64 = h
                .vms
                .iter()
                .filter(|v| self.parked.contains(&v.id))
                .map(|v| self.parked_ram(v.ram_mb))
                .sum();
            let native_used: u64 = h
                .vms
                .iter()
                .filter(|v| !self.parked.contains(&v.id))
                .map(|v| v.ram_mb)
                .sum();
            h.ram_capacity as i64 - parked_used as i64 - native_used as i64
        });

        // --- unpark: parked VMs that woke up.
        let on_ch = state.host(ch).map_or(&[][..], |h| &h.vms[..]);
        for vmst in on_ch {
            if !self.parked.contains(&vmst.id) || vmst.cpu_demand <= 0.0 {
                continue;
            }
            let origin = self.origin.get(&vmst.id).copied();
            // Prefer the origin host when it still fits; else any other
            // host with room.
            let dest = origin
                .filter(|&o| {
                    state
                        .host(o)
                        .map(|h| h.fits(vmst) || h.vms.iter().any(|v| v.id == vmst.id))
                        .unwrap_or(false)
                })
                .or_else(|| {
                    state
                        .hosts
                        .iter()
                        .filter(|h| h.id != ch && h.fits(vmst))
                        .map(|h| h.id)
                        .min()
                });
            if let Some(dest) = dest {
                plan.unpark.push(Migration {
                    vm: vmst.id,
                    from: ch,
                    to: dest,
                });
            }
        }

        // --- park: idle streaks on regular hosts.
        for host in &state.hosts {
            if host.id == ch {
                continue;
            }
            for vmst in &host.vms {
                let streak = self.idle_streak.entry(vmst.id).or_insert(0);
                if vmst.cpu_demand <= 0.0 {
                    *streak += 1;
                } else {
                    *streak = 0;
                    continue;
                }
                if *streak < PARK_AFTER_IDLE_HOURS || self.parked.contains(&vmst.id) {
                    continue;
                }
                let need = self.parked_ram(vmst.ram_mb) as i64;
                // Park only while the working sets still fit.
                if parked_free >= need {
                    parked_free -= need;
                    plan.park.push(Migration {
                        vm: vmst.id,
                        from: host.id,
                        to: ch,
                    });
                }
            }
        }

        // Commit planner state for the emitted moves.
        for m in &plan.unpark {
            self.parked.remove(&m.vm);
            self.origin.remove(&m.vm);
            self.idle_streak.insert(m.vm, 0);
        }
        for m in &plan.park {
            self.parked.insert(m.vm);
            self.origin.insert(m.vm, m.from);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testkit::{host, vm};

    /// The consolidation host of every test.
    const CH: HostId = HostId(9);

    /// Plans `state` for the idle rounds just short of a park.
    fn plan_short_of_streak(p: &mut OasisPlanner, state: &ClusterState) {
        for round in 1..PARK_AFTER_IDLE_HOURS {
            assert!(p.plan(state).is_empty(), "idle round {round}");
        }
    }

    #[test]
    fn parks_after_idle_streak() {
        let mut p = OasisPlanner::new(CH);
        let state = ClusterState::new(vec![host(0, 0, vec![vm(1, 0.0, 0.0)]), host(9, 0, vec![])]);
        plan_short_of_streak(&mut p, &state);
        let plan = p.plan(&state);
        assert_eq!(plan.park.len(), 1);
        assert_eq!(plan.park[0].vm, VmId(1));
        assert_eq!(plan.park[0].to, CH);
        assert!(p.is_parked(VmId(1)));
        assert_eq!(plan.park[0].from, HostId(0), "the origin it faults back to");
    }

    #[test]
    fn active_vm_is_not_parked() {
        let mut p = OasisPlanner::new(CH);
        let state = ClusterState::new(vec![host(0, 0, vec![vm(1, 0.5, 0.0)]), host(9, 0, vec![])]);
        for _ in 0..=PARK_AFTER_IDLE_HOURS {
            assert!(p.plan(&state).is_empty());
        }
        assert!(!p.is_parked(VmId(1)));
    }

    #[test]
    fn longer_threshold_needs_streak() {
        // Streaks are per VM: a VM that turns idle a round later parks a
        // round later.
        assert_eq!(PARK_AFTER_IDLE_HOURS, 2, "the rounds below count to 2");
        let mut p = OasisPlanner::new(CH);
        let one_idle = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 0.0, 0.0), vm(2, 0.5, 0.0)]),
            host(9, 0, vec![]),
        ]);
        assert!(p.plan(&one_idle).is_empty(), "VM 1 streak 1");
        let both_idle = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 0.0, 0.0), vm(2, 0.0, 0.0)]),
            host(9, 0, vec![]),
        ]);
        let plan = p.plan(&both_idle);
        assert_eq!(plan.park.len(), 1, "only VM 1 has the full streak");
        assert_eq!(plan.park[0].vm, VmId(1));
        let vm1_parked = ClusterState::new(vec![
            host(0, 0, vec![vm(2, 0.0, 0.0)]),
            host(9, 0, vec![vm(1, 0.0, 0.0)]),
        ]);
        let plan = p.plan(&vm1_parked);
        assert_eq!(plan.park.len(), 1, "VM 2 reaches its streak a round later");
        assert_eq!(plan.park[0].vm, VmId(2));
    }

    #[test]
    fn activity_resets_streak() {
        assert_eq!(PARK_AFTER_IDLE_HOURS, 2, "the rounds below count to 2");
        let mut p = OasisPlanner::new(CH);
        let idle_state =
            ClusterState::new(vec![host(0, 0, vec![vm(1, 0.0, 0.0)]), host(9, 0, vec![])]);
        let busy_state =
            ClusterState::new(vec![host(0, 0, vec![vm(1, 0.7, 0.0)]), host(9, 0, vec![])]);
        assert!(p.plan(&idle_state).is_empty(), "streak 1");
        assert!(p.plan(&busy_state).is_empty(), "reset");
        assert!(p.plan(&idle_state).is_empty(), "streak 1 again");
        assert_eq!(p.plan(&idle_state).park.len(), 1, "streak 2 parks");
    }

    #[test]
    fn unparks_to_origin_on_activity() {
        let mut p = OasisPlanner::new(CH);
        let state = ClusterState::new(vec![host(0, 0, vec![vm(1, 0.0, 0.0)]), host(9, 0, vec![])]);
        plan_short_of_streak(&mut p, &state);
        assert_eq!(p.plan(&state).park.len(), 1, "parked");
        // Now the VM (living on host 9) becomes active.
        let state = ClusterState::new(vec![host(0, 0, vec![]), host(9, 0, vec![vm(1, 0.6, 0.0)])]);
        let plan = p.plan(&state);
        assert_eq!(plan.unpark.len(), 1);
        assert_eq!(plan.unpark[0].from, CH);
        assert_eq!(plan.unpark[0].to, HostId(0), "prefers origin");
        assert!(!p.is_parked(VmId(1)));
    }

    #[test]
    fn unpark_falls_back_when_origin_full() {
        let mut p = OasisPlanner::new(CH);
        let state = ClusterState::new(vec![
            host(0, 1, vec![vm(1, 0.0, 0.0)]),
            host(2, 1, vec![]),
            host(9, 0, vec![]),
        ]);
        plan_short_of_streak(&mut p, &state);
        assert_eq!(p.plan(&state).park.len(), 1, "parks VM 1 from host 0");
        // Origin host 0 is now occupied by another VM (cap 1).
        let state = ClusterState::new(vec![
            host(0, 1, vec![vm(5, 0.1, 0.0)]),
            host(2, 1, vec![]),
            host(9, 0, vec![vm(1, 0.9, 0.0)]),
        ]);
        let plan = p.plan(&state);
        assert_eq!(plan.unpark.len(), 1);
        assert_eq!(plan.unpark[0].to, HostId(2), "fallback host");
    }

    #[test]
    fn consolidation_capacity_limits_parking() {
        let mut p = OasisPlanner::new(CH);
        // Working set = ⌈10 % of 6 GiB⌉ = 615 MB: shrink the consolidation
        // host to fit two working sets, not three.
        let working_set = (6_144.0 * PARK_FRACTION).ceil() as u64;
        let mut ch = host(9, 0, vec![]);
        ch.ram_capacity = 2 * working_set + working_set / 2;
        let idle = (1..=3).map(|i| vm(i, 0.0, 0.0)).collect();
        let state = ClusterState::new(vec![host(0, 0, idle), ch]);
        plan_short_of_streak(&mut p, &state);
        let plan = p.plan(&state);
        assert_eq!(plan.park.len(), 2, "third VM exceeds parked capacity");
    }
}
