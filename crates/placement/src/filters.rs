//! Nova-style filter scheduler for initial VM placement.
//!
//! §III-D(a): OpenStack Nova's Filter Scheduler "(1) discard\[s\] the
//! unsuitable hosts based on a large panel of parameters such as available
//! resources; and (2) weight\[s\] and sort\[s\] the remaining hosts".
//! Drowsy-DC integrates by "add\[ing\] our own weigher so as to favor hosts
//! with best-matching idleness probability".

use crate::types::{HostState, VmState};
use dds_sim_core::HostId;

/// What the filter scheduler reads of one host, as Nova's host manager
/// keeps it: the filters' free RAM, vCPUs in use, resident count and
/// limits, and the IP weigher's mean resident score.
#[derive(Debug, Clone, Copy)]
pub struct HostSummary {
    id: HostId,
    /// RAM not held by residents, in MiB.
    ram_free: u64,
    /// The residents' vCPUs, summed in resident order.
    vcpus_used: f64,
    vm_count: usize,
    cpu_capacity: f64,
    /// VM cap (0 = unlimited).
    max_vms: usize,
    /// Mean resident IP score ([`HostState::ip_score`]); 0 when empty.
    ip_score: f64,
}

impl HostSummary {
    /// Summarizes a host from its residents' `(vcpus, ram_mb, ip_score)`
    /// in resident order, with the arithmetic of [`HostState`]'s
    /// `ram_free` and `ip_score`.
    pub fn new(
        id: HostId,
        cpu_capacity: f64,
        ram_capacity: u64,
        max_vms: usize,
        residents: impl Iterator<Item = (f64, u64, f64)> + Clone,
    ) -> Self {
        let vm_count = residents.clone().count();
        let ram_used: u64 = residents.clone().map(|(_, ram, _)| ram).sum();
        let ip_score = if vm_count == 0 {
            0.0
        } else {
            residents.clone().map(|(_, _, ip)| ip).sum::<f64>() / vm_count as f64
        };
        HostSummary {
            id,
            ram_free: ram_capacity.saturating_sub(ram_used),
            vcpus_used: residents.map(|(vcpus, _, _)| vcpus).sum(),
            vm_count,
            cpu_capacity,
            max_vms,
            ip_score,
        }
    }
}

impl From<&HostState> for HostSummary {
    fn from(host: &HostState) -> Self {
        HostSummary::new(
            host.id,
            host.cpu_capacity,
            host.ram_capacity,
            host.max_vms,
            host.vms.iter().map(|v| (v.vcpus, v.ram_mb, v.ip_score)),
        )
    }
}

/// The admission scheduler: Nova's filters, then min-max normalized,
/// weighted scores. The two configurations the policies use are its
/// variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterScheduler {
    /// Nova's filters and RAM-packing weigher (consolidation-friendly).
    Nova,
    /// Drowsy-DC's: Nova's filters, the IP-proximity weigher dominant
    /// (×10), RAM packing as tie-breaker (×1).
    Drowsy,
}

impl FilterScheduler {
    /// Step 1, Nova's filters: enough free RAM (RamFilter), no vCPU
    /// overcommit (CoreFilter at ratio 1.0; the paper's testbed runs
    /// 2 VMs × 2 vCPU on 4C8T) and the host's VM cap (NumInstancesFilter,
    /// the testbed's "maximum 2 VMs per machine"; 0 = unlimited).
    fn passes(host: &HostSummary, vm: &VmState) -> bool {
        host.ram_free >= vm.ram_mb
            && host.vcpus_used + vm.vcpus <= host.cpu_capacity
            && (host.max_vms == 0 || host.vm_count < host.max_vms)
    }

    /// Hosts passing every filter.
    fn filter(hosts: impl IntoIterator<Item = HostSummary>, vm: &VmState) -> Vec<HostSummary> {
        hosts.into_iter().filter(|h| Self::passes(h, vm)).collect()
    }

    /// Selects the best host for `vm` among `hosts`, one summary per host
    /// (built from a planner snapshot through `From<&HostState>`, or by
    /// the caller from its own residency records), or `None` when every
    /// host is filtered out. Weigher scores are min-max normalized across
    /// the hosts that pass (Nova's normalization) before weighting; equal
    /// totals go to the lowest host id.
    pub fn select(
        &self,
        hosts: impl IntoIterator<Item = HostSummary>,
        vm: &VmState,
    ) -> Option<HostId> {
        let candidates = Self::filter(hosts, vm);
        if candidates.is_empty() {
            return None;
        }
        let mut totals = vec![0.0f64; candidates.len()];
        if *self == FilterScheduler::Drowsy {
            // Drowsy-DC's idleness-proximity weigher: hosts whose IP best
            // matches the VM's score highest.
            let ip_proximity = candidates.iter().map(|h| -(h.ip_score - vm.ip_score).abs());
            add_normalized(&mut totals, 10.0, ip_proximity);
        }
        // Nova's RAM weigher with a negative multiplier: packs.
        let ram_packing = candidates.iter().map(|h| -(h.ram_free as f64));
        add_normalized(&mut totals, 1.0, ram_packing);
        let mut best = 0usize;
        for i in 1..candidates.len() {
            let better = totals[i] > totals[best] + 1e-12
                || ((totals[i] - totals[best]).abs() <= 1e-12
                    && candidates[i].id < candidates[best].id);
            if better {
                best = i;
            }
        }
        Some(candidates[best].id)
    }
}

/// Step 2 for one weigher: min-max normalizes its `raw` scores over the
/// candidates and adds them, times `weight`, to the running totals.
fn add_normalized(totals: &mut [f64], weight: f64, raw: impl Iterator<Item = f64>) {
    let raw: Vec<f64> = raw.collect();
    let lo = raw.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    for (t, r) in totals.iter_mut().zip(raw.iter()) {
        let norm = if span <= 1e-12 { 0.0 } else { (r - lo) / span };
        *t += weight * norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testkit::{host, vm};
    use crate::types::ClusterState;

    /// `select` over a snapshot's hosts.
    fn select(sched: FilterScheduler, state: &ClusterState, vm: &VmState) -> Option<HostId> {
        sched.select(state.hosts.iter().map(HostSummary::from), vm)
    }

    fn passes(host: &HostState, vm: &VmState) -> bool {
        FilterScheduler::passes(&HostSummary::from(host), vm)
    }

    #[test]
    fn ram_filter_blocks_full_hosts() {
        let h = host(0, 0, vec![vm(1, 0.0, 0.0), vm(2, 0.0, 0.0)]); // 12 GiB used
        assert!(!passes(&h, &vm(3, 0.0, 0.0)), "6 GiB won't fit in 4 GiB");
        let empty = host(1, 0, vec![]);
        assert!(passes(&empty, &vm(3, 0.0, 0.0)));
    }

    #[test]
    fn core_filter_bounds_overcommit() {
        // RAM out of the way: only the 8 physical cores bind.
        let with_ram = |vms| {
            let mut h = host(0, 0, vms);
            h.ram_capacity = 1 << 20;
            h
        };
        let three = with_ram((1..=3).map(|i| vm(i, 0.0, 0.0)).collect());
        assert!(passes(&three, &vm(9, 0.0, 0.0))); // 8 ≤ 8
        let four = with_ram((1..=4).map(|i| vm(i, 0.0, 0.0)).collect());
        assert!(!passes(&four, &vm(9, 0.0, 0.0))); // 10 > 8
    }

    #[test]
    fn instance_filter_uses_cap() {
        let mut h = host(0, 2, vec![vm(1, 0.0, 0.0), vm(2, 0.0, 0.0)]);
        h.ram_capacity = 1 << 20;
        assert!(!passes(&h, &vm(3, 0.0, 0.0)));
        h.max_vms = 0;
        assert!(passes(&h, &vm(3, 0.0, 0.0)), "0 = unlimited");
    }

    #[test]
    fn summary_matches_the_host_state() {
        let h = host(3, 2, vec![vm(1, 0.0, -0.4), vm(2, 0.0, 0.1)]);
        let s = HostSummary::from(&h);
        assert_eq!(
            (s.id, s.ram_free, s.vm_count, s.max_vms),
            (h.id, h.ram_free(), 2, 2)
        );
        assert_eq!(s.vcpus_used, 4.0);
        assert_eq!(s.ip_score.to_bits(), h.ip_score().to_bits());
        assert_eq!(HostSummary::from(&host(4, 0, vec![])).ip_score, 0.0);
    }

    #[test]
    fn nova_default_packs_by_ram() {
        let state = ClusterState::new(vec![
            host(0, 0, vec![]),
            host(1, 0, vec![vm(1, 0.0, 0.0)]), // less free RAM → packs here
        ]);
        assert_eq!(
            select(FilterScheduler::Nova, &state, &vm(9, 0.0, 0.0)),
            Some(HostId(1))
        );
    }

    #[test]
    fn drowsy_weigher_prefers_matching_ip() {
        let sched = FilterScheduler::Drowsy;
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 0.0, -0.4)]), // active-pattern host
            host(1, 0, vec![vm(2, 0.0, 0.4)]),  // idle-pattern host
        ]);
        // An idle-pattern VM goes to the idle-pattern host even though
        // both tie on RAM.
        assert_eq!(select(sched, &state, &vm(9, 0.0, 0.38)), Some(HostId(1)));
        // An active-pattern VM goes the other way.
        assert_eq!(select(sched, &state, &vm(9, 0.0, -0.38)), Some(HostId(0)));
    }

    #[test]
    fn select_none_when_filtered_out() {
        let state = ClusterState::new(vec![host(0, 1, vec![vm(1, 0.0, 0.0)])]);
        assert_eq!(
            select(FilterScheduler::Nova, &state, &vm(9, 0.0, 0.0)),
            None
        );
    }

    #[test]
    fn constant_weighers_tie_break_by_id() {
        let state = ClusterState::new(vec![host(2, 0, vec![]), host(0, 0, vec![])]);
        // Same free RAM everywhere → normalized scores all zero → lowest id.
        assert_eq!(
            select(FilterScheduler::Nova, &state, &vm(9, 0.0, 0.0)),
            Some(HostId(0))
        );
    }

    #[test]
    fn filter_lists_survivors() {
        let state = ClusterState::new(vec![host(0, 1, vec![vm(1, 0.0, 0.0)]), host(1, 1, vec![])]);
        let hosts = state.hosts.iter().map(HostSummary::from);
        let survivors = FilterScheduler::filter(hosts, &vm(9, 0.0, 0.0));
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].id, HostId(1));
    }
}
