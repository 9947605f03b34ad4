//! The cluster view consumed by placement algorithms.
//!
//! Placement is kept *pure*: planners read a [`ClusterState`] snapshot and
//! emit a [`ConsolidationPlan`] of migrations; the datacenter model (in
//! `dds-core`) applies the plan, paying migration costs and updating the
//! live state. Purity makes the planners property-testable: capacity
//! safety and VM conservation are checked over arbitrary states.

use dds_sim_core::{HostId, VmId};

/// A VM as placement sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct VmState {
    /// Identity.
    pub id: VmId,
    /// Virtual CPUs (cores requested).
    pub vcpus: f64,
    /// RAM footprint in MiB (the space-shared resource — "memory is often
    /// the limiting resource in the consolidation process").
    pub ram_mb: u64,
    /// Current CPU demand in cores (utilization × vcpus over the last
    /// control period).
    pub cpu_demand: f64,
    /// Raw idleness score `wᵀ·SI ∈ [-1, 1]` for the upcoming interval
    /// (from the VM's idleness model). 0 for algorithms that ignore it.
    pub ip_score: f64,
}

/// A host and its resident VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct HostState {
    /// Identity.
    pub id: HostId,
    /// CPU capacity in cores.
    pub cpu_capacity: f64,
    /// RAM capacity in MiB.
    pub ram_capacity: u64,
    /// Maximum number of VMs the host may hold (0 = unlimited); the
    /// paper's testbed caps at 2 VMs per machine.
    pub max_vms: usize,
    /// Resident VMs.
    pub vms: Vec<VmState>,
}

impl HostState {
    /// Creates an empty host.
    pub fn new(id: HostId, cpu_capacity: f64, ram_capacity: u64) -> Self {
        HostState {
            id,
            cpu_capacity,
            ram_capacity,
            max_vms: 0,
            vms: Vec::new(),
        }
    }

    /// RAM used by resident VMs.
    pub fn ram_used(&self) -> u64 {
        self.vms.iter().map(|v| v.ram_mb).sum()
    }

    /// Free RAM.
    pub fn ram_free(&self) -> u64 {
        self.ram_capacity.saturating_sub(self.ram_used())
    }

    /// Aggregate CPU demand of resident VMs, in cores.
    pub fn cpu_demand(&self) -> f64 {
        self.vms.iter().map(|v| v.cpu_demand).sum()
    }

    /// CPU utilization in `[0, ∞)` (can exceed 1 when overloaded).
    pub fn utilization(&self) -> f64 {
        if self.cpu_capacity <= 0.0 {
            return 0.0;
        }
        self.cpu_demand() / self.cpu_capacity
    }

    /// True when `vm` fits in the residual capacity (RAM is a hard
    /// constraint; VM-count cap honoured when nonzero).
    pub fn fits(&self, vm: &VmState) -> bool {
        if self.max_vms != 0 && self.vms.len() >= self.max_vms {
            return false;
        }
        self.ram_free() >= vm.ram_mb
    }

    /// The host's idleness score: the mean of its VMs' scores ("we also
    /// define a server's IP as the average of its VMs' IPs"). An empty
    /// host is *undetermined*: score 0.
    pub fn ip_score(&self) -> f64 {
        if self.vms.is_empty() {
            return 0.0;
        }
        self.vms.iter().map(|v| v.ip_score).sum::<f64>() / self.vms.len() as f64
    }

    /// The spread of VM idleness scores on this host (`max − min`), the
    /// quantity the 7σ opportunistic rule bounds. 0 for ≤ 1 VM.
    pub fn ip_range(&self) -> f64 {
        if self.vms.len() < 2 {
            return 0.0;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in &self.vms {
            lo = lo.min(v.ip_score);
            hi = hi.max(v.ip_score);
        }
        hi - lo
    }

    /// True when the host hosts no VMs.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Index of a VM in `vms`, if resident.
    fn position_of(&self, vm: VmId) -> Option<usize> {
        self.vms.iter().position(|v| v.id == vm)
    }
}

/// One planned VM move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The VM to move.
    pub vm: VmId,
    /// Source host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
}

/// An exchange of two VMs between two hosts.
///
/// When every host is at capacity (the testbed runs 8 VMs on 4 hosts of 2
/// slots each), no single migration can proceed, yet the paper's Fig. 2
/// shows VMs regrouping. Operationally this is a pair of live migrations
/// through transient headroom; the planner models it as one atomic swap
/// and the datacenter model charges two migrations for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swap {
    /// VM resident on `host_a`.
    pub vm_a: VmId,
    /// Host of `vm_a`.
    pub host_a: HostId,
    /// VM resident on `host_b`.
    pub vm_b: VmId,
    /// Host of `vm_b`.
    pub host_b: HostId,
}

/// Output of a consolidation planner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConsolidationPlan {
    /// Migrations to execute, in order.
    pub migrations: Vec<Migration>,
    /// Pairwise exchanges to execute (after `migrations`).
    pub swaps: Vec<Swap>,
    /// Hosts left empty by the plan, which classic consolidation powers
    /// off (S5) — distinct from Drowsy-DC's S3 suspension of *non-empty*
    /// hosts, which is decided by the suspending module at runtime.
    pub hosts_to_power_off: Vec<HostId>,
}

impl ConsolidationPlan {
    /// True when the plan changes nothing.
    pub fn is_empty(&self) -> bool {
        self.migrations.is_empty() && self.swaps.is_empty() && self.hosts_to_power_off.is_empty()
    }
}

/// A snapshot of the cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterState {
    /// All hosts in the resource pool.
    pub hosts: Vec<HostState>,
    /// VMs that migrated recently and must not be moved again this round
    /// (migration cooldown). Only *opportunistic* moves honour this —
    /// overload relief and drains are QoS-driven and always allowed.
    pub frozen: std::collections::HashSet<VmId>,
}

impl ClusterState {
    /// Creates a state from hosts.
    pub fn new(hosts: Vec<HostState>) -> Self {
        ClusterState {
            hosts,
            frozen: Default::default(),
        }
    }

    /// Marks a VM as unmovable for this planning round.
    pub fn freeze(&mut self, vm: VmId) {
        self.frozen.insert(vm);
    }

    /// Total number of VMs.
    pub fn vm_count(&self) -> usize {
        self.hosts.iter().map(|h| h.vms.len()).sum()
    }

    /// Position of host `id` in `hosts`: O(1) when ids are dense
    /// (`hosts[id.index()]` holds `id`, the datacenter's snapshots), a
    /// scan otherwise (e.g. Oasis's packing view, which drops a host).
    pub(crate) fn slot_of(&self, id: HostId) -> Option<usize> {
        match self.hosts.get(id.index()) {
            Some(h) if h.id == id => Some(id.index()),
            _ => self.hosts.iter().position(|h| h.id == id),
        }
    }

    /// Looks up a host.
    pub fn host(&self, id: HostId) -> Option<&HostState> {
        self.slot_of(id).map(|i| &self.hosts[i])
    }

    /// Finds the host currently holding `vm`.
    pub fn host_of(&self, vm: VmId) -> Option<HostId> {
        self.hosts
            .iter()
            .find(|h| h.position_of(vm).is_some())
            .map(|h| h.id)
    }

    /// Applies one migration, enforcing residency and capacity.
    ///
    /// Returns `Err` (state unchanged) when the VM is not on `from`, the
    /// destination is missing, or the destination cannot fit the VM.
    pub fn apply(&mut self, m: Migration) -> Result<(), PlanError> {
        if m.from == m.to {
            return Err(PlanError::SelfMigration(m));
        }
        let from_idx = self.slot_of(m.from).ok_or(PlanError::UnknownHost(m.from))?;
        let to_idx = self.slot_of(m.to).ok_or(PlanError::UnknownHost(m.to))?;
        self.apply_at(from_idx, to_idx, m).map(|_| ())
    }

    /// [`apply`](Self::apply) between resolved host slots. Returns the
    /// index the VM held in the source's `vms` (the planners' undo log
    /// re-inserts it there).
    pub(crate) fn apply_at(
        &mut self,
        from_idx: usize,
        to_idx: usize,
        m: Migration,
    ) -> Result<usize, PlanError> {
        if from_idx == to_idx {
            return Err(PlanError::SelfMigration(m));
        }
        let vm_idx = self.hosts[from_idx]
            .position_of(m.vm)
            .ok_or(PlanError::VmNotOnSource(m))?;
        if !self.hosts[to_idx].fits(&self.hosts[from_idx].vms[vm_idx]) {
            return Err(PlanError::DoesNotFit(m));
        }
        let vm = self.hosts[from_idx].vms.remove(vm_idx);
        self.hosts[to_idx].vms.push(vm);
        Ok(vm_idx)
    }

    /// Exchanges two VMs between their hosts atomically, enforcing
    /// residency and post-swap capacity.
    pub fn apply_swap(&mut self, s: Swap) -> Result<(), PlanError> {
        if s.host_a == s.host_b {
            return Err(PlanError::SelfMigration(Migration {
                vm: s.vm_a,
                from: s.host_a,
                to: s.host_b,
            }));
        }
        let a_idx = self
            .slot_of(s.host_a)
            .ok_or(PlanError::UnknownHost(s.host_a))?;
        let b_idx = self
            .slot_of(s.host_b)
            .ok_or(PlanError::UnknownHost(s.host_b))?;
        self.apply_swap_at(a_idx, b_idx, s)
    }

    /// [`apply_swap`](Self::apply_swap) between resolved, distinct host
    /// slots.
    pub(crate) fn apply_swap_at(
        &mut self,
        a_idx: usize,
        b_idx: usize,
        s: Swap,
    ) -> Result<(), PlanError> {
        let va_pos = self.hosts[a_idx]
            .position_of(s.vm_a)
            .ok_or(PlanError::VmNotOnSource(Migration {
                vm: s.vm_a,
                from: s.host_a,
                to: s.host_b,
            }))?;
        let vb_pos = self.hosts[b_idx]
            .position_of(s.vm_b)
            .ok_or(PlanError::VmNotOnSource(Migration {
                vm: s.vm_b,
                from: s.host_b,
                to: s.host_a,
            }))?;
        // Capacity check with the departing VM already removed.
        let ram_a_after = self.hosts[a_idx].ram_used() - self.hosts[a_idx].vms[va_pos].ram_mb
            + self.hosts[b_idx].vms[vb_pos].ram_mb;
        let ram_b_after = self.hosts[b_idx].ram_used() - self.hosts[b_idx].vms[vb_pos].ram_mb
            + self.hosts[a_idx].vms[va_pos].ram_mb;
        if ram_a_after > self.hosts[a_idx].ram_capacity {
            return Err(PlanError::DoesNotFit(Migration {
                vm: s.vm_b,
                from: s.host_b,
                to: s.host_a,
            }));
        }
        if ram_b_after > self.hosts[b_idx].ram_capacity {
            return Err(PlanError::DoesNotFit(Migration {
                vm: s.vm_a,
                from: s.host_a,
                to: s.host_b,
            }));
        }
        let va = self.hosts[a_idx].vms.remove(va_pos);
        let vb = self.hosts[b_idx].vms.remove(vb_pos);
        self.hosts[a_idx].vms.push(vb);
        self.hosts[b_idx].vms.push(va);
        Ok(())
    }

    /// Applies a whole plan; stops at the first error.
    pub fn apply_plan(&mut self, plan: &ConsolidationPlan) -> Result<(), PlanError> {
        for &m in &plan.migrations {
            self.apply(m)?;
        }
        for &s in &plan.swaps {
            self.apply_swap(s)?;
        }
        Ok(())
    }

    /// Verifies structural invariants (each VM exactly once, RAM within
    /// capacity); used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for h in &self.hosts {
            if h.ram_used() > h.ram_capacity {
                return Err(format!("host {} over RAM capacity", h.id));
            }
            if h.max_vms != 0 && h.vms.len() > h.max_vms {
                return Err(format!("host {} over VM cap", h.id));
            }
            for v in &h.vms {
                if !seen.insert(v.id) {
                    return Err(format!("vm {} appears twice", v.id));
                }
            }
        }
        Ok(())
    }
}

/// Errors applying a plan to a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Migration with identical source and destination.
    SelfMigration(Migration),
    /// Referenced host does not exist.
    UnknownHost(HostId),
    /// The VM is not resident on the claimed source.
    VmNotOnSource(Migration),
    /// Destination lacks capacity.
    DoesNotFit(Migration),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::SelfMigration(m) => write!(f, "self-migration of {}", m.vm),
            PlanError::UnknownHost(h) => write!(f, "unknown host {h}"),
            PlanError::VmNotOnSource(m) => {
                write!(f, "{} is not on host {}", m.vm, m.from)
            }
            PlanError::DoesNotFit(m) => {
                write!(f, "{} does not fit on host {}", m.vm, m.to)
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Convenience constructors for tests across this crate.
#[doc(hidden)]
pub mod testkit {
    use super::*;

    /// A VM with the given id, 2 vCPUs / 6 GiB (the testbed flavour),
    /// demand and idleness score.
    pub fn vm(id: u32, cpu_demand: f64, ip_score: f64) -> VmState {
        VmState {
            id: VmId(id),
            vcpus: 2.0,
            ram_mb: 6_144,
            cpu_demand,
            ip_score,
        }
    }

    /// A host with the given id and VMs, 8 cores / 16 GiB, capped at
    /// `max_vms` (0 = unlimited).
    pub fn host(id: u32, max_vms: usize, vms: Vec<VmState>) -> HostState {
        HostState {
            id: HostId(id),
            cpu_capacity: 8.0,
            ram_capacity: 16_384,
            max_vms,
            vms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{host, vm};
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn host_accounting() {
        let h = host(0, 0, vec![vm(1, 0.5, 0.1), vm(2, 1.5, 0.3)]);
        assert_eq!(h.ram_used(), 12_288);
        assert_eq!(h.ram_free(), 4_096);
        assert!((h.cpu_demand() - 2.0).abs() < 1e-12);
        assert!((h.utilization() - 0.25).abs() < 1e-12);
        assert!((h.ip_score() - 0.2).abs() < 1e-12);
        assert!((h.ip_range() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_host_is_undetermined() {
        let h = host(0, 0, vec![]);
        assert_eq!(h.ip_score(), 0.0);
        assert_eq!(h.ip_range(), 0.0);
        assert!(h.is_empty());
        assert_eq!(h.utilization(), 0.0);
    }

    #[test]
    fn fits_respects_ram_and_vm_cap() {
        let h = host(0, 2, vec![vm(1, 0.0, 0.0)]);
        assert!(h.fits(&vm(2, 0.0, 0.0)));
        let full = host(0, 2, vec![vm(1, 0.0, 0.0), vm(2, 0.0, 0.0)]);
        assert!(!full.fits(&vm(3, 0.0, 0.0)), "VM cap");
        let mut fat = vm(3, 0.0, 0.0);
        fat.ram_mb = 20_000;
        assert!(!host(0, 0, vec![]).fits(&fat), "RAM");
    }

    #[test]
    fn apply_moves_vm() {
        let mut s = ClusterState::new(vec![host(0, 0, vec![vm(1, 0.5, 0.0)]), host(1, 0, vec![])]);
        let m = Migration {
            vm: VmId(1),
            from: HostId(0),
            to: HostId(1),
        };
        s.apply(m).unwrap();
        assert_eq!(s.host_of(VmId(1)), Some(HostId(1)));
        assert!(s.host(HostId(0)).unwrap().is_empty());
        s.check_invariants().unwrap();
    }

    #[test]
    fn apply_rejects_bad_migrations() {
        let mut s = ClusterState::new(vec![
            host(0, 1, vec![vm(1, 0.0, 0.0)]),
            host(1, 1, vec![vm(2, 0.0, 0.0)]),
        ]);
        let err = s
            .apply(Migration {
                vm: VmId(1),
                from: HostId(0),
                to: HostId(0),
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::SelfMigration(_)));
        let err = s
            .apply(Migration {
                vm: VmId(9),
                from: HostId(0),
                to: HostId(1),
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::VmNotOnSource(_)));
        let err = s
            .apply(Migration {
                vm: VmId(1),
                from: HostId(0),
                to: HostId(7),
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::UnknownHost(_)));
        // Host 1 is at its VM cap.
        let err = s
            .apply(Migration {
                vm: VmId(1),
                from: HostId(0),
                to: HostId(1),
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::DoesNotFit(_)));
        assert!(format!("{err}").contains("does not fit"));
        s.check_invariants().unwrap();
    }

    #[test]
    fn assignments_enumerate_all() {
        let s = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 0.0, 0.0), vm(2, 0.0, 0.0)]),
            host(1, 0, vec![vm(3, 0.0, 0.0)]),
        ]);
        for (v, h) in [(1, 0), (2, 0), (3, 1)] {
            assert_eq!(s.host_of(VmId(v)), Some(HostId(h)));
        }
        assert_eq!(s.host_of(VmId(4)), None);
        assert_eq!(s.vm_count(), 3);
    }

    #[test]
    fn invariant_checker_catches_duplicates() {
        let s = ClusterState::new(vec![
            host(0, 0, vec![vm(1, 0.0, 0.0)]),
            host(1, 0, vec![vm(1, 0.0, 0.0)]),
        ]);
        assert!(s.check_invariants().is_err());
    }

    proptest! {
        /// Applying any sequence of random migrations never violates
        /// invariants: bad migrations are rejected, good ones conserve VMs.
        #[test]
        fn random_migrations_preserve_invariants(
            moves in proptest::collection::vec((0u32..6, 0u32..4, 0u32..4), 0..60)
        ) {
            let mut s = ClusterState::new(vec![
                host(0, 2, vec![vm(0, 0.2, 0.0), vm(1, 0.1, 0.2)]),
                host(1, 2, vec![vm(2, 0.4, -0.1)]),
                host(2, 2, vec![vm(3, 0.0, 0.5), vm(4, 0.9, 0.0)]),
                host(3, 2, vec![vm(5, 0.3, 0.1)]),
            ]);
            let n0 = s.vm_count();
            for (v, from, to) in moves {
                let _ = s.apply(Migration {
                    vm: VmId(v),
                    from: HostId(from),
                    to: HostId(to),
                });
            }
            prop_assert_eq!(s.vm_count(), n0);
            prop_assert!(s.check_invariants().is_ok());
        }
    }
}
