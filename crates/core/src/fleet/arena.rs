//! Struct-of-arrays arenas for fleet-scale host and VM state.
//!
//! The faithful datacenter model keeps each host as a nested struct; at
//! 100k hosts the control loop then chases pointers across the heap every
//! epoch. Here the same state lives as dense parallel columns: advancing
//! an epoch streams over a handful of contiguous arrays, shards split
//! those arrays into disjoint `&mut` ranges for the worker pool, and a
//! fleet digest is a single ordered pass.
//!
//! VM slots are **generational**: releasing a slot bumps its generation,
//! so a stale [`VmRef`] held across churn can never silently alias the
//! slot's next tenant — lookups through a stale ref report dead.

/// Sentinel slot value for "none" in intrusive lists and host links.
pub const NO_SLOT: u32 = u32::MAX;

/// Sentinel waking date for "no scheduled wake".
pub const NO_WAKE: u64 = u64::MAX;

/// Host power state, one byte per host in the [`HostColumns::power`]
/// column. Only the states the fleet engine distinguishes: S0 and the
/// paper's S3 drowsy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PowerState {
    /// S0 — powered, executing residents.
    Active = 0,
    /// S3 — suspended to RAM, waiting on a waking date or traffic.
    Drowsy = 1,
}

/// A generational reference to a VM slot: valid while the slot's
/// generation matches, dead after the VM departs and the slot recycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmRef {
    /// Dense slot in the [`VmArena`] columns.
    pub slot: u32,
    /// Generation at allocation time.
    pub generation: u32,
}

/// Host state as parallel columns, indexed by dense host slot.
#[derive(Debug, Clone)]
pub struct HostColumns {
    /// Whole schedulable vCPUs.
    pub vcpu_capacity: Vec<u32>,
    /// vCPUs reserved by resident VMs (admission bookkeeping).
    pub vcpu_used: Vec<u32>,
    /// Power state column.
    pub power: Vec<PowerState>,
    /// Scheduled wake as a global hour index ([`NO_WAKE`] = none): the
    /// earliest hour a resident's timer fires, set when the host
    /// suspends — the fleet-scale mirror of the paper's waking date.
    pub waking_date: Vec<u64>,
    /// vCPUs actively demanded last epoch (the utilization column).
    pub demand: Vec<u32>,
    /// Head of the intrusive resident list ([`NO_SLOT`] = empty).
    pub resident_head: Vec<u32>,
    /// Resident count (kept alongside the list for O(1) occupancy).
    pub resident_count: Vec<u32>,
    /// Hours spent in S0.
    pub active_hours: Vec<u64>,
    /// Hours spent in S3.
    pub drowsy_hours: Vec<u64>,
    /// Resume count.
    pub wakes: Vec<u64>,
    /// Accumulated energy in watt-hours. Each host accumulates its own
    /// column entry in hour order, so fleet totals (an ordered reduce at
    /// the end) are bit-identical for any shard count.
    pub energy_wh: Vec<f64>,
}

impl HostColumns {
    /// A fleet of `hosts` identical hosts, powered and empty.
    pub fn new(hosts: usize, vcpus_per_host: u32) -> Self {
        HostColumns {
            vcpu_capacity: vec![vcpus_per_host; hosts],
            vcpu_used: vec![0; hosts],
            power: vec![PowerState::Active; hosts],
            waking_date: vec![NO_WAKE; hosts],
            demand: vec![0; hosts],
            resident_head: vec![NO_SLOT; hosts],
            resident_count: vec![0; hosts],
            active_hours: vec![0; hosts],
            drowsy_hours: vec![0; hosts],
            wakes: vec![0; hosts],
            energy_wh: vec![0.0; hosts],
        }
    }

    /// Number of host slots.
    pub fn len(&self) -> usize {
        self.vcpu_capacity.len()
    }

    /// True when the fleet has no hosts.
    pub fn is_empty(&self) -> bool {
        self.vcpu_capacity.is_empty()
    }

    /// Free vCPUs of a host slot.
    pub fn free_vcpus(&self, slot: u32) -> u32 {
        self.vcpu_capacity[slot as usize] - self.vcpu_used[slot as usize]
    }
}

/// VM state as parallel columns with generational slots and an intrusive
/// doubly-linked per-host resident list (`prev`/`next`), so admit and
/// evict are O(1) without any per-host `Vec` allocations.
#[derive(Debug, Clone, Default)]
pub struct VmArena {
    /// Slot generations; bumped on release.
    pub generation: Vec<u32>,
    /// Hosting slot ([`NO_SLOT`] while free).
    pub host: Vec<u32>,
    /// vCPUs requested.
    pub vcpus: Vec<u32>,
    /// Workload class (procedural activity; see [`crate::fleet::workload`]).
    pub class: Vec<super::workload::WorkloadClass>,
    /// Per-VM phase shifting the class's activity pattern.
    pub phase: Vec<u32>,
    /// Previous VM on the same host ([`NO_SLOT`] at the head).
    pub prev: Vec<u32>,
    /// Next VM on the same host ([`NO_SLOT`] at the tail).
    pub next: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl VmArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live VM count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (live + recyclable).
    pub fn capacity(&self) -> usize {
        self.generation.len()
    }

    /// True when `r` still points at the VM it was issued for.
    pub fn is_live(&self, r: VmRef) -> bool {
        (r.slot as usize) < self.generation.len()
            && self.generation[r.slot as usize] == r.generation
            && self.host[r.slot as usize] != NO_SLOT
    }

    /// Allocates a slot (recycling released ones) for an unplaced VM.
    pub fn alloc(
        &mut self,
        class: super::workload::WorkloadClass,
        phase: u32,
        vcpus: u32,
    ) -> VmRef {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.host[i] = NO_SLOT;
            self.vcpus[i] = vcpus;
            self.class[i] = class;
            self.phase[i] = phase;
            self.prev[i] = NO_SLOT;
            self.next[i] = NO_SLOT;
            VmRef {
                slot,
                generation: self.generation[i],
            }
        } else {
            let slot = self.generation.len() as u32;
            self.generation.push(0);
            self.host.push(NO_SLOT);
            self.vcpus.push(vcpus);
            self.class.push(class);
            self.phase.push(phase);
            self.prev.push(NO_SLOT);
            self.next.push(NO_SLOT);
            VmRef {
                slot,
                generation: 0,
            }
        }
    }

    /// Releases a slot; the generation bump kills outstanding refs.
    /// Returns `false` (and changes nothing) for a stale ref. The caller
    /// must have unlinked the VM from its host first.
    pub fn release(&mut self, r: VmRef) -> bool {
        let i = r.slot as usize;
        if i >= self.generation.len() || self.generation[i] != r.generation {
            return false;
        }
        debug_assert_eq!(self.host[i], NO_SLOT, "release while still linked");
        self.generation[i] = self.generation[i].wrapping_add(1);
        self.free.push(r.slot);
        self.live -= 1;
        true
    }
}

/// Links `vm` into `host`'s resident list (front insertion, O(1)) and
/// reserves its vCPUs.
pub fn link(hosts: &mut HostColumns, vms: &mut VmArena, host: u32, vm: VmRef) {
    debug_assert_eq!(
        vms.host[vm.slot as usize], NO_SLOT,
        "link of an already-placed VM"
    );
    debug_assert_eq!(
        vms.generation[vm.slot as usize], vm.generation,
        "link through a stale ref"
    );
    let v = vm.slot as usize;
    let h = host as usize;
    let old_head = hosts.resident_head[h];
    vms.prev[v] = NO_SLOT;
    vms.next[v] = old_head;
    if old_head != NO_SLOT {
        vms.prev[old_head as usize] = vm.slot;
    }
    hosts.resident_head[h] = vm.slot;
    hosts.resident_count[h] += 1;
    hosts.vcpu_used[h] += vms.vcpus[v];
    vms.host[v] = host;
}

/// Unlinks `vm` from its host (O(1)) and frees its vCPUs. Returns the
/// host slot it was on.
pub fn unlink(hosts: &mut HostColumns, vms: &mut VmArena, vm: VmRef) -> u32 {
    let v = vm.slot as usize;
    let host = vms.host[v];
    debug_assert_ne!(host, NO_SLOT, "unlink of an unplaced VM");
    let h = host as usize;
    let (p, n) = (vms.prev[v], vms.next[v]);
    if p != NO_SLOT {
        vms.next[p as usize] = n;
    } else {
        hosts.resident_head[h] = n;
    }
    if n != NO_SLOT {
        vms.prev[n as usize] = p;
    }
    vms.prev[v] = NO_SLOT;
    vms.next[v] = NO_SLOT;
    hosts.resident_count[h] -= 1;
    hosts.vcpu_used[h] -= vms.vcpus[v];
    vms.host[v] = NO_SLOT;
    host
}

#[cfg(test)]
mod tests {
    use super::super::workload::WorkloadClass;
    use super::*;

    #[test]
    fn generational_refs_go_stale_on_release() {
        let mut vms = VmArena::new();
        let a = vms.alloc(WorkloadClass::AlwaysOn, 0, 2);
        let mut hosts = HostColumns::new(1, 16);
        link(&mut hosts, &mut vms, 0, a);
        assert!(vms.is_live(a));
        unlink(&mut hosts, &mut vms, a);
        assert!(vms.release(a));
        assert!(!vms.is_live(a), "released ref is dead");
        assert!(!vms.release(a), "double release is a no-op");
        // The recycled slot gets a new generation: the old ref stays dead.
        let b = vms.alloc(WorkloadClass::Bursty, 3, 1);
        assert_eq!(b.slot, a.slot);
        assert_ne!(b.generation, a.generation);
        assert!(!vms.is_live(a));
        assert_eq!(vms.live(), 1);
        assert_eq!(vms.capacity(), 1);
    }

    #[test]
    fn intrusive_resident_list_links_and_unlinks_in_o1() {
        let mut hosts = HostColumns::new(2, 16);
        let mut vms = VmArena::new();
        let refs: Vec<VmRef> = (0..4)
            .map(|i| vms.alloc(WorkloadClass::Office, i, 2))
            .collect();
        for &r in &refs {
            link(&mut hosts, &mut vms, 0, r);
        }
        assert_eq!(hosts.resident_count[0], 4);
        assert_eq!(hosts.vcpu_used[0], 8);
        assert_eq!(hosts.free_vcpus(0), 8);
        // Walk the list: front-insertion order is reverse allocation order.
        let mut walk = Vec::new();
        let mut cur = hosts.resident_head[0];
        while cur != NO_SLOT {
            walk.push(cur);
            cur = vms.next[cur as usize];
        }
        assert_eq!(walk, vec![3, 2, 1, 0]);
        // Unlink the middle, the head and the tail.
        for &r in &[refs[2], refs[3], refs[0]] {
            assert_eq!(unlink(&mut hosts, &mut vms, r), 0);
        }
        assert_eq!(hosts.resident_count[0], 1);
        assert_eq!(hosts.resident_head[0], 1);
        assert_eq!(vms.next[1], NO_SLOT);
        assert_eq!(vms.prev[1], NO_SLOT);
        assert_eq!(hosts.vcpu_used[0], 2);
        // Re-link the freed VM onto the other host.
        link(&mut hosts, &mut vms, 1, refs[0]);
        assert_eq!(vms.host[0], 1);
        assert_eq!(hosts.resident_count[1], 1);
    }

    #[test]
    fn host_columns_start_uniform() {
        let hosts = HostColumns::new(3, 8);
        assert_eq!(hosts.len(), 3);
        assert!(!hosts.is_empty());
        assert_eq!(hosts.power, vec![PowerState::Active; 3]);
        assert_eq!(hosts.waking_date, vec![NO_WAKE; 3]);
        assert_eq!(hosts.free_vcpus(2), 8);
    }
}
