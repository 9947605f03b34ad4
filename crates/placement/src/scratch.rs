//! The planners' working copy of a cluster snapshot.
//!
//! Neat and Drowsy-DC plan by trial: every underloaded host is
//! tentatively drained, and the drain is kept only when all of its VMs
//! found a destination. A snapshot clone per candidate and a full host
//! scan per VM would cost O(candidates × (hosts + VMs)) per round;
//! [`PlanScratch`] keeps a round close to linear:
//!
//! * **One copy per round, undone in place.** A tentative drain applies
//!   its moves to the one copy and logs them; a rollback pops each VM
//!   from its destination and re-inserts it at its recorded source
//!   index, newest first, which restores every host's VM vector exactly.
//! * **Cached per-host totals.** `ram_used`, `cpu_demand` and `ip_score`
//!   are recomputed with the [`HostState`] methods, and only for the
//!   hosts a move or rollback touches — never patched incrementally, so
//!   every float is the same sum over the same VMs in the same order.
//! * **A dense exclusion mask** (one flag per slot) in place of a hash
//!   set rebuilt per candidate.
//! * **A free-RAM index** over the placeable hosts — not excluded and
//!   below their VM cap — so a destination query visits only the hosts
//!   with enough free RAM for the VM.
//!
//! Hosts are addressed by slot (position in `hosts`), not by id: Oasis's
//! packing view drops a host, so ids need not be dense. Every chooser
//! key ends in the host id, so the minimum a query finds does not depend
//! on the order the index visits hosts in.

use crate::neat::UnderloadPolicy;
use crate::types::{
    ClusterState, ConsolidationPlan, HostState, Migration, PlanError, Swap, VmState,
};
use dds_sim_core::VmId;
use std::collections::BTreeSet;

/// One move of an open trial: the VM left `from` at index `pos` and is
/// the last entry of `to`'s VM vector until a later move lands there.
#[derive(Debug, Clone, Copy)]
struct Undo {
    from: usize,
    pos: usize,
    to: usize,
}

/// A mutable copy of a [`ClusterState`] with cached per-host totals, an
/// exclusion mask and a free-RAM destination index (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct PlanScratch {
    state: ClusterState,
    ram_used: Vec<u64>,
    cpu_demand: Vec<f64>,
    ip_score: Vec<f64>,
    excluded: Vec<bool>,
    /// Each slot's current free-RAM key in `by_free_ram` (`None`: the
    /// slot is excluded or at its VM cap).
    keyed: Vec<Option<u64>>,
    /// Placeable slots ordered by `(free RAM, slot)`.
    by_free_ram: BTreeSet<(u64, u32)>,
    /// Moves of the open trial, oldest first.
    undo: Vec<Undo>,
    in_trial: bool,
}

impl PlanScratch {
    /// Takes ownership of the round's snapshot; no host is excluded.
    pub(crate) fn new(state: ClusterState) -> Self {
        let n = state.hosts.len();
        let mut scratch = PlanScratch {
            state,
            ram_used: vec![0; n],
            cpu_demand: vec![0.0; n],
            ip_score: vec![0.0; n],
            excluded: vec![false; n],
            keyed: vec![None; n],
            by_free_ram: BTreeSet::new(),
            undo: Vec::new(),
            in_trial: false,
        };
        for slot in 0..n {
            scratch.refresh(slot);
        }
        scratch
    }

    /// The current state of the copy.
    pub(crate) fn state(&self) -> &ClusterState {
        &self.state
    }

    /// Number of host slots.
    pub(crate) fn len(&self) -> usize {
        self.state.hosts.len()
    }

    /// The host in `slot`.
    pub(crate) fn host(&self, slot: usize) -> &HostState {
        &self.state.hosts[slot]
    }

    /// Cached [`HostState::ram_used`].
    pub(crate) fn ram_used(&self, slot: usize) -> u64 {
        self.ram_used[slot]
    }

    /// Cached [`HostState::cpu_demand`].
    pub(crate) fn cpu_demand(&self, slot: usize) -> f64 {
        self.cpu_demand[slot]
    }

    /// Cached [`HostState::ip_score`].
    pub(crate) fn ip_score(&self, slot: usize) -> f64 {
        self.ip_score[slot]
    }

    /// [`HostState::utilization`] from the cached demand.
    pub(crate) fn utilization(&self, slot: usize) -> f64 {
        let cap = self.state.hosts[slot].cpu_capacity;
        if cap <= 0.0 {
            return 0.0;
        }
        self.cpu_demand[slot] / cap
    }

    /// True when `slot` is masked out of destination queries.
    pub(crate) fn is_excluded(&self, slot: usize) -> bool {
        self.excluded[slot]
    }

    /// Masks `slot` out of (or back into) destination queries.
    pub(crate) fn set_excluded(&mut self, slot: usize, excluded: bool) {
        if self.excluded[slot] != excluded {
            self.excluded[slot] = excluded;
            self.reindex(slot);
        }
    }

    /// The slots a VM of `ram_mb` MiB may go to: not excluded, below
    /// their VM cap and with enough free RAM — exactly the hosts a scan
    /// would keep after the exclusion and [`HostState::fits`] tests.
    /// Visits them by ascending free RAM.
    pub(crate) fn destinations(&self, ram_mb: u64) -> impl Iterator<Item = usize> + '_ {
        self.by_free_ram
            .range((ram_mb, 0)..)
            .map(|&(_, slot)| slot as usize)
    }

    /// Opens a trial: moves from here on are logged until
    /// [`commit_trial`](Self::commit_trial) or
    /// [`rollback_trial`](Self::rollback_trial).
    pub(crate) fn begin_trial(&mut self) {
        debug_assert!(!self.in_trial && self.undo.is_empty(), "trial already open");
        self.in_trial = true;
    }

    /// Keeps the open trial's moves.
    pub(crate) fn commit_trial(&mut self) {
        self.undo.clear();
        self.in_trial = false;
    }

    /// Undoes the open trial's moves, newest first: each VM is popped
    /// from its destination and re-inserted at its recorded source index.
    pub(crate) fn rollback_trial(&mut self) {
        while let Some(u) = self.undo.pop() {
            let vm = self.state.hosts[u.to]
                .vms
                .pop()
                .expect("undo invariant: a trial's latest move is last on its destination");
            self.state.hosts[u.from].vms.insert(u.pos, vm);
            self.refresh(u.to);
            self.refresh(u.from);
        }
        self.in_trial = false;
    }

    /// Moves `vm` from slot `from` to slot `to` with
    /// [`ClusterState::apply`]'s checks (state unchanged on `Err`),
    /// logging the move when a trial is open.
    pub(crate) fn migrate(&mut self, vm: VmId, from: usize, to: usize) -> Result<(), PlanError> {
        let m = Migration {
            vm,
            from: self.state.hosts[from].id,
            to: self.state.hosts[to].id,
        };
        let pos = self.state.apply_at(from, to, m)?;
        if self.in_trial {
            self.undo.push(Undo { from, pos, to });
        }
        self.refresh(from);
        self.refresh(to);
        Ok(())
    }

    /// Applies `s` between slots `a` (holding `s.vm_a`) and `b` with
    /// [`ClusterState::apply_swap`]'s checks. Never called inside a
    /// trial.
    pub(crate) fn swap(&mut self, a: usize, b: usize, s: Swap) -> Result<(), PlanError> {
        debug_assert!(!self.in_trial, "swaps are not logged");
        self.state.apply_swap_at(a, b, s)?;
        self.refresh(a);
        self.refresh(b);
        Ok(())
    }

    /// Recomputes `slot`'s cached totals and index entry.
    fn refresh(&mut self, slot: usize) {
        let h = &self.state.hosts[slot];
        self.ram_used[slot] = h.ram_used();
        self.cpu_demand[slot] = h.cpu_demand();
        self.ip_score[slot] = h.ip_score();
        self.reindex(slot);
    }

    /// Re-keys `slot` in the free-RAM index.
    fn reindex(&mut self, slot: usize) {
        let h = &self.state.hosts[slot];
        let under_cap = h.max_vms == 0 || h.vms.len() < h.max_vms;
        let key = (!self.excluded[slot] && under_cap)
            .then(|| h.ram_capacity.saturating_sub(self.ram_used[slot]));
        if key != self.keyed[slot] {
            if let Some(free) = self.keyed[slot] {
                self.by_free_ram.remove(&(free, slot as u32));
            }
            if let Some(free) = key {
                self.by_free_ram.insert((free, slot as u32));
            }
            self.keyed[slot] = key;
        }
    }
}

/// Neat's sub-problem (1), shared by both planners: drains underloaded
/// hosts, least-utilized first. Each candidate's VMs, sorted by `order`,
/// go to the slots `choose` picks; the drain is kept only when every VM
/// found one, and rolled back otherwise. Destinations are never
/// overloaded, empty (sleeping) or drained hosts, nor the candidate.
///
/// Expects exactly the overloaded slots excluded on entry. Appends the
/// kept moves and power-offs to `plan` and returns a per-slot "drained"
/// mask; on return the overloaded, empty and drained slots are excluded.
pub(crate) fn drain_underloaded(
    scratch: &mut PlanScratch,
    underload: UnderloadPolicy,
    order: impl Fn(&mut [VmState]),
    choose: impl Fn(&PlanScratch, &VmState) -> Option<usize>,
    plan: &mut ConsolidationPlan,
) -> Vec<bool> {
    let n = scratch.len();
    let mut candidates: Vec<usize> = (0..n)
        .filter(|&s| {
            !scratch.host(s).is_empty()
                && !scratch.is_excluded(s)
                && underload.is_underloaded(scratch.utilization(s))
        })
        .collect();
    candidates.sort_by(|&a, &b| {
        let ua = scratch.utilization(a);
        let ub = scratch.utilization(b);
        ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
    });
    // Draining must target hosts that stay active anyway; moving VMs
    // onto an empty (sleeping) host merely relocates the problem and
    // causes hourly ping-pong. Only drained hosts become empty below, and
    // they stay excluded, so marking the empty hosts once suffices.
    for s in 0..n {
        if scratch.host(s).is_empty() {
            scratch.set_excluded(s, true);
        }
    }
    let mut drained = vec![false; n];
    for c in candidates {
        scratch.set_excluded(c, true);
        let from = scratch.host(c).id;
        let mut vms = scratch.host(c).vms.clone();
        order(&mut vms);
        let kept = plan.migrations.len();
        scratch.begin_trial();
        let mut ok = true;
        for vm in &vms {
            let Some(dest) = choose(scratch, vm) else {
                ok = false;
                break;
            };
            let to = scratch.host(dest).id;
            if scratch.migrate(vm.id, c, dest).is_err() {
                ok = false;
                break;
            }
            plan.migrations.push(Migration {
                vm: vm.id,
                from,
                to,
            });
        }
        if ok {
            scratch.commit_trial();
            plan.hosts_to_power_off.push(from);
            drained[c] = true;
        } else {
            scratch.rollback_trial();
            plan.migrations.truncate(kept);
            scratch.set_excluded(c, false);
        }
    }
    drained
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testkit::{host, vm};
    use dds_sim_core::HostId;

    fn state() -> ClusterState {
        let mut big = vm(3, 0.3, 0.2);
        big.ram_mb = 12_000;
        ClusterState::new(vec![
            host(0, 0, vec![vm(1, 0.1, 0.1), vm(2, 0.2, -0.1)]),
            host(1, 2, vec![big]),
            host(2, 0, vec![]),
        ])
    }

    /// The caches and the index agree with a recomputation from scratch.
    fn assert_consistent(s: &PlanScratch) {
        let fresh = PlanScratch::new(s.state().clone());
        for slot in 0..s.len() {
            assert_eq!(s.ram_used(slot), fresh.ram_used(slot));
            assert_eq!(
                s.cpu_demand(slot).to_bits(),
                fresh.cpu_demand(slot).to_bits()
            );
            assert_eq!(s.ip_score(slot).to_bits(), fresh.ip_score(slot).to_bits());
        }
        for ram in [0, 4_000, 6_144, 10_000, 16_384, 20_000] {
            let got: Vec<usize> = s.destinations(ram).collect();
            let mut want: Vec<usize> = (0..s.len())
                .filter(|&slot| {
                    let probe = VmState {
                        ram_mb: ram,
                        ..vm(99, 0.0, 0.0)
                    };
                    !s.is_excluded(slot) && s.host(slot).fits(&probe)
                })
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort();
            want.sort();
            assert_eq!(got_sorted, want, "destinations for {ram} MiB");
        }
    }

    #[test]
    fn destinations_honour_ram_cap_and_mask() {
        let mut s = PlanScratch::new(state());
        assert_consistent(&s);
        // Host 1 holds 12 000 of 16 384 MiB: no room for a 6 GiB VM.
        assert_eq!(s.destinations(6_144).collect::<Vec<_>>(), vec![2]);
        s.set_excluded(2, true);
        assert!(s.destinations(6_144).next().is_none());
        assert_consistent(&s);
    }

    #[test]
    fn rollback_restores_vectors_and_caches_exactly() {
        let before = state();
        let mut s = PlanScratch::new(before.clone());
        s.begin_trial();
        s.migrate(VmId(1), 0, 2).unwrap();
        s.migrate(VmId(2), 0, 2).unwrap();
        assert!(s.host(0).is_empty());
        assert_consistent(&s);
        s.rollback_trial();
        assert_eq!(s.state(), &before);
        assert_consistent(&s);
    }

    #[test]
    fn migrate_keeps_apply_checks() {
        let mut s = PlanScratch::new(state());
        let err = s.migrate(VmId(1), 0, 1).unwrap_err();
        assert!(matches!(err, PlanError::DoesNotFit(_)), "{err:?}");
        let err = s.migrate(VmId(9), 0, 2).unwrap_err();
        assert!(matches!(err, PlanError::VmNotOnSource(_)), "{err:?}");
        assert_eq!(s.state(), &state());
        s.migrate(VmId(3), 1, 2).unwrap();
        assert_eq!(s.state().host_of(VmId(3)), Some(HostId(2)));
        assert_consistent(&s);
    }
}
