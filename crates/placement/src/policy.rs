//! The pluggable control-policy layer.
//!
//! The datacenter model in `dds-core` drives an hourly control loop that
//! is algorithm-agnostic: activity levels, process states, energy meters
//! and the suspend/wake machinery behave identically whichever control
//! algorithm manages the fleet. Everything algorithm-*specific* — whether
//! idleness models are consulted, which admission scheduler places new
//! VMs, how the hourly relocation plan is computed, how deep an idle host
//! may sleep, how fast an active host clocks — goes through the
//! [`ControlPolicy`] trait defined here.
//!
//! The paper's four algorithms are provided as ready-made impls
//! ([`DrowsyPolicy`], [`NeatPolicy`] with and without suspension,
//! [`OasisPolicy`]); [`crate::sleepscale::SleepScalePolicy`] demonstrates
//! that the seam is real by adding a SleepScale-inspired joint
//! speed-scaling + sleep-state policy without touching the control loop.
//!
//! ## Contract highlights
//!
//! * Policies are **deterministic**: all randomness flows through the
//!   [`SimRng`] handed to [`ControlPolicy::plan`], so a `(spec, policy,
//!   seed)` triple replays bit-identically.
//! * Planning is **round-based**: [`ControlPolicy::plan_rounds`] rounds
//!   are executed per relocation period, and the controller re-snapshots
//!   the cluster between rounds. Oasis needs this (its parking pass must
//!   observe the state *after* the packing pass); single-pass policies
//!   keep the default of one round.
//! * The default method impls reproduce the "plain consolidation"
//!   behaviour (no idleness models, Nova scheduler, S3 for idle hosts,
//!   full clock speed), so a minimal policy only implements [`label`]
//!   and [`plan`].
//!
//! [`label`]: ControlPolicy::label
//! [`plan`]: ControlPolicy::plan

use crate::capacity::CapacityIndex;
use crate::filters::FilterScheduler;
use crate::history::{HistoryBook, HostHistories};
use crate::neat::{NeatConfig, NeatPlanner};
use crate::oasis::{OasisConfig, OasisPlanner};
use crate::types::{ClusterState, ConsolidationPlan, Migration};
use crate::{DrowsyConfig, DrowsyPlanner};
use dds_idleness::ImClass;
use dds_sim_core::qos::QosWindow;
use dds_sim_core::{HostId, SimRng, SimTime, VmId};
use std::sync::LazyLock;

/// How deep a fully idle host is allowed to sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepDepth {
    /// S3 suspend-to-RAM — the paper's drowsy state (~5 W, fast resume).
    Suspend,
    /// S5 soft-off (~1 W, slow resume) — chosen by policies that predict
    /// a long idle period, e.g. SleepScale's sleep-state selection.
    Off,
}

/// Read-only snapshot handed to [`ControlPolicy::plan`].
///
/// `state` reflects the cluster *at the start of the current planning
/// round* (the controller re-snapshots between rounds).
pub struct PlanningView<'a> {
    /// Cluster snapshot: hosts, resident VMs, demands and IP scores.
    pub state: &'a ClusterState,
    /// Per-VM utilization histories. Unread: no policy consults them,
    /// and [`PlanningView::new`] hands an empty book. Kept because the
    /// benchmark harness (`perfbench/src/side.rs`) builds a view
    /// literal.
    pub vm_hist: &'a HistoryBook,
    /// Per-host normalized-utilization histories. Unread, like
    /// [`vm_hist`](Self::vm_hist).
    pub host_hist: &'a HostHistories,
    /// Behaviour classes from each VM's idleness model, indexed by
    /// [`VmId::index`]. Empty when the controller computed none (the
    /// policy doesn't ask, or the engine doesn't carry models) — use
    /// [`class_of`](Self::class_of), which treats missing entries as
    /// [`ImClass::Undetermined`].
    pub classes: &'a [ImClass],
}

impl<'a> PlanningView<'a> {
    /// The view of `state` the controller hands a policy, with per-VM
    /// behaviour `classes` (may be empty) and empty histories.
    pub fn new(state: &'a ClusterState, classes: &'a [ImClass]) -> Self {
        static NO_VM_HISTORY: LazyLock<HistoryBook> = LazyLock::new(|| HistoryBook::new(2));
        static NO_HOST_HISTORY: HostHistories = HostHistories::new();
        PlanningView {
            state,
            vm_hist: &NO_VM_HISTORY,
            host_hist: &NO_HOST_HISTORY,
            classes,
        }
    }

    /// The behaviour class of `vm`, `Undetermined` when unknown.
    pub fn class_of(&self, vm: VmId) -> ImClass {
        self.classes
            .get(vm.index())
            .copied()
            .unwrap_or(ImClass::Undetermined)
    }
}

/// One planning round's orders, applied by the controller in field order:
/// `migrations`, then `swaps`, then `unpark`, then `park`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlPlan {
    /// Full live migrations and atomic swaps.
    pub consolidation: ConsolidationPlan,
    /// Partial-migration fault-backs (Oasis): the VM's working set
    /// returns to its origin host and the VM stops being `parked`.
    pub unpark: Vec<Migration>,
    /// Partial migrations parking idle VMs on a consolidation host.
    pub park: Vec<Migration>,
}

impl ControlPlan {
    /// Wraps a plain consolidation plan (no parking orders).
    pub fn from_consolidation(consolidation: ConsolidationPlan) -> Self {
        ControlPlan {
            consolidation,
            ..Default::default()
        }
    }

    /// True when the round changes nothing.
    pub fn is_empty(&self) -> bool {
        self.consolidation.is_empty() && self.unpark.is_empty() && self.park.is_empty()
    }
}

/// A control algorithm managing the datacenter.
///
/// See the [module docs](self) for the contract. All methods except
/// [`label`](Self::label) and [`plan`](Self::plan) have defaults that
/// reproduce plain Neat-style behaviour.
pub trait ControlPolicy: Send {
    /// Display label used by experiment tables (e.g. `"Drowsy-DC"`).
    fn label(&self) -> &'static str;

    /// True when hosts may leave S0 at all. Policies returning `false`
    /// (the always-on baseline) keep every host powered.
    fn suspends(&self) -> bool {
        true
    }

    /// True when the policy consumes the per-VM idleness models: the
    /// controller then feeds IP scores into the cluster snapshots and
    /// derives host idleness probabilities (which drive the suspending
    /// module's adaptive grace time) from the models instead of the
    /// neutral 0.5.
    fn uses_idleness_scores(&self) -> bool {
        false
    }

    /// True when the policy consumes per-VM behaviour classes
    /// ([`ImClass`]): the controller then classifies each VM's idleness
    /// model into [`PlanningView::classes`] before planning. Off by
    /// default so legacy policies pay nothing.
    fn uses_trace_classes(&self) -> bool {
        false
    }

    /// The Nova-style filter scheduler admitting new VMs.
    fn admission_scheduler(&self) -> FilterScheduler {
        FilterScheduler::nova_default()
    }

    /// Hosts that must never leave S0 regardless of activity (e.g. the
    /// Oasis consolidation host holding parked working sets).
    fn always_on_hosts(&self) -> Vec<HostId> {
        Vec::new()
    }

    /// Number of planning rounds per relocation period. The controller
    /// re-snapshots the cluster between rounds.
    fn plan_rounds(&self) -> usize {
        1
    }

    /// Computes the relocation plan for `round ∈ 0..plan_rounds()`.
    fn plan(&mut self, round: usize, view: &PlanningView<'_>, rng: &mut SimRng) -> ControlPlan;

    /// Index-aware variant of [`plan`](Self::plan), handed an incremental
    /// [`CapacityIndex`] over the snapshot (slot *i* =
    /// `view.state.hosts[i]`, free count = whole vCPUs not claimed by
    /// resident VMs).
    ///
    /// No policy overrides it and the datacenter controller never calls
    /// it: the default ignores the index and runs [`plan`](Self::plan).
    /// It is kept only because the benchmark harness's side replay
    /// (`perfbench/src/side.rs`) times it. An override must keep the
    /// index contract: decisions derived through the index must equal
    /// the ones a linear scan over the same snapshot would make (see
    /// [`crate::capacity`]).
    fn plan_indexed(
        &mut self,
        round: usize,
        view: &PlanningView<'_>,
        _index: &CapacityIndex,
        rng: &mut SimRng,
    ) -> ControlPlan {
        self.plan(round, view, rng)
    }

    /// Sleep state for a host whose suspend check just passed.
    ///
    /// `ip_probability` is the host's idleness probability (0.5 when the
    /// policy does not use idleness models), `waking_date` the earliest
    /// valid timer the suspending module found. The default always picks
    /// S3, matching the paper's suspending module.
    fn idle_sleep_depth(
        &self,
        _host: HostId,
        _ip_probability: f64,
        _waking_date: Option<SimTime>,
        _now: SimTime,
    ) -> SleepDepth {
        SleepDepth::Suspend
    }

    /// CPU frequency factor (fraction of nominal, in `(0, 1]`) for an
    /// active host hour with the given normalized utilization. Policies
    /// doing DVFS-style speed scaling return < 1 on lightly loaded hosts;
    /// the controller scales dynamic power by `f²`. Request service times
    /// do not stretch by `1/f` (the QoS stream serves at the nominal
    /// clock). The default runs at full clock.
    fn active_frequency(&self, _host: HostId, _utilization: f64) -> f64 {
        1.0
    }

    /// Closed-loop QoS signal: the streaming pipeline's [`QosWindow`] for
    /// the epoch that just closed, with per-host wake attribution.
    /// Delivered at the top of each control epoch *before* planning, and
    /// only on runs that stream QoS (`DcConfig::qos_stream` /
    /// `FleetConfig::qos`) — policies must behave sensibly when it never
    /// fires. The default ignores the signal, keeping every existing
    /// policy bit-identical whether or not streaming is on.
    fn observe_qos(&mut self, _window: &QosWindow) {}

    /// Per-host suspend veto, consulted when the controller is about to
    /// park an idle host: returning `false` keeps the host powered this
    /// hour (it is reconsidered every hour). SLA-aware policies use this
    /// to hold hosts that are currently absorbing wake-induced violations
    /// out of S3. The default permits every suspend.
    fn allow_suspend(&self, _host: HostId) -> bool {
        true
    }
}

/// The paper's contribution: idleness-model-driven consolidation
/// ([`DrowsyPlanner`]) with IP-aware admission and IP-adaptive grace.
#[derive(Debug, Clone)]
pub struct DrowsyPolicy {
    planner: DrowsyPlanner,
}

impl DrowsyPolicy {
    /// Creates the policy from a planner configuration.
    pub fn new(config: DrowsyConfig) -> Self {
        DrowsyPolicy {
            planner: DrowsyPlanner::new(config),
        }
    }
}

impl ControlPolicy for DrowsyPolicy {
    fn label(&self) -> &'static str {
        "Drowsy-DC"
    }

    fn uses_idleness_scores(&self) -> bool {
        true
    }

    fn admission_scheduler(&self) -> FilterScheduler {
        FilterScheduler::drowsy_default()
    }

    fn plan(&mut self, _round: usize, view: &PlanningView<'_>, _rng: &mut SimRng) -> ControlPlan {
        ControlPlan::from_consolidation(self.planner.plan(view.state))
    }
}

/// OpenStack Neat dynamic consolidation, with or without the S3
/// suspension machinery (`Neat+S3` vs the always-on baseline).
#[derive(Debug, Clone)]
pub struct NeatPolicy {
    planner: NeatPlanner,
    suspend: bool,
}

impl NeatPolicy {
    /// Neat consolidation plus host suspension (the paper's `Neat+S3`).
    pub fn suspending(config: NeatConfig) -> Self {
        NeatPolicy {
            planner: NeatPlanner::new(config),
            suspend: true,
        }
    }

    /// Plain Neat, hosts always powered (the "current real world case").
    pub fn always_on(config: NeatConfig) -> Self {
        NeatPolicy {
            planner: NeatPlanner::new(config),
            suspend: false,
        }
    }
}

impl ControlPolicy for NeatPolicy {
    fn label(&self) -> &'static str {
        if self.suspend {
            "Neat+S3"
        } else {
            "Neat"
        }
    }

    fn suspends(&self) -> bool {
        self.suspend
    }

    fn plan(&mut self, _round: usize, view: &PlanningView<'_>, _rng: &mut SimRng) -> ControlPlan {
        ControlPlan::from_consolidation(self.planner.plan(view.state))
    }
}

/// Oasis-style hybrid consolidation: classic full-migration packing (via
/// Neat) in round 0, then partial-migration parking of idle VMs onto the
/// always-on consolidation host in round 1 (which observes the cluster
/// *after* the packing moves, as the real system would).
#[derive(Debug, Clone)]
pub struct OasisPolicy {
    neat: NeatPlanner,
    oasis: OasisPlanner,
    consolidation_host: HostId,
}

impl OasisPolicy {
    /// Creates the policy. `neat` drives the packing pass, `oasis` the
    /// parking pass; the consolidation host is taken from `oasis` (first
    /// entry) and reported always-on.
    pub fn new(oasis: OasisConfig, neat: NeatConfig) -> Self {
        let consolidation_host = *oasis
            .consolidation_hosts
            .first()
            .expect("OasisPolicy invariant: at least one consolidation host configured");
        OasisPolicy {
            neat: NeatPlanner::new(neat),
            oasis: OasisPlanner::new(oasis),
            consolidation_host,
        }
    }

    /// The always-on consolidation host.
    pub fn consolidation_host(&self) -> HostId {
        self.consolidation_host
    }
}

impl ControlPolicy for OasisPolicy {
    fn label(&self) -> &'static str {
        "Oasis"
    }

    fn always_on_hosts(&self) -> Vec<HostId> {
        vec![self.consolidation_host]
    }

    fn plan_rounds(&self) -> usize {
        2
    }

    fn plan(&mut self, round: usize, view: &PlanningView<'_>, _rng: &mut SimRng) -> ControlPlan {
        if round == 0 {
            // Packing pass on a view without the consolidation host —
            // parked working sets are not packable material.
            let mut packing_state = view.state.clone();
            let ch = self.consolidation_host;
            packing_state.hosts.retain(|h| h.id != ch);
            ControlPlan::from_consolidation(self.neat.plan_owned(packing_state))
        } else {
            let plan = self.oasis.plan(view.state);
            ControlPlan {
                consolidation: ConsolidationPlan::default(),
                unpark: plan.unpark,
                park: plan.park,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testkit::{host, vm};

    #[test]
    fn defaults_reproduce_plain_consolidation_behaviour() {
        let mut p = NeatPolicy::suspending(NeatConfig::paper_default());
        assert!(p.suspends());
        assert!(!p.uses_idleness_scores());
        assert!(p.always_on_hosts().is_empty());
        assert_eq!(p.plan_rounds(), 1);
        assert_eq!(p.active_frequency(HostId(0), 0.2), 1.0);
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.9, None, SimTime::EPOCH),
            SleepDepth::Suspend
        );
        // The closed-loop hooks default to inert: every suspend allowed,
        // QoS windows ignored (legacy policies stay bit-identical on
        // streaming runs).
        assert!(p.allow_suspend(HostId(0)));
        let mut w = QosWindow::new(0, 200);
        w.record(0, 5_000, true);
        p.observe_qos(&w);
        assert!(p.allow_suspend(HostId(0)), "default ignores the signal");

        let state = ClusterState::new(vec![host(0, 0, vec![vm(0, 0.1, 0.0)]), host(1, 0, vec![])]);
        let plan = p.plan(0, &PlanningView::new(&state, &[]), &mut SimRng::new(1));
        // Underloaded single-VM cluster: Neat drains host 0 or does nothing,
        // but never parks (that is Oasis-only vocabulary).
        assert!(plan.unpark.is_empty() && plan.park.is_empty());
    }

    #[test]
    fn default_plan_indexed_falls_back_to_the_scan_plan() {
        // The index-aware entry point must be a pure accelerator: for
        // policies that do not override it, handing an index changes
        // nothing about the plan.
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(0, 7.5, 0.0), vm(1, 7.5, 0.1)]),
            host(1, 0, vec![vm(2, 0.1, 0.0)]),
            host(2, 0, vec![]),
        ]);
        let view = PlanningView::new(&state, &[]);
        let index = crate::capacity::CapacityIndex::from_cluster(&state);
        let mut a = NeatPolicy::suspending(NeatConfig::paper_default());
        let mut b = NeatPolicy::suspending(NeatConfig::paper_default());
        let plain = a.plan(0, &view, &mut SimRng::new(11));
        let indexed = b.plan_indexed(0, &view, &index, &mut SimRng::new(11));
        assert_eq!(plain, indexed);
    }

    #[test]
    fn labels_and_suspension_match_the_paper_lineup() {
        assert_eq!(
            DrowsyPolicy::new(DrowsyConfig::paper_default()).label(),
            "Drowsy-DC"
        );
        assert_eq!(
            NeatPolicy::suspending(NeatConfig::paper_default()).label(),
            "Neat+S3"
        );
        let neat = NeatPolicy::always_on(NeatConfig::paper_default());
        assert_eq!(neat.label(), "Neat");
        assert!(!neat.suspends());
        let oasis = OasisPolicy::new(
            OasisConfig::paper_default(HostId(7)),
            NeatConfig::paper_default(),
        );
        assert_eq!(oasis.label(), "Oasis");
        assert_eq!(oasis.always_on_hosts(), vec![HostId(7)]);
        assert_eq!(oasis.plan_rounds(), 2);
    }

    #[test]
    fn drowsy_policy_uses_ip_machinery() {
        let p = DrowsyPolicy::new(DrowsyConfig::paper_default());
        assert!(p.uses_idleness_scores());
        // The drowsy admission scheduler (with its IP-proximity weigher)
        // must at least resolve a placement on a trivial cluster.
        let state = ClusterState::new(vec![host(0, 0, vec![])]);
        let newcomer = vm(0, 0.1, 0.0);
        assert_eq!(
            p.admission_scheduler().select(&state, &newcomer),
            Some(HostId(0))
        );
    }

    #[test]
    fn oasis_round_zero_hides_the_consolidation_host() {
        // One overloaded host, one empty pool host, one empty consolidation
        // host: the packing pass must never target the consolidation host.
        let mut p = OasisPolicy::new(
            OasisConfig::paper_default(HostId(2)),
            NeatConfig::paper_default(),
        );
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(0, 7.9, 0.0), vm(1, 7.9, 0.0)]),
            host(1, 0, vec![]),
            host(2, 0, vec![]),
        ]);
        let view = PlanningView::new(&state, &[]);
        let plan = p.plan(0, &view, &mut SimRng::new(3));
        for m in &plan.consolidation.migrations {
            assert_ne!(m.to, HostId(2), "packing must avoid the consolidation host");
        }
    }

    #[test]
    fn control_plan_emptiness() {
        assert!(ControlPlan::default().is_empty());
        let plan = ControlPlan {
            park: vec![Migration {
                vm: dds_sim_core::VmId(0),
                from: HostId(0),
                to: HostId(1),
            }],
            ..Default::default()
        };
        assert!(!plan.is_empty());
    }
}
