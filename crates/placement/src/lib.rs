//! # dds-placement — VM placement and consolidation algorithms
//!
//! Implements the placement layer of the reproduction: the substrate
//! schedulers Drowsy-DC plugs into, Drowsy-DC's own idleness-aware
//! algorithm (§III-D), and the baselines the paper compares against.
//!
//! * [`types`] — the cluster view placement operates on ([`ClusterState`],
//!   [`HostState`], [`VmState`]) and the [`Migration`] plan unit.
//! * [`filters`] — the Nova-style admission scheduler for initial VM
//!   placement in its two configurations: Nova's, and Drowsy-DC's with
//!   the IP-proximity weigher.
//! * [`neat`] — the OpenStack Neat dynamic-consolidation baseline
//!   decomposed as published, in its classic configuration: static
//!   overload and underload thresholds, minimum-migration-time VM
//!   selection and power-aware best-fit-decreasing placement.
//! * [`drowsy`] — Drowsy-DC's modifications: IP-distance VM selection,
//!   closest-IP destination choice, and the opportunistic consolidation
//!   pass that breaks up hosts whose VM IP range exceeds 7σ.
//! * [`oasis`] — an approximation of the Oasis hybrid-consolidation
//!   baseline (idle VMs parked on a consolidation host via partial
//!   migration; origin hosts sleep and wake on VM activity).
//! * [`multiplex`] — the pairwise-correlation joint-provisioning baseline
//!   (Meng et al.), whose O(n²) matching underpins the paper's §VII
//!   scalability comparison with Drowsy-DC's O(n) scoring.
//! * [`history`] — per-VM utilization histories consumed by the
//!   multiplexing baseline.
//! * [`policy`] — the pluggable [`ControlPolicy`] layer the datacenter
//!   controller dispatches through, with ready-made impls of the paper's
//!   four algorithms.
//! * [`capacity`] — the incremental free-capacity index
//!   ([`CapacityIndex`]): hosts bucketed by free vCPUs, updated on
//!   admit/evict/park/unpark, so fleet-scale placement stops re-scanning
//!   every host per decision (bit-identical to a linear scan).
//! * [`sleepscale`] — a SleepScale-inspired joint speed-scaling +
//!   sleep-state policy proving the seam admits genuinely new algorithms;
//!   home of the DVFS ladder and the S3/S5 gate.
//! * [`sla_aware`] — Drowsy-DC planning plus a QoS-driven suspend veto:
//!   the first consumer of the streaming [`QosWindow`] feedback seam
//!   ([`ControlPolicy::observe_qos`] / [`ControlPolicy::allow_suspend`]);
//!   home of the wake-violation hold.
//! * [`adaptive`] — the tournament's meta-policy: classifies each host
//!   from its residents' learned idleness models and hands its clock,
//!   sleep depth and suspend veto to the SleepScale or SLA-aware policy
//!   it owns, by class.
//!
//! [`QosWindow`]: dds_sim_core::qos::QosWindow

#![warn(missing_docs)]

pub mod adaptive;
pub mod capacity;
pub mod drowsy;
pub mod filters;
pub mod history;
pub mod multiplex;
pub mod neat;
pub mod oasis;
#[cfg(test)]
mod oracle;
pub mod policy;
mod scratch;
pub mod sla_aware;
pub mod sleepscale;
pub mod types;

pub use adaptive::AdaptivePolicy;
pub use capacity::CapacityIndex;
pub use drowsy::{DrowsyConfig, DrowsyPlanner};
pub use filters::{FilterScheduler, HostSummary};
pub use history::{HistoryBook, HostHistories};
pub use multiplex::MultiplexPlanner;
pub use neat::{NeatConfig, NeatPlanner};
pub use oasis::OasisPlanner;
pub use policy::{
    ControlPlan, ControlPolicy, DrowsyPolicy, NeatPolicy, OasisPolicy, PlanningView, SleepDepth,
};
pub use sla_aware::SlaAwarePolicy;
pub use sleepscale::{SleepScaleConfig, SleepScalePolicy};
pub use types::{ClusterState, ConsolidationPlan, HostState, Migration, VmState};
