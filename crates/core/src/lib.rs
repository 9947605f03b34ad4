//! # dds-core — the integrated Drowsy-DC system
//!
//! This crate wires every substrate together into the system the paper
//! evaluates: a datacenter whose hosts carry power-state machines, energy
//! meters and suspending modules, fed host idleness and waking dates from
//! the VMs' activity traces; whose network carries a fault-tolerant
//! waking-module cluster; and whose
//! control plane dispatches through the pluggable
//! [`ControlPolicy`](dds_placement::policy::ControlPolicy) layer. Policies
//! are named only through the standard [`registry`], which carries the
//! paper's four algorithms plus newer policies such as the
//! SleepScale-style joint speed-scaling + sleep-state policy:
//!
//! * `"drowsy-dc"` (Drowsy-DC) — idleness-model-driven consolidation
//!   with host suspension (the contribution);
//! * `"neat-s3"` (Neat+S3) — OpenStack Neat consolidation plus the same
//!   suspension machinery (ablating the IP-aware placement);
//! * `"neat"` (Neat) — plain Neat, hosts always on (the "current real
//!   world case");
//! * `"oasis"` (Oasis) — hybrid consolidation via partial VM parking;
//! * `"sleepscale"` (SleepScale) — SleepScale-inspired DVFS + S3/S5
//!   selection.
//!
//! A [`Datacenter`] is driven only by its event engine ([`DcEngine`]),
//! at one of the two [`EngineConfig`] fidelities; [`Datacenter::run`]
//! is the legacy-fidelity shorthand.
//!
//! Two ready-made scenarios reproduce the paper's evaluation:
//!
//! * [`testbed`] — the §VI.A six-machine OpenStack testbed (Fig. 2,
//!   Table I, the kWh totals and the SLA analysis);
//! * [`cluster`] — the §VI.B CloudSim-style sweep over the LLMI
//!   fraction, with a parallel fan-out runner in [`sweep`].
//!
//! Beyond the paper's rack scale, [`fleet`] is the hyperscale path: a
//! sharded struct-of-arrays datacenter (100k hosts, 1M VMs) with
//! incremental capacity-index placement and bit-exact determinism across
//! shard counts.

#![warn(missing_docs)]

pub mod cluster;
pub mod datacenter;
pub mod fleet;
pub mod registry;
pub mod spec;
pub mod sweep;
pub mod testbed;

pub use cluster::{run_cluster_policy, run_cluster_policy_with, ClusterOutcome, ClusterSpec};
pub use datacenter::{
    dc_spans, AdmitError, Datacenter, DcConfig, DcEngine, DcOutcome, EngineConfig, WakeCause,
    WakeRecord,
};
pub use fleet::{run_fleet, FleetConfig, FleetOutcome, FleetQosConfig, FleetSim};
pub use registry::{PolicyEntry, PolicyRegistry, RegistryError};
pub use spec::{HostSpec, VmMemberSpec, VmSpec, WorkloadKind};
pub use sweep::{llmi_grid, run_sweep, run_sweep_with, seed_replicates, SweepOutcome, SweepPoint};
pub use testbed::{run_testbed, TestbedOutcome, TestbedSpec};
