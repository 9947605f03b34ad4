//! The hyperscale fleet engine: sharded struct-of-arrays datacenter.
//!
//! The paper's evaluation stops at rack scale, and so does the faithful
//! [`Datacenter`](crate::datacenter::Datacenter) model: every host is a
//! nested struct (`Vec<HostSim>` of power machines, process tables and
//! meters) and every control decision scans the fleet linearly. That
//! layout answers the paper's questions; it cannot answer fleet-level
//! ones — 100k hosts × 1M VMs × a year of hours.
//!
//! This module is the scale path. It trades per-host fidelity for layout
//! and parallelism, while keeping the repo's non-negotiable: **bit-exact
//! determinism however many threads run**.
//!
//! * [`arena`] — dense struct-of-arrays columns for host state (power
//!   state, utilization, vCPU occupancy, waking dates) and VM state, with
//!   stable *generational* slots so references survive churn safely.
//! * [`workload`] — procedural synthetic workloads: a VM's activity at
//!   any hour is a pure function of `(class, phase, hour)`, so a million
//!   VMs cost bytes each, not hourly traces.
//! * [`engine`] — the sharded simulation loop: each epoch, host shards
//!   advance independently over the persistent
//!   [`WorkerPool`](dds_sim_core::WorkerPool) (a host's hour depends only
//!   on its own columns and residents), then a deterministic,
//!   shard-ordered merge applies fleet-level effects (capacity-index
//!   park/unpark). Quiescent hosts macro-step: each host carries a
//!   `next_change` horizon and parked/steady stretches settle in closed
//!   form, so an epoch costs O(hosts due), not O(hosts). Placement
//!   decisions run through a pair of incremental
//!   [`CapacityIndex`](dds_placement::CapacityIndex)es (awake, asleep),
//!   O(1) amortized per decision instead of an O(hosts) scan.
//!
//! The determinism discipline is the same one `run_sweep` and the QoS
//! replay layer already prove at experiment granularity, pushed down into
//! the epoch loop: shard results are merged in shard order, every
//! cross-host decision happens on the main thread, and all randomness
//! flows through one seeded stream — so 1-shard and N-shard runs produce
//! identical bits, which `BENCH_scalability.json` pins PR-over-PR.

pub mod arena;
pub mod engine;
pub mod workload;

pub use arena::{HostColumns, PowerState, VmArena, VmRef};
pub use engine::{run_fleet, FleetConfig, FleetOutcome, FleetQosConfig, FleetSim};
pub use workload::WorkloadClass;
