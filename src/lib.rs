//! # Drowsy-DC — data center power management via idleness-aware
//! # consolidation and server suspension
//!
//! This crate is the façade of the Drowsy-DC reproduction (Bacou et al.,
//! IPDPS 2019). It re-exports every subsystem crate under one roof so that
//! downstream users can depend on `drowsy-dc` alone:
//!
//! * [`sim`] — deterministic discrete-event simulation substrate.
//! * [`power`] — ACPI-style power states, host power models, energy meters.
//! * [`traces`] — workload patterns and activity-trace generators.
//! * [`idleness`] — the idleness model (IM) and idleness probability (IP).
//! * [`hostos`] — simulated host OS: processes, timers, suspending module.
//! * [`net`] — addressing, the waking module (packet analyzer, waking
//!   schedule, Wake-on-LAN) and its fault-tolerant cluster.
//! * [`placement`] — Nova-style scheduler, Neat, Oasis and Drowsy-DC
//!   placement algorithms.
//! * [`system`] — the integrated datacenter model and controllers:
//!   policies named through one registry (`PolicyRegistry`), one event
//!   driver (`DcEngine`) at one of two fidelities (`EngineConfig`), and
//!   request-level QoS streamed inline with each run
//!   (`DcConfig::qos_stream`): tail percentiles and SLA accounting.
//! * [`telemetry`] — metrics registry, epoch flight recorder and span
//!   profiling hooks (logical metrics stay bit-identical across
//!   execution grids; timing metrics live in a separate artifact).
//! * [`scenarios`] — the declarative scenario catalog: fleet + workload
//!   mix + engine + policies (+ an optional `[qos]` request workload) in
//!   a text format, run through the sweep.
//!
//! ## Quickstart
//!
//! ```
//! use drowsy_dc::prelude::*;
//!
//! // A small datacenter: 4 pool hosts, 8 VMs (2 always-busy, 6 mostly-idle),
//! // managed by the policy-registry entry "drowsy-dc".
//! let spec = TestbedSpec::paper_default();
//! let outcome = run_testbed(&spec, "drowsy-dc", 42);
//! assert!(outcome.global_suspension_fraction() > 0.0);
//! println!("energy: {:.1} kWh", outcome.total_energy_kwh());
//! ```
//!
//! See `examples/quickstart.rs` for a narrated version, and the
//! `dds-bench` crate for the binaries that regenerate every table and
//! figure of the paper.

pub use dds_core as system;
pub use dds_hostos as hostos;
pub use dds_idleness as idleness;
pub use dds_net as net;
pub use dds_placement as placement;
pub use dds_power as power;
pub use dds_scenarios as scenarios;
pub use dds_sim_core as sim;
pub use dds_telemetry as telemetry;
pub use dds_traces as traces;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use dds_core::cluster::{
        run_cluster_policy, run_cluster_policy_with, ClusterOutcome, ClusterSpec,
    };
    pub use dds_core::datacenter::{
        Datacenter, DcConfig, DcEngine, DcOutcome, EngineConfig, QosStreamConfig, WakeCause,
        WakeRecord,
    };
    pub use dds_core::registry::{PolicyEntry, PolicyRegistry};
    pub use dds_core::sweep::{llmi_grid, run_sweep, run_sweep_with, SweepOutcome, SweepPoint};
    pub use dds_core::testbed::{run_testbed, TestbedOutcome, TestbedSpec};
    pub use dds_idleness::{IdlenessModel, ImConfig};
    pub use dds_placement::policy::{ControlPlan, ControlPolicy, PlanningView, SleepDepth};
    pub use dds_placement::{SleepScaleConfig, SleepScalePolicy};
    pub use dds_power::{HostPowerModel, PowerState, PowerTimeline};
    pub use dds_scenarios::{run_scenario, run_scenario_qos, Scenario, ScenarioError};
    pub use dds_sim_core::qos::QosReport;
    pub use dds_sim_core::{HostId, SimDuration, SimTime, VmId};
    pub use dds_traces::{TracePattern, VmTrace};
}
