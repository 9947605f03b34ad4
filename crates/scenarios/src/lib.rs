//! # dds-scenarios — the declarative scenario catalog
//!
//! The paper's evaluation is a handful of hand-wired experiments; this
//! crate opens the simulator to **as many scenarios as you can write in
//! a text file**. A scenario names, in a small sectioned `key = value`
//! format (hand-rolled, offline-safe — see [`mod@format`]):
//!
//! * a **fleet** of host classes (`[fleet.<class>]`) — counts,
//!   capacities and optional per-class power models with their own
//!   suspend/resume latencies (heterogeneous fleets);
//! * a **workload mix** (`[workload.<group>]`) — groups of VMs over any
//!   [`TracePattern`](dds_traces::TracePattern) (including the catalog's
//!   diurnal-office, flash-crowd, batch-queue and weekend-heavy
//!   generators) or a synthetic Nutanix personality;
//! * the **engine fidelity** (`mode = legacy | high-fidelity`, parsed
//!   straight into [`EngineConfig`](dds_core::datacenter::EngineConfig))
//!   and the **policy set** to sweep (policy-registry names);
//! * optionally a **request-level QoS workload** (`[qos]`) — the
//!   paper's web-search client attached to every interactive VM, so
//!   [`run_scenario_qos`] pairs each policy's energy outcome with the
//!   [`QosReport`](dds_sim_core::qos::QosReport) of tail latencies and
//!   SLA attainment its run streamed.
//!
//! [`Scenario::parse`] validates with **line-numbered errors**;
//! [`Scenario::to_cluster_spec`] compiles onto the existing
//! `ClusterSpec`/`run_sweep` machinery, so scenarios inherit the
//! parallel fan-out and its bit-exact determinism. A built-in
//! [`mod@catalog`] of eleven scenarios ships with the crate and the
//! `scenarios` binary (`dds-bench`) lists and runs them.
//!
//! ## Example
//!
//! ```
//! use dds_scenarios::{run_scenario, Scenario};
//!
//! let mut s = Scenario::parse(
//!     "[scenario]\n\
//!      name = two-box\n\
//!      summary = smallest demo\n\
//!      days = 1\n\
//!      policies = drowsy-dc\n\
//!      [fleet.box]\n\
//!      count = 2\n\
//!      cores = 16\n\
//!      ram-mb = 32768\n\
//!      [workload.office]\n\
//!      pattern = diurnal-office\n\
//!      count = 4\n\
//!      vcpus = 2\n\
//!      ram-mb = 6144\n",
//! )
//! .expect("valid scenario");
//! assert_eq!(s.host_count(), 2);
//! s.days = 1; // keep the doctest quick
//! let outcomes = run_scenario(&s, None, 1);
//! assert_eq!(outcomes.len(), 1);
//! assert!(outcomes[0].outcome.energy_kwh() > 0.0);
//! ```
//!
//! Malformed text fails with the offending line:
//!
//! ```
//! use dds_scenarios::Scenario;
//! let err = Scenario::parse("[scenario]\nname = x\ndays = zero\n").unwrap_err();
//! assert_eq!(err.line, 3);
//! assert!(err.to_string().starts_with("line 3:"));
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod family;
pub mod format;
pub mod run;
pub mod scenario;

pub use catalog::{catalog, find, CatalogEntry, CATALOG};
pub use family::{workload_family, ScenarioFamily};
pub use format::{RawDoc, RawEntry, RawSection, ScenarioError};
pub use run::{run_scenario, run_scenario_qos, run_scenario_qos_with, run_scenario_with};
pub use scenario::{HostClass, QosSpec, Scenario, WorkloadGroup};
