//! # dds-qos — request-level QoS: tail latency and SLA accounting
//!
//! The paper validates Drowsy-DC against a user-facing SLA — "more than
//! 99 % of the web search requests were serviced within 200 ms", with
//! wake-triggering requests paying the resume latency (≈1500 ms stock,
//! ≈800 ms quick resume). This crate adds that evaluation dimension to
//! every policy, scenario and sweep:
//!
//! * The datacenter run records per-host [`PowerTimeline`]s and a VM
//!   placement log (`DcConfig::track_power_timeline`).
//! * [`replay`](fn@replay) drives each interactive VM's Poisson request stream
//!   (rate following its activity trace, the paper's open-loop client)
//!   through those timelines: requests arriving while the host is parked
//!   or mid-resume queue until it is operational, the wake-triggering
//!   request pays exactly the recorded resume latency, and every latency
//!   lands in a log-bucketed mergeable histogram.
//! * [`QosReport`] surfaces p50/p95/p99/p99.9, SLA attainment and
//!   violations charged to wakes vs queueing. Per-VM replays fan out
//!   across threads with **bit-identical** merged reports (`run_sweep`'s
//!   determinism contract, extended to QoS).
//!
//! [`replay`](fn@replay) is interval-batched (whole hours of arrivals
//! drawn per batch, cursor-amortized lookups, chunked pool fan-out with
//! reused buffers); its tests pin it bit-identical to an
//! event-per-request oracle. The *streaming* variant of the same
//! pipeline lives inside `dds-core` (`QosStreamConfig`): it accumulates
//! per-epoch [`QosWindow`]s while the run executes and feeds them back
//! to control policies — this crate and that engine share semantics and
//! RNG streams, so their reports agree to the bit wherever both run.
//!
//! Together with the energy outcome this turns every policy comparison
//! into a power-vs-tail-latency Pareto: the `qos` binary (`dds-bench`)
//! reproduces the paper's SLA claim next to the kWh numbers, and the
//! scenario format's `[qos]` section (`dds-scenarios`) attaches a request
//! workload to any declarative scenario.
//!
//! ## Example
//!
//! ```
//! use dds_core::cluster::ClusterSpec;
//! use dds_qos::{run_cluster_qos, QosConfig};
//! use dds_traces::RequestProfile;
//!
//! let mut spec = ClusterSpec::paper_default(0.75);
//! spec.hosts = 2;
//! spec.vms = 6;
//! spec.days = 1;
//! let profile = RequestProfile {
//!     peak_rps: 1.0,
//!     ..RequestProfile::web_search_quick_resume()
//! };
//! let (outcome, qos) = run_cluster_qos(&spec, "drowsy-dc", 42, &profile, 0);
//! assert!(outcome.energy_kwh() > 0.0);
//! assert!(qos.sla_attainment() <= 1.0);
//! println!(
//!     "within SLA: {:.2} %, p99.9: {:?} ms",
//!     qos.sla_attainment() * 100.0,
//!     qos.p999()
//! );
//! ```
//!
//! [`PowerTimeline`]: dds_power::PowerTimeline

#![warn(missing_docs)]

pub mod replay;
pub mod report;

pub use replay::{replay, run_cluster_qos, QosConfig};
pub use report::{HostWakeQos, QosReport, QosWindow};
