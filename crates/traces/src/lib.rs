//! # dds-traces — workload patterns and activity-trace generation
//!
//! Drowsy-DC consumes a single signal per VM: the **hourly activity level**,
//! defined in §III-C of the paper as "the ratio of CPU quanta scheduled for
//! the VM, over the total possible quanta during an hour", with very short
//! quanta filtered as noise. This crate builds those signals:
//!
//! * [`trace`] — [`VmTrace`], an hourly activity series with statistics
//!   and CSV (de)serialization.
//! * [`patterns`] — [`TracePattern`], deterministic + stochastic generators
//!   for every workload class the paper evaluates (Table II): the daily
//!   backup, the thrice-weekly comic-strip site with summer holidays, the
//!   seasonal diploma-results site, long-lived mostly-used (LLMU),
//!   short-lived mostly-used (SLMU) and business-hours VMs.
//! * [`nutanix`] — synthetic stand-ins for the five production traces from
//!   the Nutanix private cloud used in Fig. 1 and Fig. 4(c–g). The real
//!   traces are proprietary; these generators reproduce their published
//!   structure (5–25 % duty cycles, strong daily/weekly periodicity, burst
//!   noise) so the idleness model faces the same learning problem.
//! * [`requests`] — an open-loop request-level client (Poisson arrivals
//!   modulated by the activity trace, one RNG stream per VM-hour): the
//!   requests whose first arrival wakes a parked host and that the SLA
//!   experiments serve.
//! * [`arrivals`] — Poisson VM arrival/departure plans at `SimTime`
//!   resolution, consumed as scheduled events by the event-driven
//!   simulation engine.
//! * [`workload`] — [`VmWorkload`], the uniform handle over patterns and
//!   Nutanix personalities that the scenario layer (`dds-scenarios`)
//!   composes workload mixes from.
//! * `classify` — the paper's §I taxonomy (SLMU / LLMU / LLMI) measured
//!   from traces, plus periodicity detection (daily and weekly
//!   autocorrelation).
//!
//! ## Example
//!
//! Generate a fortnight of the scenario catalog's office workload and
//! check it against the paper's LLMI taxonomy — everything is driven by
//! one seed, so the trace replays bit-identically:
//!
//! ```
//! use dds_sim_core::SimRng;
//! use dds_traces::{classify, TracePattern, VmClass, VmWorkload};
//!
//! let mut rng = SimRng::new(42);
//! let office = VmWorkload::Pattern(TracePattern::catalog_diurnal_office());
//! let trace = office.generate(14 * 24, &mut rng);
//!
//! assert_eq!(trace.hours(), 14 * 24);
//! assert_eq!(classify(&trace), VmClass::Llmi);
//! let replay = office.generate(14 * 24, &mut SimRng::new(42));
//! assert_eq!(trace.levels(), replay.levels());
//! ```

#![warn(missing_docs)]

pub mod arrivals;
pub mod classify;
pub mod nutanix;
pub mod patterns;
pub mod requests;
pub mod trace;
pub mod workload;

pub use arrivals::{poisson_arrivals, slmu_burst_trace, ArrivalEvent};
pub use classify::{classify, llmi_fraction, periodicity, VmClass};
pub use nutanix::nutanix_trace;
pub use patterns::TracePattern;
pub use requests::{
    hour_arrivals, hour_request_rng, RequestGenerator, RequestProfile, RequestStream,
};
pub use trace::VmTrace;
pub use workload::VmWorkload;
