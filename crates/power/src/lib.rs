//! # dds-power — power states, host power models and energy accounting
//!
//! The Drowsy-DC paper's headline numbers are energy figures: total kWh over
//! a week of operation (§VI.A.3), the fraction of time each host spends
//! suspended (Table I), and the ~5 W suspend-to-RAM draw ("around 10 % of
//! the consumption in idle S0 state"). This crate provides:
//!
//! * [`PowerState`] — the ACPI-inspired host power states the system moves
//!   through, including the timed `Suspending`/`Resuming` transitions.
//! * [`HostPowerModel`] — maps `(state, cpu-utilization)` to watts, with a
//!   linear S0 curve between idle and peak (the standard first-order server
//!   power model) and constants calibrated to the paper's testbed.
//! * [`PowerStateMachine`] — a per-host state machine that enforces legal
//!   transitions and their latencies (suspend ≈ seconds, resume 0.8–1.5 s).
//! * [`EnergyMeter`] — integrates watts over simulated time and tracks the
//!   per-state residency needed for Table I.
//! * [`PowerTimeline`] — the opt-in per-host state history the meter can
//!   record as a by-product: the recorded run against which the streaming
//!   request-level QoS pipeline (`dds_core::datacenter::QosStreamConfig`)
//!   is checked request by request.

#![warn(missing_docs)]

pub mod meter;
pub mod model;
pub mod state;
pub mod timeline;

pub use meter::{DcEnergyAccount, EnergyMeter};
pub use model::{HostPowerModel, TransitionTimings};
pub use state::{PowerState, PowerStateMachine, TransitionError, WakeSpeed};
pub use timeline::{PowerInterval, PowerTimeline};
