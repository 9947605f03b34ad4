//! # dds-idleness — the Drowsy-DC idleness model (IM) and idleness
//! # probability (IP)
//!
//! This crate implements §III of the paper: the per-VM learned model that
//! predicts whether a VM will be idle during the next hour, which is the
//! signal the whole consolidation strategy keys on.
//!
//! * [`model`] — [`IdlenessModel`]: the four synthesized-idleness (SI)
//!   score tables (hour-of-day, day-of-week, day-of-month, month-of-year),
//!   the hourly update rule (eqs. 2–5) and the steepest-descent weight
//!   learning (eqs. 6–8). It consumes one activity level per hour;
//!   levels under `ImConfig::noise_threshold` count as idle (the paper's
//!   filtered scheduling-quantum noise).
//! * [`metrics`] — the Table III prediction-quality metrics (recall,
//!   precision, F-measure, specificity) and windowed evaluation used to
//!   regenerate Fig. 4.
//! * [`eval`] — the predict-then-observe evaluation loop over a trace.
//! * [`classify`] — behaviour classification ([`ImClass`]) from a model's
//!   learned state, consumed by the tournament's adaptive meta-policy.
//!
//! ## Interpretation notes (also in DESIGN.md)
//!
//! SI scores live in `[-1, 1]` with 0 = undetermined. With weights
//! normalized onto the simplex, the raw score `s = wᵀ·SI` is also in
//! `[-1, 1]`; we expose `IP = (s + 1)/2 ∈ [0, 1]`, so the paper's
//! "predicted idle when IP is higher than 50 %" is exactly `s > 0`.
//! Range comparisons (the 7σ opportunistic-consolidation rule) are done in
//! raw-score units.

#![warn(missing_docs)]

pub mod classify;
pub mod eval;
pub mod metrics;
pub mod model;
#[cfg(test)]
mod oracle;

pub use classify::ImClass;
pub use eval::evaluate_model_on_trace;
pub use metrics::{ConfusionMatrix, WindowedEvaluation};
pub use model::{IdlenessModel, ImConfig, SiVector, ALPHA, BETA, SIGMA};
