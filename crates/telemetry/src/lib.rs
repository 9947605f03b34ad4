//! Fleet-wide telemetry for the Drowsy-DC stack.
//!
//! Three instruments, one discipline:
//!
//! * [`metrics`] — a lock-cheap registry of named counters, gauges and
//!   log-bucketed histograms. Handles are cloned out once at wiring time
//!   and held statically, so the hot path pays an atomic add — never a
//!   hash lookup.
//! * [`recorder`] — the epoch **flight recorder**: a bounded ring buffer
//!   of structured per-epoch records (power-state transitions, wake and
//!   suspend decisions with vetoes, placement stats, QoS summary,
//!   per-shard FNV digests), dumpable as JSONL on demand and
//!   automatically on digest divergence or panic.
//! * [`span`] — scoped wall-clock timers around control-plane phases
//!   (churn, shard advance, merge, placement, QoS fold), aggregated into
//!   a per-phase time breakdown.
//!
//! # The determinism split
//!
//! Determinism is the design center. Every metric is registered as
//! either [`metrics::MetricKind::Logical`] or
//! [`metrics::MetricKind::Timing`]:
//!
//! * **Logical** metrics count simulation-domain events (wakes,
//!   suspends, placements, simulated latencies, digests). Their totals
//!   are functions of the seed alone — counter additions are exact,
//!   associative and commutative, so thread/shard/executor grids cannot
//!   change them — and their snapshot is byte-diffable across runs, the
//!   same discipline CI already applies to `fleet_outcomes.csv`.
//! * **Timing** metrics measure the wall clock (phase spans, worker
//!   busy/idle time). They live in a **separate artifact** that is never
//!   byte-diffed.
//!
//! The [`json`] module holds the hand-rolled [`JsonObject`] writer the
//! experiment binaries share (the offline workspace carries no serde).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use json::JsonObject;
pub use metrics::{Counter, Gauge, Histogram, MetricKind, MetricsRegistry};
pub use recorder::{EpochRecord, FlightRecorder};
pub use span::{Span, SpanRecorder};
