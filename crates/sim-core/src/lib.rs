//! # dds-sim-core — deterministic discrete-event simulation substrate
//!
//! Foundation crate for the Drowsy-DC reproduction. It provides the pieces
//! every other crate builds on:
//!
//! * [`time`] — simulated time ([`SimTime`], [`SimDuration`]) with
//!   millisecond resolution and a simplified (leap-free) calendar that
//!   decomposes an instant into the four scales the idleness model uses
//!   (hour of day, day of week, day of month, month of year).
//! * [`events`] — a stable, deterministic event queue ([`EventQueue`], a
//!   binary heap) ordered by time with FIFO tie-breaking, over which a
//!   simulation runs its own clock and handler loop at `SimTime`
//!   resolution instead of fixed ticks.
//! * [`pool`] — a persistent worker pool ([`WorkerPool`]): long-lived
//!   workers parked on a condvar between batches, submission-ordered
//!   results, so every parallel hot loop (fleet shards, sweeps)
//!   dispatches work without per-call thread spawns.
//! * [`ids`] — typed identifiers for simulation entities (VMs, hosts, …).
//! * [`qos`] — request-level QoS accumulators (the mergeable
//!   [`qos::QosReport`] and the per-epoch [`qos::QosWindow`]):
//!   exact-integer state filled by the streaming per-epoch pipelines of
//!   the datacenter and the fleet engine.
//! * [`rng`] — seedable, stream-split random number helpers so that every
//!   experiment is reproducible from a single `u64` seed.
//! * [`stats`] — percentile summaries, latency histograms and text/CSV
//!   table rendering used by the experiment harnesses.
//!
//! The substrate is intentionally single-threaded and allocation-light: the
//! Drowsy-DC experiments simulate weeks to years of wall-clock time at an
//! hourly control cadence, so determinism and replayability matter more
//! than parallel speed. Parallelism happens *across* experiment runs (the
//! bench harness fans independent parameter points out over threads).

#![warn(missing_docs)]

pub mod events;
pub mod ids;
pub mod pool;
pub mod qos;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::{EventQueue, ScheduledEvent};
pub use ids::{HostId, RackId, VmId};
pub use pool::WorkerPool;
pub use rng::SimRng;
pub use time::{CalendarStamp, SimDuration, SimTime, Weekday};
