//! # dds-hostos — simulated host operating system substrate
//!
//! The Drowsy-DC **suspending module** (§IV of the paper) runs on every
//! managed host and decides *when the host may sleep*. Its inputs are OS
//! level: the process table, the reasons processes are not running, and
//! the kernel's high-resolution timer tree. This crate simulates exactly
//! that substrate:
//!
//! * [`process`] — a process table with run states (running, runnable,
//!   blocked on I/O, sleeping on a timer) and the blacklist that removes
//!   *false negatives* (monitoring daemons, kernel watchdogs — processes
//!   that run but must not keep the host awake).
//! * [`timer`] — an ordered high-resolution timer wheel standing in for
//!   the kernel's red-black tree of hrtimers, with the filtered
//!   earliest-timer walk the paper's helper kernel module performs to
//!   compute the *waking date*.
//! * [`suspend`] — the suspending module itself: the idleness check with
//!   false-positive handling (blocked-on-I/O processes keep the host
//!   awake), the anti-oscillation **grace time** (5 s–2 min, exponentially
//!   increasing as the host's idleness probability decreases), and the
//!   waking-date computation.
//!
//! The datacenter simulation reads host idleness and each VM's next
//! activity from the activity traces, so it calls
//! [`SuspendModule::decide_idle`] (grace and waking date) and keeps no
//! process table or timer wheel; the full pipeline
//! ([`SuspendModule::decide`]) serves the Fig. 3 experiment, the
//! ablations and the examples.

#![warn(missing_docs)]

pub mod process;
pub mod suspend;
pub mod timer;

pub use process::{Blacklist, Pid, ProcState, Process, ProcessTable};
pub use suspend::{Decision, IdlenessCheck, SuspendConfig, SuspendModule};
pub use timer::{TimerEntry, TimerId, TimerWheel};
