//! # dds-net — simulated rack network and the waking module
//!
//! §V of the paper: "Guaranteeing the quick waking of a drowsy server is
//! an essential part of Drowsy-DC. This is under the responsibility of the
//! waking module, located on a server that manages the datacenter, and for
//! this purpose never sleeps." In the prototype it runs on the SDN switch,
//! one per rack, in heart-beat-monitored mirrored pairs.
//!
//! * [`addr`] — virtual-IP / MAC-style addressing for VMs and hosts.
//! * [`waking`] — [`WakingModule`]: the VM-IP → host-MAC map consulted by
//!   the packet analyzer, the waking-date schedule fed by the suspending
//!   modules, and ahead-of-time Wake-on-LAN emission. The analyzer's
//!   verdict marks a request that races a resume as held.
//! * [`cluster`] — [`WakingCluster`]: the fault-tolerance layer — every
//!   module heart-beats and mirrors a peer, and a defective module is
//!   replaced by its mirror copy.
//!
//! The §V hold-and-release itself is simulated by the datacenter, not by
//! a packet-level switch: a parked host's resume starts at the arrival of
//! the first request sent to it, and the streaming QoS pipeline serves
//! every request once its host is operational, which gives wake-racing
//! requests their latency tail.

#![warn(missing_docs)]

pub mod addr;
pub mod cluster;
pub mod waking;

pub use addr::{HostMac, VmIp};
pub use cluster::WakingCluster;
pub use waking::{PacketVerdict, WakeCommand, WakeReason, WakingModule};
