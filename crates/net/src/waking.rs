//! The waking module (§V of the paper).
//!
//! Two event types trigger a server resume:
//!
//! 1. **Inbound network request** (§V-A): every packet crossing the SDN
//!    switch is checked against a hashmap of VM IP → drowsy-host MAC; a
//!    hit sends a Wake-on-LAN frame first and holds the packet until the
//!    host is back.
//! 2. **Scheduled waking date** (§V-B): the suspending module sends the
//!    earliest valid hrtimer expiry along with the suspension notice; the
//!    waking module keeps a date-ordered schedule and fires the WoL
//!    *ahead of time* by the resume latency so the host is up when the
//!    timer fires.

use crate::addr::{HostMac, VmIp};
use dds_sim_core::{SimDuration, SimTime, VmId};
use std::collections::{BTreeMap, HashMap};

/// Why a wake command was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// An inbound packet targets a VM on the suspended host.
    InboundRequest {
        /// The VM the packet addressed.
        vm: VmId,
    },
    /// A registered waking date is due (minus the lead time).
    ScheduledDate {
        /// The original waking date (not lead-adjusted).
        date: SimTime,
    },
}

/// An emitted Wake-on-LAN command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeCommand {
    /// Target host NIC.
    pub mac: HostMac,
    /// Why the wake was requested.
    pub reason: WakeReason,
}

/// Verdict of the packet analyzer for one inbound packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketVerdict {
    /// Destination host is awake (or unknown to the module): forward.
    Forward,
    /// Destination host is drowsy: a WoL was sent, hold the packet until
    /// the host resumes.
    WakeAndHold(WakeCommand),
    /// Destination host is already being woken (an earlier packet or a
    /// scheduled date fired): hold, no duplicate WoL.
    Hold,
}

/// How far ahead of a scheduled waking date the WoL is sent ("this
/// request is sent ahead of time in order to take into account the
/// waking latency"): the paper's stock resume latency.
pub const WAKE_LEAD: SimDuration = SimDuration::from_millis(1500);

/// State of one drowsy host as known by the waking module.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DrowsyHost {
    mac: HostMac,
    /// IPs of the VMs hosted there (what the packet analyzer matches).
    vms: Vec<VmIp>,
    /// Scheduled waking date, if the suspending module provided one.
    waking_date: Option<SimTime>,
    /// A WoL has been emitted and the host is presumed resuming.
    wake_in_flight: bool,
}

/// One waking module instance (one per rack in the paper).
///
/// The module is driven by three inputs: suspension notices from
/// suspending modules, inbound packets from the switch, and the passage of
/// time (to fire scheduled wakes). It emits [`WakeCommand`]s which the
/// datacenter model turns into host resumes.
#[derive(Debug, Clone, Default)]
pub struct WakingModule {
    /// VM IP → host MAC ("performed efficiently thanks to a hashmap").
    vm_to_host: HashMap<VmIp, HostMac>,
    /// Per-drowsy-host state, keyed by MAC.
    hosts: HashMap<HostMac, DrowsyHost>,
    /// Waking-date schedule: date → MACs registered for that date.
    schedule: BTreeMap<SimTime, Vec<HostMac>>,
    /// Count of WoL frames emitted (diagnostics).
    wol_sent: u64,
}

impl WakingModule {
    /// Creates a module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of Wake-on-LAN frames emitted so far.
    pub fn wol_sent(&self) -> u64 {
        self.wol_sent
    }

    /// True when the module believes this host is suspended (or resuming).
    pub fn is_drowsy(&self, mac: HostMac) -> bool {
        self.hosts.contains_key(&mac)
    }

    /// Handles a suspension notice from a host's suspending module.
    ///
    /// "The VM to host mappings are only updated when a host is
    /// suspended" — registration carries the IPs of the host's VMs and the
    /// optional waking date.
    pub fn register_suspension(
        &mut self,
        mac: HostMac,
        vms: Vec<VmIp>,
        waking_date: Option<SimTime>,
    ) {
        for &ip in &vms {
            self.vm_to_host.insert(ip, mac);
        }
        if let Some(date) = waking_date {
            self.schedule.entry(date).or_default().push(mac);
        }
        self.hosts.insert(
            mac,
            DrowsyHost {
                mac,
                vms,
                waking_date,
                wake_in_flight: false,
            },
        );
    }

    /// Handles a host-resumed notice: drops all state for the host.
    pub fn on_host_resumed(&mut self, mac: HostMac) {
        if let Some(host) = self.hosts.remove(&mac) {
            for ip in &host.vms {
                self.vm_to_host.remove(ip);
            }
            if let Some(date) = host.waking_date {
                if let Some(macs) = self.schedule.get_mut(&date) {
                    macs.retain(|&m| m != mac);
                    if macs.is_empty() {
                        self.schedule.remove(&date);
                    }
                }
            }
        }
    }

    /// The packet analyzer (§V-A): decides what to do with an inbound
    /// packet addressed to `dst`.
    pub fn handle_packet(&mut self, dst: VmIp) -> PacketVerdict {
        let Some(&mac) = self.vm_to_host.get(&dst) else {
            return PacketVerdict::Forward;
        };
        let host = self
            .hosts
            .get_mut(&mac)
            .expect("vm map and host map in sync");
        if host.wake_in_flight {
            return PacketVerdict::Hold;
        }
        host.wake_in_flight = true;
        self.wol_sent += 1;
        PacketVerdict::WakeAndHold(WakeCommand {
            mac,
            reason: WakeReason::InboundRequest { vm: dst.vm() },
        })
    }

    /// Fires scheduled wakes whose (lead-adjusted) deadline has arrived:
    /// all dates `d` with `d − WAKE_LEAD <= now`. Returns the emitted
    /// commands and removes the mappings ("sends a WoL packet to the
    /// associated drowsy server and removes the mapping").
    pub fn poll_schedule(&mut self, now: SimTime) -> Vec<WakeCommand> {
        let horizon = now + WAKE_LEAD;
        let mut commands = Vec::new();
        let due: Vec<SimTime> = self.schedule.range(..=horizon).map(|(&d, _)| d).collect();
        for date in due {
            let macs = self.schedule.remove(&date).unwrap_or_default();
            for mac in macs {
                let Some(host) = self.hosts.get_mut(&mac) else {
                    continue;
                };
                host.waking_date = None;
                if host.wake_in_flight {
                    continue; // already being woken by a packet
                }
                host.wake_in_flight = true;
                self.wol_sent += 1;
                commands.push(WakeCommand {
                    mac,
                    reason: WakeReason::ScheduledDate { date },
                });
            }
        }
        commands
    }

    /// Next instant at which [`WakingModule::poll_schedule`] would emit
    /// something, for event-driven simulations.
    pub fn next_fire_time(&self) -> Option<SimTime> {
        self.schedule.keys().next().map(|&d| d - WAKE_LEAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim_core::HostId;

    fn mac(i: u32) -> HostMac {
        HostMac::of(HostId(i))
    }

    fn ip(i: u32) -> VmIp {
        VmIp::of(VmId(i))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn unknown_destination_forwards() {
        let mut w = WakingModule::new();
        assert_eq!(w.handle_packet(ip(1)), PacketVerdict::Forward);
        assert_eq!(w.wol_sent(), 0);
    }

    #[test]
    fn packet_to_drowsy_host_wakes_it_once() {
        let mut w = WakingModule::new();
        w.register_suspension(mac(2), vec![ip(1), ip(3)], None);
        assert!(w.is_drowsy(mac(2)));

        match w.handle_packet(ip(3)) {
            PacketVerdict::WakeAndHold(cmd) => {
                assert_eq!(cmd.mac, mac(2));
                assert_eq!(cmd.reason, WakeReason::InboundRequest { vm: VmId(3) });
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        // Second packet while resuming: held without a duplicate WoL.
        assert_eq!(w.handle_packet(ip(1)), PacketVerdict::Hold);
        assert_eq!(w.wol_sent(), 1);
    }

    #[test]
    fn resume_clears_mappings() {
        let mut w = WakingModule::new();
        w.register_suspension(mac(2), vec![ip(1)], Some(t(100)));
        w.on_host_resumed(mac(2));
        assert!(!w.is_drowsy(mac(2)));
        assert_eq!(w.handle_packet(ip(1)), PacketVerdict::Forward);
        assert!(w.poll_schedule(t(1000)).is_empty(), "schedule cleared");
    }

    #[test]
    fn scheduled_wake_fires_ahead_of_time() {
        let mut w = WakingModule::new(); // lead 1.5 s
        w.register_suspension(mac(4), vec![ip(9)], Some(t(100)));
        // Too early: 100 s − 1.5 s lead = 98.5 s.
        assert!(w.poll_schedule(t(98)).is_empty());
        assert_eq!(
            w.next_fire_time(),
            Some(t(100) - SimDuration::from_millis(1500))
        );
        let cmds = w.poll_schedule(SimTime::from_millis(98_500));
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].mac, mac(4));
        assert_eq!(cmds[0].reason, WakeReason::ScheduledDate { date: t(100) });
        // Mapping removed: no double fire.
        assert!(w.poll_schedule(t(200)).is_empty());
        assert_eq!(w.wol_sent(), 1);
    }

    #[test]
    fn packet_wake_suppresses_scheduled_wake() {
        let mut w = WakingModule::new();
        w.register_suspension(mac(4), vec![ip(9)], Some(t(100)));
        // A packet arrives before the scheduled date.
        assert!(matches!(
            w.handle_packet(ip(9)),
            PacketVerdict::WakeAndHold(_)
        ));
        // The scheduled date later fires but the host is already waking.
        assert!(w.poll_schedule(t(200)).is_empty());
        assert_eq!(w.wol_sent(), 1);
    }

    #[test]
    fn multiple_hosts_same_waking_date() {
        let mut w = WakingModule::new();
        w.register_suspension(mac(1), vec![ip(1)], Some(t(50)));
        w.register_suspension(mac(2), vec![ip(2)], Some(t(50)));
        let cmds = w.poll_schedule(t(50));
        assert_eq!(cmds.len(), 2);
        let macs: Vec<_> = cmds.iter().map(|c| c.mac).collect();
        assert!(macs.contains(&mac(1)) && macs.contains(&mac(2)));
    }

    #[test]
    fn indefinite_sleep_without_waking_date() {
        let mut w = WakingModule::new();
        w.register_suspension(mac(7), vec![ip(5)], None);
        assert!(w.poll_schedule(t(1_000_000)).is_empty());
        assert_eq!(w.next_fire_time(), None);
        // …but a packet still wakes it.
        assert!(matches!(
            w.handle_packet(ip(5)),
            PacketVerdict::WakeAndHold(_)
        ));
    }

    #[test]
    fn re_suspension_updates_vm_set() {
        let mut w = WakingModule::new();
        w.register_suspension(mac(1), vec![ip(1)], None);
        w.on_host_resumed(mac(1));
        // VM 1 migrated away; now hosts VM 2 only.
        w.register_suspension(mac(1), vec![ip(2)], None);
        assert_eq!(w.handle_packet(ip(1)), PacketVerdict::Forward);
        assert!(matches!(
            w.handle_packet(ip(2)),
            PacketVerdict::WakeAndHold(_)
        ));
    }
}
