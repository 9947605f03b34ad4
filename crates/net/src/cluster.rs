//! Fault tolerance for waking modules.
//!
//! §V: "knowing that the waking module is at the heart of our solution,
//! its implementation is fault tolerant. To this end, all waking modules
//! work in a collaborated manner. Each waking module monitors — via a
//! heart beat mechanism — and mirrors another one. In this way, when a
//! waking module is defective, it is replaced with an identical version."
//!
//! [`WakingCluster`] arranges one module per rack in a mirroring ring:
//! module *i* mirrors module *(i+1) mod n*. Every state change is
//! replicated to the mirror synchronously (the modules' state is small —
//! two hashmaps), and a missed heartbeat triggers replacement of the dead
//! module from its mirror's replica.

use crate::addr::{HostMac, VmIp};
use crate::waking::{PacketVerdict, WakeCommand, WakingModule};
use dds_sim_core::{RackId, SimDuration, SimTime};

/// Health of one cluster member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    /// Heartbeats arriving normally.
    Alive {
        /// Instant of the last heartbeat received from this member.
        last_heartbeat: SimTime,
    },
    /// Declared dead; awaiting replacement.
    Failed,
}

/// A rack's waking module plus its replication state.
#[derive(Debug, Clone)]
struct Member {
    module: WakingModule,
    /// Replica of the *mirrored* member's module (ring neighbour).
    mirror_of_next: WakingModule,
    health: Health,
}

/// A fault-tolerant group of waking modules, one per rack.
#[derive(Debug, Clone)]
pub struct WakingCluster {
    members: Vec<Member>,
    heartbeat_timeout: SimDuration,
    failovers: u64,
}

impl WakingCluster {
    /// Creates a cluster of `racks` modules (at least one).
    pub fn new(racks: usize, now: SimTime) -> Self {
        assert!(racks >= 1, "cluster needs at least one waking module");
        let members = (0..racks)
            .map(|_| Member {
                module: WakingModule::new(),
                mirror_of_next: WakingModule::new(),
                health: Health::Alive {
                    last_heartbeat: now,
                },
            })
            .collect();
        WakingCluster {
            members,
            heartbeat_timeout: SimDuration::from_secs(5),
            failovers: 0,
        }
    }

    /// Number of racks / modules.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members (never: ctor enforces ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of failovers performed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The heartbeat timeout after which a silent member is replaced.
    pub fn heartbeat_timeout(&self) -> SimDuration {
        self.heartbeat_timeout
    }

    fn mirror_index(&self, rack: usize) -> usize {
        (rack + self.members.len() - 1) % self.members.len()
    }

    /// Index sanity helper.
    fn rack_index(&self, rack: RackId) -> usize {
        let i = rack.index();
        assert!(i < self.members.len(), "unknown rack {rack}");
        i
    }

    /// Replicates rack `i`'s module into its mirror (the previous ring
    /// member holds the replica of `i`). A single-rack cluster mirrors
    /// nothing, so it clones nothing either.
    fn replicate(&mut self, i: usize) {
        let holder = self.mirror_index(i);
        if holder != i {
            self.members[holder].mirror_of_next = self.members[i].module.clone();
        }
    }

    /// Registers a host suspension with the rack's module (replicated).
    pub fn register_suspension(
        &mut self,
        rack: RackId,
        mac: HostMac,
        vms: Vec<VmIp>,
        waking_date: Option<SimTime>,
    ) {
        let i = self.rack_index(rack);
        self.members[i]
            .module
            .register_suspension(mac, vms, waking_date);
        self.replicate(i);
    }

    /// Notifies the rack's module of a host resume (replicated).
    pub fn on_host_resumed(&mut self, rack: RackId, mac: HostMac) {
        let i = self.rack_index(rack);
        self.members[i].module.on_host_resumed(mac);
        self.replicate(i);
    }

    fn member_alive(&self, i: usize) -> bool {
        matches!(self.members[i].health, Health::Alive { .. })
    }

    /// Packet analysis on the rack's module (replicated: the wake-in-flight
    /// flag is state). A **failed** module no longer analyzes anything —
    /// packets pass through unheld until the monitor restores it.
    pub fn handle_packet(&mut self, rack: RackId, dst: VmIp) -> PacketVerdict {
        let i = self.rack_index(rack);
        if !self.member_alive(i) {
            return PacketVerdict::Forward;
        }
        let verdict = self.members[i].module.handle_packet(dst);
        self.replicate(i);
        verdict
    }

    /// Polls all *alive* modules' schedules; returns every wake command
    /// due. A failed module serves nothing until its mirror restores it —
    /// its due dates stay queued in the replica and fire (late) after the
    /// failover, which is exactly the §V recovery story.
    pub fn poll_schedules(&mut self, now: SimTime) -> Vec<WakeCommand> {
        let mut all = Vec::new();
        for i in 0..self.members.len() {
            if !self.member_alive(i) {
                continue;
            }
            let mut cmds = self.members[i].module.poll_schedule(now);
            if !cmds.is_empty() {
                self.replicate(i);
            }
            all.append(&mut cmds);
        }
        all
    }

    /// Earliest instant at which any *alive* module's waking-date schedule
    /// emits a wake command (lead-adjusted), for event-driven simulations:
    /// the engine schedules its "scheduled wake due" event here instead of
    /// polling every control period. Failed modules are excluded — they
    /// cannot fire until the monitor restores them (at which point the
    /// engine re-arms from the restored schedule).
    pub fn next_fire_time(&self) -> Option<SimTime> {
        self.members
            .iter()
            .filter(|m| matches!(m.health, Health::Alive { .. }))
            .filter_map(|m| m.module.next_fire_time())
            .min()
    }

    /// Records a heartbeat from every *alive* module (failed modules have
    /// stopped beating — that is what the monitor detects). The event
    /// engine calls it in the heartbeat round after a failure.
    pub fn heartbeat_all(&mut self, now: SimTime) {
        for i in 0..self.members.len() {
            self.heartbeat(RackId::from_index(i), now);
        }
    }

    /// Records a heartbeat from the rack's module.
    pub fn heartbeat(&mut self, rack: RackId, now: SimTime) {
        let i = self.rack_index(rack);
        if self.members[i].health != Health::Failed {
            self.members[i].health = Health::Alive {
                last_heartbeat: now,
            };
        }
    }

    /// Fault injection: marks a module defective (it stops heartbeating
    /// and serving).
    pub fn inject_failure(&mut self, rack: RackId) {
        let i = self.rack_index(rack);
        self.members[i].health = Health::Failed;
    }

    /// True when the rack's module is currently marked alive.
    pub fn is_alive(&self, rack: RackId) -> bool {
        matches!(
            self.members[self.rack_index(rack)].health,
            Health::Alive { .. }
        )
    }

    /// Runs the heartbeat monitor: any member silent for longer than the
    /// timeout (or explicitly failed) is replaced by its mirror's replica
    /// ("when a waking module is defective, it is replaced with an
    /// identical version"). Returns the racks that failed over.
    pub fn monitor(&mut self, now: SimTime) -> Vec<RackId> {
        let mut replaced = Vec::new();
        for i in 0..self.members.len() {
            let dead = match self.members[i].health {
                Health::Failed => true,
                Health::Alive { last_heartbeat } => {
                    now.saturating_since(last_heartbeat) > self.heartbeat_timeout
                }
            };
            if dead {
                let holder = self.mirror_index(i);
                if holder != i {
                    // Restore from the mirror's replica; a single-member
                    // cluster rebuilds from its own (live) image.
                    self.members[i].module = self.members[holder].mirror_of_next.clone();
                }
                self.members[i].health = Health::Alive {
                    last_heartbeat: now,
                };
                self.failovers += 1;
                replaced.push(RackId::from_index(i));
            }
        }
        replaced
    }

    /// Read access to a rack's module (diagnostics/tests).
    pub fn module(&self, rack: RackId) -> &WakingModule {
        &self.members[self.rack_index(rack)].module
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim_core::{HostId, VmId};

    fn mac(i: u32) -> HostMac {
        HostMac::of(HostId(i))
    }
    fn ip(i: u32) -> VmIp {
        VmIp::of(VmId(i))
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    const R0: RackId = RackId(0);
    const R1: RackId = RackId(1);

    fn cluster(n: usize) -> WakingCluster {
        WakingCluster::new(n, t(0))
    }

    #[test]
    fn state_survives_failover() {
        let mut c = cluster(2);
        c.register_suspension(R0, mac(1), vec![ip(1)], Some(t(100)));
        // Rack 0's module dies; rack 1 keeps heartbeating.
        c.inject_failure(R0);
        assert!(!c.is_alive(R0));
        c.heartbeat(R1, t(9));
        let replaced = c.monitor(t(10));
        assert_eq!(replaced, vec![R0]);
        assert!(c.is_alive(R0));
        assert_eq!(c.failovers(), 1);
        // The replacement still knows the drowsy host and its schedule.
        assert!(c.module(R0).is_drowsy(mac(1)));
        let cmds = c.poll_schedules(t(100));
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].mac, mac(1));
    }

    #[test]
    fn heartbeat_timeout_triggers_replacement() {
        let mut c = cluster(3);
        c.heartbeat(R0, t(1));
        c.heartbeat(R1, t(1));
        c.heartbeat(RackId(2), t(1));
        // Rack 1 goes silent; others keep beating.
        for s in 2..20 {
            c.heartbeat(R0, t(s));
            c.heartbeat(RackId(2), t(s));
        }
        let replaced = c.monitor(t(20));
        assert_eq!(replaced, vec![R1]);
        assert!(c.monitor(t(21)).is_empty(), "fresh replacement is alive");
    }

    #[test]
    fn packet_handling_after_failover_preserves_wake_in_flight() {
        let mut c = cluster(2);
        c.register_suspension(R0, mac(1), vec![ip(1)], None);
        // First packet triggers the wake.
        assert!(matches!(
            c.handle_packet(R0, ip(1)),
            PacketVerdict::WakeAndHold(_)
        ));
        // Module dies after replicating; replacement must remember the
        // in-flight wake and not send a duplicate WoL.
        c.inject_failure(R0);
        c.monitor(t(5));
        assert_eq!(c.handle_packet(R0, ip(1)), PacketVerdict::Hold);
    }

    #[test]
    fn racks_are_independent() {
        let mut c = cluster(2);
        c.register_suspension(R0, mac(1), vec![ip(1)], None);
        c.register_suspension(R1, mac(2), vec![ip(2)], None);
        assert!(c.module(R0).is_drowsy(mac(1)));
        assert!(!c.module(R0).is_drowsy(mac(2)));
        assert!(matches!(
            c.handle_packet(R1, ip(2)),
            PacketVerdict::WakeAndHold(_)
        ));
        assert_eq!(c.module(R0).wol_sent(), 0);
    }

    #[test]
    fn single_module_cluster_self_mirrors() {
        let mut c = cluster(1);
        c.register_suspension(R0, mac(1), vec![ip(1)], None);
        c.inject_failure(R0);
        c.monitor(t(1));
        // With one member the mirror is itself: state is retained because
        // replacement copies the member's own live state replica.
        assert!(c.is_alive(R0));
        // A 1-rack deployment has no true redundancy; the module is
        // rebuilt from its own (possibly stale) image. Here it was
        // replicated on every mutation, so state survives.
        assert!(c.module(R0).is_drowsy(mac(1)));
    }

    #[test]
    #[should_panic(expected = "unknown rack")]
    fn unknown_rack_panics() {
        let mut c = cluster(1);
        c.heartbeat(RackId(5), t(0));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_cluster_rejected() {
        cluster(0);
    }

    #[test]
    fn failed_module_serves_nothing_until_restored() {
        let mut c = cluster(2);
        c.register_suspension(R0, mac(1), vec![ip(1)], Some(t(100)));
        c.inject_failure(R0);
        // Dead window: no schedule fires, no packet analysis, no wake
        // deadline advertised — the module is gone.
        assert!(c.poll_schedules(t(100)).is_empty());
        assert_eq!(c.handle_packet(R0, ip(1)), PacketVerdict::Forward);
        assert_eq!(c.next_fire_time(), None);
        // Failover restores the mirror's replica; the overdue date then
        // fires late, as §V's recovery story promises.
        c.monitor(t(105));
        assert_eq!(
            c.next_fire_time(),
            Some(t(100) - SimDuration::from_millis(1500))
        );
        let cmds = c.poll_schedules(t(105));
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].mac, mac(1));
    }

    #[test]
    fn next_fire_time_is_the_cluster_minimum() {
        let mut c = cluster(2);
        assert_eq!(c.next_fire_time(), None);
        c.register_suspension(R0, mac(1), vec![ip(1)], Some(t(200)));
        c.register_suspension(R1, mac(2), vec![ip(2)], Some(t(100)));
        // Earliest date minus the 1.5 s lead, across both racks.
        assert_eq!(
            c.next_fire_time(),
            Some(t(100) - SimDuration::from_millis(1500))
        );
        c.on_host_resumed(R1, mac(2));
        assert_eq!(
            c.next_fire_time(),
            Some(t(200) - SimDuration::from_millis(1500))
        );
    }

    #[test]
    fn heartbeat_all_keeps_alive_members_fresh_but_not_failed_ones() {
        let mut c = cluster(2);
        c.inject_failure(R0);
        c.heartbeat_all(t(10));
        assert!(!c.is_alive(R0), "a failed module does not revive by beat");
        assert!(c.is_alive(R1));
        // The monitor replaces the failed one; the fresh beat keeps R1.
        let replaced = c.monitor(t(10));
        assert_eq!(replaced, vec![R0]);
    }

    #[test]
    fn resumes_replicate_too() {
        let mut c = cluster(2);
        c.register_suspension(R0, mac(1), vec![ip(1)], None);
        c.on_host_resumed(R0, mac(1));
        c.inject_failure(R0);
        c.monitor(t(2));
        assert!(!c.module(R0).is_drowsy(mac(1)), "resume replicated");
        assert_eq!(c.handle_packet(R0, ip(1)), PacketVerdict::Forward);
    }
}
