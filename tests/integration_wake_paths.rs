//! Integration tests of the two wake paths (§V) and the fault-tolerance
//! machinery, end to end through the datacenter model.

use drowsy_dc::net::{HostMac, PacketVerdict, VmIp, WakingCluster, WakingConfig};
use drowsy_dc::sim::{HostId, RackId, SimRng, SimTime, VmId};
use drowsy_dc::system::datacenter::{Datacenter, DcConfig, WakeCause};
use drowsy_dc::system::registry::PolicyRegistry;
use drowsy_dc::system::spec::{HostSpec, VmSpec, WorkloadKind};
use drowsy_dc::traces::{TracePattern, VmTrace};

/// Two testbed machines under `policy`; with `qos`, the run streams
/// request-level QoS at the configuration's own request rate.
fn build_dc(vms: Vec<VmSpec>, policy: &str, qos: bool) -> Datacenter {
    let hosts = vec![
        HostSpec::testbed_machine(HostId(0), "P0"),
        HostSpec::testbed_machine(HostId(1), "P1"),
    ];
    let placement: Vec<HostId> = (0..vms.len()).map(|i| HostId((i % 2) as u32)).collect();
    let mut cfg = DcConfig::paper_default();
    if qos {
        cfg.stream_qos();
    }
    let policy = PolicyRegistry::standard()
        .build(policy, &cfg, None)
        .expect("registered policy");
    Datacenter::with_policy(cfg, policy, hosts, vms, placement, 11)
}

#[test]
fn timer_driven_wakes_never_pay_latency_interactive_wakes_do() {
    // One timer-driven backup VM and one interactive day-active VM.
    let backup = TracePattern::paper_daily_backup().generate(24 * 5, &mut SimRng::new(1));
    let mut day_levels = vec![0.0; 24 * 5];
    for d in 0..5 {
        for h in 10..15 {
            day_levels[d * 24 + h] = 0.3;
        }
    }
    let vms = vec![
        VmSpec::testbed_flavor(VmId(0), "backup", backup, WorkloadKind::TimerDriven),
        VmSpec::testbed_flavor(
            VmId(1),
            "web",
            VmTrace::new("day", day_levels),
            WorkloadKind::Interactive,
        ),
    ];
    let mut dc = build_dc(vms, "neat-s3", true);
    dc.run(24 * 5);
    let wakes = dc.wake_log().to_vec();
    let out = dc.finish();
    // The interactive VM triggers wake hits; the backup VM's scheduled
    // wakes are anticipated. With one of each on separate paths we expect
    // wake hits ≈ number of idle→active day transitions of the web VM.
    let qos = out.qos.as_ref().expect("the run streamed QoS");
    assert!(qos.wake_hits >= 3, "wake hits {}", qos.wake_hits);
    assert!(qos.worst_wake_ms < 1800);
    let traffic = wakes.iter().filter(|w| w.cause == WakeCause::Traffic);
    assert!(traffic.count() >= 3, "the web VM's requests wake its host");
    assert!(
        wakes.iter().any(|w| w.cause == WakeCause::Timer),
        "the backup is woken ahead of time"
    );
    // Both hosts sleep a lot in this scenario.
    assert!(out.global_suspended_fraction > 0.5);
}

#[test]
fn waking_cluster_survives_cascading_failures() {
    let now = SimTime::EPOCH;
    let mut cluster = WakingCluster::new(4, WakingConfig::paper_default(), now);
    // Register drowsy hosts on every rack.
    for r in 0..4u32 {
        cluster.register_suspension(
            RackId(r),
            HostMac::of(HostId(r)),
            vec![(VmIp::of(VmId(r)), VmId(r))],
            Some(SimTime::from_hours(10)),
        );
    }
    // Fail racks one at a time with heartbeats flowing for the others.
    for dead in 0..4u32 {
        cluster.inject_failure(RackId(dead));
        for alive in 0..4u32 {
            if alive != dead {
                cluster.heartbeat(RackId(alive), SimTime::from_secs(dead as u64 + 1));
            }
        }
        let replaced = cluster.monitor(SimTime::from_secs(dead as u64 + 1));
        assert_eq!(replaced, vec![RackId(dead)]);
        // State is intact after each failover.
        assert!(cluster
            .module(RackId(dead))
            .is_drowsy(HostMac::of(HostId(dead))));
    }
    assert_eq!(cluster.failovers(), 4);
    // All scheduled wakes still fire.
    let cmds = cluster.poll_schedules(SimTime::from_hours(10));
    assert_eq!(cmds.len(), 4);
}

#[test]
fn packets_forward_once_host_is_awake_again() {
    let mut cluster = WakingCluster::new(1, WakingConfig::paper_default(), SimTime::EPOCH);
    let rack = RackId(0);
    let mac = HostMac::of(HostId(0));
    let ip = VmIp::of(VmId(0));
    cluster.register_suspension(rack, mac, vec![(ip, VmId(0))], None);
    assert!(matches!(
        cluster.handle_packet(rack, ip),
        PacketVerdict::WakeAndHold(_)
    ));
    cluster.on_host_resumed(rack, mac);
    assert_eq!(cluster.handle_packet(rack, ip), PacketVerdict::Forward);
}

#[test]
fn suspend_cycles_are_counted_consistently() {
    // A VM active every other day keeps its host cycling.
    let mut levels = vec![0.0; 24 * 8];
    for d in (0..8).step_by(2) {
        for h in 9..12 {
            levels[d * 24 + h] = 0.4;
        }
    }
    let vms = vec![VmSpec::testbed_flavor(
        VmId(0),
        "pulse",
        VmTrace::new("pulse", levels),
        WorkloadKind::Interactive,
    )];
    let mut dc = build_dc(vms, "neat-s3", false);
    dc.run(24 * 8);
    let out = dc.finish();
    let cycles: u64 = out.suspend_cycles.iter().map(|(_, c)| c).sum();
    // The pulse host suspends after each active stretch plus the empty
    // host suspends once: at least 4, at most a couple dozen.
    assert!((4..=40).contains(&cycles), "suspend cycles {cycles}");
}

#[test]
fn grace_time_is_respected_after_resume() {
    // Activity in consecutive hours must not produce a suspend/resume
    // cycle per hour (grace + hour-long activity holds the host awake).
    let mut levels = vec![0.0; 24 * 4];
    #[allow(clippy::needless_range_loop)]
    for h in 0..24 * 4 {
        // Active 9:00–17:00 daily.
        if (9..17).contains(&(h % 24)) {
            levels[h] = 0.5;
        }
    }
    let vms = vec![VmSpec::testbed_flavor(
        VmId(0),
        "office",
        VmTrace::new("office", levels),
        WorkloadKind::Interactive,
    )];
    let mut dc = build_dc(vms, "neat-s3", false);
    dc.run(24 * 4);
    let out = dc.finish();
    let office_cycles = out.suspend_cycles[0].1.max(out.suspend_cycles[1].1);
    // One sleep per night, not one per hour: ≤ 2 cycles per day.
    assert!(office_cycles <= 8, "cycles {office_cycles}");
}

#[test]
fn migration_wakes_are_charged() {
    // Under Drowsy-DC, regrouping a suspended host costs resume energy;
    // verify suspended fraction and energy stay consistent (energy of a
    // run with migrations ≥ pure-sleep lower bound).
    let idle = VmTrace::idle("idle", 24 * 5);
    let vms = vec![
        VmSpec::testbed_flavor(VmId(0), "a", idle.clone(), WorkloadKind::Interactive),
        VmSpec::testbed_flavor(VmId(1), "b", idle.clone(), WorkloadKind::Interactive),
        VmSpec::testbed_flavor(VmId(2), "c", idle.clone(), WorkloadKind::Interactive),
        VmSpec::testbed_flavor(VmId(3), "d", idle, WorkloadKind::Interactive),
    ];
    let mut dc = build_dc(vms, "drowsy-dc", false);
    dc.run(24 * 5);
    let out = dc.finish();
    // 2 hosts, 5 days: the absolute floor is everything suspended at 5 W.
    let floor_kwh = 2.0 * 5.0 * 24.0 * 5.0 / 1000.0;
    assert!(out.energy_kwh >= floor_kwh);
    assert!(
        out.energy_kwh < floor_kwh * 3.0,
        "energy {}",
        out.energy_kwh
    );
}
