//! Drive one host through a full suspend/wake cycle by hand.
//!
//! ```text
//! cargo run --release --example suspend_wake_cycle
//! ```
//!
//! This example exercises the systems layer directly — the suspending
//! module's decision pipeline (blacklist, I/O guard, grace time, waking
//! date from the hrtimer tree), the waking module's two wake paths, and
//! the fault-tolerant waking cluster — narrating each step. It is the
//! §IV/§V machinery of the paper in ~100 lines.

use drowsy_dc::hostos::{Blacklist, Decision, ProcState, ProcessTable, SuspendModule, TimerWheel};
use drowsy_dc::net::{HostMac, PacketVerdict, VmIp, WakingCluster};
use drowsy_dc::sim::{HostId, RackId, SimDuration, SimTime, VmId};

fn main() {
    let rack = RackId(0);
    let host = HostId(3);
    let mac = HostMac::of(host);
    let vm = VmId(7);
    let ip = VmIp::of(vm);

    // ---- host-side state: processes and timers.
    let mut procs = ProcessTable::new();
    let blacklist = Blacklist::standard();
    procs.spawn("monitord", ProcState::Running); // blacklisted noise
    let vm_pid = procs.spawn_vm_process("qemu-v7", ProcState::Running, Some(vm));
    let mut timers = TimerWheel::new();
    // The VM's nightly cron job, visible as an hrtimer.
    timers.register(SimTime::from_hours(26), vm_pid, "v7-nightly-cron");

    let mut suspender = SuspendModule::with_defaults();
    let mut waking = WakingCluster::new(2, SimTime::EPOCH);

    println!("t=10:00  VM busy → the suspending module keeps the host awake:");
    let d = suspender.decide(SimTime::from_hours(10), &procs, &blacklist, &timers);
    println!("         {d:?}");
    assert!(matches!(d, Decision::StayAwake(_)));

    println!("\nt=11:00  VM goes idle (only blacklisted monitord still runs):");
    procs.set_state(vm_pid, ProcState::Sleeping { wake: None });
    let d = suspender.decide(SimTime::from_hours(11), &procs, &blacklist, &timers);
    println!("         {d:?}");
    let Decision::Suspend { waking_date } = d else {
        panic!("expected a suspend decision")
    };
    println!(
        "         waking date = {:?} (the cron hrtimer, monitord's timers filtered)",
        waking_date
    );

    // ---- register the suspension with the rack's waking module.
    waking.register_suspension(rack, mac, vec![ip], waking_date);
    println!("\n         host {host} is now drowsy; waking module owns its fate");

    // ---- wake path 1: an inbound packet for the VM.
    println!("\nt=14:30  a request for {ip} hits the SDN switch:");
    match waking.handle_packet(rack, ip) {
        PacketVerdict::WakeAndHold(cmd) => {
            println!(
                "         WoL → {} (reason {:?}); packet held",
                cmd.mac, cmd.reason
            )
        }
        other => panic!("unexpected verdict {other:?}"),
    }
    // While the host resumes, further packets are held without new WoLs.
    assert_eq!(waking.handle_packet(rack, ip), PacketVerdict::Hold);
    println!("         second packet: held, no duplicate WoL");

    // Host comes back up ~800 ms later; grace time now guards against
    // instant re-suspension.
    let up =
        SimTime::from_hours(14) + SimDuration::from_minutes(30) + SimDuration::from_millis(800);
    waking.on_host_resumed(rack, mac);
    suspender.on_resume(up, 0.9); // host considered 90 % likely idle
    println!(
        "         host resumed at +800 ms; grace until {:?}",
        suspender.grace_deadline().unwrap()
    );
    let d = suspender.decide(up + SimDuration::from_secs(2), &procs, &blacklist, &timers);
    println!("         immediate re-check: {d:?} (grace blocks oscillation)");

    // ---- wake path 2: the scheduled waking date.
    println!("\nt=25:59  re-suspended earlier; the cron waking date approaches:");
    waking.register_suspension(rack, mac, vec![ip], Some(SimTime::from_hours(26)));
    let due = waking.poll_schedules(SimTime::from_hours(26) - SimDuration::from_millis(1400));
    println!(
        "         poll_schedules fires {} WoL(s) ahead of time: {:?}",
        due.len(),
        due.first().map(|c| c.reason)
    );

    // ---- fault tolerance: kill the rack's module mid-flight.
    println!("\n         injecting a waking-module failure on rack {rack}:");
    waking.inject_failure(rack);
    // The healthy rack keeps heartbeating; the failed one is replaced.
    waking.heartbeat(RackId(1), SimTime::from_hours(26));
    let replaced = waking.monitor(SimTime::from_hours(26));
    println!(
        "         heartbeat monitor replaced {replaced:?} from its mirror ({} failover(s) so far)",
        waking.failovers()
    );
    assert!(waking.is_alive(rack));
    println!("\nall §IV/§V mechanisms exercised — see dds-hostos and dds-net for the API");
}
