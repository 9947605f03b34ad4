//! Event-engine integration tests.
//!
//! The datacenter runs on the discrete-event engine
//! (`dds_core::datacenter::DcEngine`) at one of two fidelities. The
//! legacy fidelity (`Datacenter::run`) is pinned bit for bit by the
//! golden policy-equivalence suite; this file pins that **high fidelity
//! is strictly more faithful** — scheduled S3/S5 wakes fire at their true
//! lead-adjusted instants instead of being quantized to the next hour
//! boundary, parked-host energy integrates over variable-length
//! intervals, failover runs at heartbeat latency, and VM arrivals land at
//! sub-hour offsets. The wake-latency accounting assertions here hold
//! **only** at high fidelity; the same scenario at legacy fidelity
//! demonstrably violates them.

use dds_sim_core::time::MILLIS_PER_HOUR;
use dds_traces::{arrivals, TracePattern};
use drowsy_dc::prelude::*;

fn testbed_machines() -> Vec<dds_core::spec::HostSpec> {
    vec![
        dds_core::spec::HostSpec::testbed_machine(HostId(0), "P0"),
        dds_core::spec::HostSpec::testbed_machine(HostId(1), "P1"),
    ]
}

fn vm(
    i: u32,
    name: &str,
    trace: VmTrace,
    kind: dds_core::spec::WorkloadKind,
) -> dds_core::spec::VmSpec {
    dds_core::spec::VmSpec::testbed_flavor(VmId(i), name, trace, kind)
}

/// A SleepScale fleet whose host 0 carries a daily backup (timer-driven,
/// large inter-activity gap → S5 with a scheduled waking date) and host 1
/// an always-idle VM.
fn s5_backup_dc(days: usize, seed: u64) -> Datacenter {
    let backup =
        TracePattern::paper_daily_backup().generate(24 * days, &mut dds_sim_core::SimRng::new(4));
    let vms = vec![
        vm(0, "bk", backup, dds_core::spec::WorkloadKind::TimerDriven),
        vm(
            1,
            "idle",
            VmTrace::idle("idle", 24 * days),
            dds_core::spec::WorkloadKind::Interactive,
        ),
    ];
    let cfg = DcConfig::paper_default();
    let policy = Box::new(SleepScalePolicy::new(cfg.sleepscale.clone()));
    Datacenter::with_policy(
        cfg,
        policy,
        testbed_machines(),
        vms,
        vec![HostId(0), HostId(1)],
        seed,
    )
}

#[test]
fn s5_resume_fires_at_true_latency_not_next_hour_boundary() {
    // Regression for the tentpole's core fidelity claim. The daily
    // backup's waking date lands on an hour boundary D. At legacy
    // fidelity the wake is only discovered by the poll *at* D, so the
    // resume starts at D and the host is operational at D + 1.5 s (S5
    // pays the stock resume path). At high fidelity the waking module's
    // WoL fires at its true lead-adjusted instant D − 1.5 s, and the host
    // is operational exactly at D.
    let days = 5;

    let mut ticked = s5_backup_dc(days, 13);
    ticked.run(24 * days as u64);
    let tick_s5: Vec<WakeRecord> = ticked
        .wake_log()
        .iter()
        .copied()
        .filter(|w| w.from_off)
        .collect();
    assert!(!tick_s5.is_empty(), "scenario must reach S5");
    for w in &tick_s5 {
        assert!(
            w.started.as_millis().is_multiple_of(MILLIS_PER_HOUR),
            "legacy fidelity quantizes wake starts to hour boundaries: {w:?}"
        );
        assert!(
            !w.operational.as_millis().is_multiple_of(MILLIS_PER_HOUR),
            "legacy fidelity pays the resume after the boundary: {w:?}"
        );
    }

    let mut dc = s5_backup_dc(days, 13);
    let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
    engine.run_hours(24 * days as u64);
    drop(engine);
    let pre_fired: Vec<WakeRecord> = dc
        .wake_log()
        .iter()
        .copied()
        .filter(|w| {
            w.from_off
                && !w.started.as_millis().is_multiple_of(MILLIS_PER_HOUR)
                && w.operational.as_millis().is_multiple_of(MILLIS_PER_HOUR)
        })
        .collect();
    assert!(
        !pre_fired.is_empty(),
        "the engine must pre-fire S5 wakes at date − lead: {:?}",
        dc.wake_log()
    );
    for w in &pre_fired {
        assert_eq!(
            (w.operational - w.started).as_millis(),
            1500,
            "S5 resume pays its true stock latency: {w:?}"
        );
    }
}

#[test]
fn wake_latency_accounting_holds_only_under_the_engine() {
    // The paper's claim: scheduled activity pays *no* resume latency
    // because the waking module fires ahead of time. Under the engine the
    // claim is literally simulated — every scheduled S5 resume completes
    // at (or before) its hour-boundary waking date. At legacy fidelity
    // the same scenario completes every S5 resume strictly after the
    // boundary, so this assertion distinguishes the two fidelities.
    let days = 5;
    let on_time = |dc: &Datacenter| -> (usize, usize) {
        let s5: Vec<&WakeRecord> = dc.wake_log().iter().filter(|w| w.from_off).collect();
        let on_boundary = s5
            .iter()
            .filter(|w| w.operational.as_millis().is_multiple_of(MILLIS_PER_HOUR))
            .count();
        (on_boundary, s5.len())
    };

    let mut evented = s5_backup_dc(days, 13);
    DcEngine::new(&mut evented, EngineConfig::HighFidelity).run_hours(24 * days as u64);
    let (on_time_evented, total_evented) = on_time(&evented);
    assert!(total_evented > 0);
    assert_eq!(
        on_time_evented, total_evented,
        "engine: every scheduled S5 resume is operational at its waking date"
    );

    let mut ticked = s5_backup_dc(days, 13);
    ticked.run(24 * days as u64);
    let (on_time_ticked, total_ticked) = on_time(&ticked);
    assert!(total_ticked > 0);
    assert_eq!(
        on_time_ticked, 0,
        "legacy fidelity: no S5 resume completes by its waking date"
    );

    // Refinement, not distortion: the variable-interval energy integral
    // stays within a whisker of the per-hour-bucket integral.
    let e = evented.finish().energy_kwh;
    let t = ticked.finish().energy_kwh;
    let gap = (e - t).abs() / t;
    assert!(gap < 0.05, "energy drifted {gap:.3} between fidelities");
}

#[test]
fn high_fidelity_replays_bit_identically_from_a_seed() {
    let run = || {
        let mut dc = s5_backup_dc(4, 21);
        DcEngine::new(&mut dc, EngineConfig::HighFidelity).run_hours(24 * 4);
        let log = dc.wake_log().to_vec();
        let out = dc.finish();
        (out.energy_kwh.to_bits(), log)
    };
    let (e1, log1) = run();
    let (e2, log2) = run();
    assert_eq!(e1, e2);
    assert_eq!(log1, log2);
}

#[test]
fn waking_failover_happens_at_heartbeat_latency_under_the_engine() {
    // Kill the waking module silently at a mid-hour instant: the
    // heartbeat monitor (5 s cadence under high fidelity) replaces it
    // within seconds, so a backup scheduled two hours later is still
    // woken ahead of time — no wake-hit latency, suspension continues.
    let days = 6;
    let mut dc = s5_backup_dc(days, 3);
    let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
    engine.schedule_waking_failure(SimTime::from_hours(24 * 3) + SimDuration::from_minutes(17));
    engine.run_hours(24 * days as u64);
    drop(engine);
    assert_eq!(dc.waking_failovers(), 1, "monitor replaced the dead module");
    let out = dc.finish();
    assert_eq!(out.sla.wake_hits, 0, "scheduled wakes survive the failover");
    assert!(
        out.global_suspended_fraction > 0.6,
        "suspension continues: {}",
        out.global_suspended_fraction
    );
}

#[test]
fn poisson_arrival_plan_drives_sub_hour_churn() {
    // A 4-host LLMI fleet absorbing Poisson SLMU arrivals at true
    // sub-hour instants, with departures scheduled from the same plan.
    let days = 4u64;
    let hosts: Vec<dds_core::spec::HostSpec> = (0..4)
        .map(|i| dds_core::spec::HostSpec::cloud_server(HostId(i), format!("h{i}")))
        .collect();
    let rng = dds_sim_core::SimRng::new(9);
    let vms: Vec<dds_core::spec::VmSpec> = (0..8)
        .map(|i| {
            let r = rng.stream_indexed("llmi", i as u64);
            vm(
                i,
                &format!("llmi{i}"),
                dds_traces::nutanix_trace(1 + (i as usize % 5), (days * 24) as usize, &r),
                dds_core::spec::WorkloadKind::Interactive,
            )
        })
        .collect();
    let placement: Vec<HostId> = (0..8).map(|i| HostId(i % 4)).collect();
    let mut cfg = DcConfig::paper_default();
    cfg.track_colocation = false;
    let policy = PolicyRegistry::standard()
        .build("drowsy-dc", &cfg, None)
        .expect("registered policy");
    let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, placement, 9);

    let mut plan_rng = dds_sim_core::SimRng::new(31);
    let horizon = SimTime::from_hours(days * 24);
    // Keep only jobs whose departure lands inside the run: departure
    // events past the horizon stay pending (documented engine behavior)
    // and would legitimately leave extra live VMs behind.
    let plan: Vec<arrivals::ArrivalEvent> = arrivals::poisson_arrivals(
        SimTime::EPOCH,
        SimDuration::from_days(days),
        3.0,
        Some(SimDuration::from_hours(3)),
        &mut plan_rng,
    )
    .into_iter()
    .filter(|ev| ev.departs_at().expect("finite lifetime") < horizon)
    .collect();
    assert!(!plan.is_empty());

    let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
    for ev in &plan {
        let lifetime = ev.lifetime.expect("plan uses finite lifetimes");
        engine.schedule_arrival(
            ev.at,
            vm(
                0, // overwritten on admission
                "slmu",
                arrivals::slmu_burst_trace("slmu", lifetime),
                dds_core::spec::WorkloadKind::Batch,
            ),
            Some(lifetime),
        );
    }
    engine.run_hours(days * 24);
    let (admitted, rejected) = engine.arrival_stats();
    assert_eq!(
        admitted + rejected,
        plan.len() as u64,
        "every arrival handled"
    );
    assert!(admitted > 0, "fleet has room for some jobs");
    drop(engine);
    assert_eq!(dc.live_vm_count(), 8, "all finite-lifetime jobs departed");
    let out = dc.finish();
    assert!(out.energy_kwh > 0.0);
    assert!(out.global_suspended_fraction >= 0.0);
}
