use super::*;
use dds_traces::{TracePattern, VmTrace};

/// The standard-registry policy `name`, configured from `cfg`.
fn policy(
    name: &str,
    cfg: &DcConfig,
    consolidation_host: Option<HostId>,
) -> Box<dyn ControlPolicy> {
    crate::registry::PolicyRegistry::standard()
        .build(name, cfg, consolidation_host)
        .expect("registered policy")
}

fn two_host_dc(name: &str, traces: Vec<(VmTrace, WorkloadKind)>) -> Datacenter {
    two_host_dc_with(name, traces, DcConfig::paper_default())
}

/// True when `dc` resumed a host ahead of a timer and never for a
/// request: no traffic (packet) wake, whose trigger pays the resume.
fn wakes_are_anticipated(dc: &Datacenter) -> bool {
    let log = dc.wake_log();
    log.iter().any(|w| w.cause == WakeCause::Timer)
        && log.iter().all(|w| w.cause != WakeCause::Traffic)
}

fn two_host_dc_with(name: &str, traces: Vec<(VmTrace, WorkloadKind)>, cfg: DcConfig) -> Datacenter {
    let hosts = vec![
        HostSpec::testbed_machine(HostId(0), "P0"),
        HostSpec::testbed_machine(HostId(1), "P1"),
    ];
    let vms: Vec<VmSpec> = traces
        .into_iter()
        .enumerate()
        .map(|(i, (trace, kind))| {
            VmSpec::testbed_flavor(VmId(i as u32), format!("V{i}"), trace, kind)
        })
        .collect();
    let placement: Vec<HostId> = (0..vms.len()).map(|i| HostId((i % 2) as u32)).collect();
    let policy = policy(name, &cfg, None);
    Datacenter::with_policy(cfg, policy, hosts, vms, placement, 42)
}

fn idle_trace(hours: usize) -> VmTrace {
    VmTrace::idle("idle", hours)
}

fn busy_trace(hours: usize) -> VmTrace {
    VmTrace::new("busy", vec![0.5; hours])
}

#[test]
fn idle_hosts_suspend_and_save_energy() {
    let mut dc = two_host_dc(
        "neat-s3",
        vec![
            (idle_trace(48), WorkloadKind::Interactive),
            (idle_trace(48), WorkloadKind::Interactive),
        ],
    );
    dc.run(48);
    let out = dc.finish();
    assert!(
        out.global_suspended_fraction > 0.9,
        "idle DC suspends: {}",
        out.global_suspended_fraction
    );
    // ≈ 2 hosts × 5 W × 48 h ≈ 0.48 kWh ≪ always-on (4.8 kWh).
    assert!(out.energy_kwh < 1.0, "energy {}", out.energy_kwh);
}

#[test]
fn no_suspend_algorithm_keeps_hosts_on() {
    let mut dc = two_host_dc(
        "neat",
        vec![
            (idle_trace(48), WorkloadKind::Interactive),
            (idle_trace(48), WorkloadKind::Interactive),
        ],
    );
    dc.run(48);
    let out = dc.finish();
    assert_eq!(out.global_suspended_fraction, 0.0);
    // 2 hosts × 50 W × 48 h = 4.8 kWh.
    assert!(
        (out.energy_kwh - 4.8).abs() < 0.2,
        "energy {}",
        out.energy_kwh
    );
}

#[test]
fn busy_hosts_stay_awake() {
    // Two lightly loaded hosts: Neat consolidates the VMs onto one
    // host (underload drain) and sleeps the other — but the loaded
    // host itself never suspends.
    let mut dc = two_host_dc(
        "neat-s3",
        vec![
            (busy_trace(24), WorkloadKind::Interactive),
            (busy_trace(24), WorkloadKind::Interactive),
        ],
    );
    dc.run(24);
    let out = dc.finish();
    let fractions: Vec<f64> = out.suspended_fraction.iter().map(|(_, f)| *f).collect();
    let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = fractions.iter().cloned().fold(0.0f64, f64::max);
    assert!(min < 0.05, "the loaded host never sleeps: {fractions:?}");
    assert!(max > 0.5, "the drained host sleeps: {fractions:?}");
}

#[test]
fn wake_hits_pay_resume_latency() {
    // One VM idle at night, active in day hours — the first request
    // after each idle stretch triggers a wake.
    let mut levels = vec![0.0; 48];
    for d in 0..2 {
        for hh in 9..17 {
            levels[d * 24 + hh] = 0.3;
        }
    }
    let mut cfg = DcConfig::paper_default();
    cfg.stream_qos();
    let mut dc = two_host_dc_with(
        "neat-s3",
        vec![
            (VmTrace::new("day", levels), WorkloadKind::Interactive),
            (idle_trace(48), WorkloadKind::Interactive),
        ],
        cfg,
    );
    dc.run(48);
    let out = dc.finish();
    let qos = out.qos.expect("the run streamed QoS");
    assert!(qos.wake_hits >= 2, "wake hits {}", qos.wake_hits);
    // Quick resume ≈ 800 ms + service: worst wake hit near 860 ms,
    // far over the 200 ms SLA but bounded.
    assert!(qos.worst_wake_ms >= 800);
    assert!(qos.worst_wake_ms <= 1700);
    assert!(qos.sla_attainment() > 0.99, "SLA {}", qos.sla_attainment());
}

#[test]
fn timer_driven_wakes_are_anticipated() {
    // A daily backup VM: the host suspends and is woken by schedule,
    // so no wake-hit latency is recorded.
    let backup = TracePattern::paper_daily_backup().generate(72, &mut SimRng::new(1));
    let mut dc = two_host_dc(
        "neat-s3",
        vec![
            (backup, WorkloadKind::TimerDriven),
            (idle_trace(72), WorkloadKind::Interactive),
        ],
    );
    dc.run(72);
    assert!(wakes_are_anticipated(&dc), "scheduled wakes pay no latency");
    let out = dc.finish();
    // Host 0 still suspended most of the time (23/24 idle hours).
    let f = out.suspended_fraction[0].1;
    assert!(f > 0.8, "suspension fraction {f}");
}

#[test]
fn drowsy_eventually_groups_matching_patterns() {
    // Four VMs on two hosts: two always-idle, two day-active, start
    // interleaved. Drowsy-DC should regroup them within a few days.
    let mut day = vec![0.0; 24 * 7];
    for d in 0..7 {
        for hh in 8..18 {
            day[d * 24 + hh] = 0.4;
        }
    }
    let day_trace = VmTrace::new("day", day);
    let hosts = vec![
        HostSpec::testbed_machine(HostId(0), "P0"),
        HostSpec::testbed_machine(HostId(1), "P1"),
    ];
    let vms = vec![
        VmSpec::testbed_flavor(VmId(0), "V0", day_trace.clone(), WorkloadKind::Interactive),
        VmSpec::testbed_flavor(VmId(1), "V1", idle_trace(24 * 7), WorkloadKind::Interactive),
        VmSpec::testbed_flavor(VmId(2), "V2", day_trace, WorkloadKind::Interactive),
        VmSpec::testbed_flavor(VmId(3), "V3", idle_trace(24 * 7), WorkloadKind::Interactive),
    ];
    // Interleaved: (V0,V1) on P0, (V2,V3) on P1.
    let placement = vec![HostId(0), HostId(0), HostId(1), HostId(1)];
    let cfg = DcConfig::paper_default();
    let policy = policy("drowsy-dc", &cfg, None);
    let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, placement, 7);
    dc.run(24 * 14);
    let out = dc.finish();
    // The two day-active VMs end up colocated (and the idle pair too).
    let day_pair = out.colocation[0][2];
    assert!(
        day_pair > 0.5,
        "day VMs colocated only {:.0}% of the time",
        day_pair * 100.0
    );
    assert!(out.total_migrations() >= 2, "regrouping required moves");
    assert!(
        out.total_migrations() <= 20,
        "placement must stabilize, got {}",
        out.total_migrations()
    );
}

#[test]
fn drowsy_beats_neat_which_beats_no_suspend() {
    // Mixed patterns on two hosts; the canonical energy ordering.
    let mut day = vec![0.0; 24 * 7];
    for d in 0..7 {
        for hh in 8..18 {
            day[d * 24 + hh] = 0.4;
        }
    }
    let day_trace = VmTrace::new("day", day);
    let build = |name: &str| {
        let hosts = vec![
            HostSpec::testbed_machine(HostId(0), "P0"),
            HostSpec::testbed_machine(HostId(1), "P1"),
        ];
        let vms = vec![
            VmSpec::testbed_flavor(VmId(0), "V0", day_trace.clone(), WorkloadKind::Interactive),
            VmSpec::testbed_flavor(VmId(1), "V1", idle_trace(24 * 7), WorkloadKind::Interactive),
            VmSpec::testbed_flavor(VmId(2), "V2", day_trace.clone(), WorkloadKind::Interactive),
            VmSpec::testbed_flavor(VmId(3), "V3", idle_trace(24 * 7), WorkloadKind::Interactive),
        ];
        let placement = vec![HostId(0), HostId(0), HostId(1), HostId(1)];
        let cfg = DcConfig::paper_default();
        let policy = policy(name, &cfg, None);
        Datacenter::with_policy(cfg, policy, hosts, vms, placement, 7)
    };
    let run = |name: &str| {
        let mut dc = build(name);
        dc.run(24 * 14);
        dc.finish().energy_kwh
    };
    let drowsy = run("drowsy-dc");
    let neat_s3 = run("neat-s3");
    let neat = run("neat");
    assert!(
        drowsy < neat_s3,
        "Drowsy ({drowsy}) must beat Neat+S3 ({neat_s3})"
    );
    assert!(
        neat_s3 < neat,
        "Neat+S3 ({neat_s3}) must beat Neat ({neat})"
    );
}

#[test]
fn oasis_parks_idle_vms_and_sleeps_origin_hosts() {
    let hosts = vec![
        HostSpec::testbed_machine(HostId(0), "P0"),
        HostSpec::testbed_machine(HostId(1), "P1"),
        HostSpec::cloud_server(HostId(2), "CONS"),
    ];
    let vms = vec![
        VmSpec::testbed_flavor(VmId(0), "V0", idle_trace(48), WorkloadKind::Interactive),
        VmSpec::testbed_flavor(VmId(1), "V1", idle_trace(48), WorkloadKind::Interactive),
    ];
    let placement = vec![HostId(0), HostId(1)];
    let cfg = DcConfig::paper_default();
    let policy = policy("oasis", &cfg, Some(HostId(2)));
    let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, placement, 3);
    dc.run(48);
    let out = dc.finish();
    // Origin hosts sleep; the consolidation host never does.
    assert!(out.suspended_fraction[0].1 > 0.8);
    assert!(out.suspended_fraction[1].1 > 0.8);
    assert_eq!(out.suspended_fraction[2].1, 0.0);
    assert!(out.total_migrations() >= 2, "both VMs parked");
}

#[test]
fn migrations_are_counted_per_vm() {
    let mut dc = two_host_dc(
        "neat-s3",
        vec![
            (busy_trace(24), WorkloadKind::Interactive),
            (idle_trace(24), WorkloadKind::Interactive),
        ],
    );
    dc.run(24);
    let out = dc.finish();
    let per_vm: u32 = out.migrations.iter().map(|(_, n)| n).sum();
    assert_eq!(per_vm, out.total_migrations());
}

#[test]
fn admitted_vm_lands_on_matching_host() {
    // Two hosts: one with an idle-pattern pair, one with busy VMs.
    // Train long enough that scores separate, then admit a new VM:
    // Drowsy's weigher must put the (undetermined) newcomer on the
    // host closest to score 0... which after training is the busier
    // host (negative mean score closer to 0 than the strongly idle
    // pair). The paper: average-IP hosts "serve as initial hosts for
    // newly scheduled VMs".
    let mut dc = two_host_dc(
        "drowsy-dc",
        vec![
            (idle_trace(24 * 10), WorkloadKind::Interactive),
            (busy_trace(24 * 10), WorkloadKind::Interactive),
        ],
    );
    dc.run(24 * 5);
    let n0 = dc.live_vm_count();
    let spec = VmSpec::testbed_flavor(
        VmId(0), // overwritten by admit_vm
        "newcomer",
        VmTrace::idle("fresh", 24),
        WorkloadKind::Interactive,
    );
    let dest = dc.admit_vm(spec).expect("capacity available");
    assert_eq!(dc.live_vm_count(), n0 + 1);
    // The destination actually holds the VM.
    let placement = dc.debug_placement();
    assert_eq!(
        placement
            .last()
            .expect("placement list covers the admitted VM")
            .1,
        dest
    );
    // Simulation keeps running with the newcomer.
    dc.run(24);
    let out = dc.finish();
    assert_eq!(out.migrations.len(), 3);
}

#[test]
fn colocation_matrix_exists_only_when_tracked() {
    // Untracked runs never allocate the VM×VM matrix, admissions
    // included, and the outcome leaves it empty; tracking it must not
    // perturb the physics.
    let run = |track: bool| {
        let mut cfg = DcConfig::paper_default();
        cfg.track_colocation = track;
        let hosts = vec![
            HostSpec::testbed_machine(HostId(0), "P0"),
            HostSpec::testbed_machine(HostId(1), "P1"),
        ];
        let vms = vec![
            VmSpec::testbed_flavor(VmId(0), "V0", busy_trace(48), WorkloadKind::Interactive),
            VmSpec::testbed_flavor(VmId(1), "V1", idle_trace(48), WorkloadKind::Interactive),
        ];
        let policy = policy("drowsy-dc", &cfg, None);
        let mut dc =
            Datacenter::with_policy(cfg, policy, hosts, vms, vec![HostId(0), HostId(1)], 4);
        dc.run(24);
        let newcomer =
            VmSpec::testbed_flavor(VmId(0), "V2", idle_trace(24), WorkloadKind::Interactive);
        dc.admit_vm(newcomer).expect("capacity available");
        dc.run(24);
        dc.finish()
    };
    let untracked = run(false);
    assert!(untracked.colocation.is_empty());
    let tracked = run(true);
    assert_eq!(tracked.colocation.len(), 3);
    assert!(tracked.colocation.iter().all(|row| row.len() == 3));
    assert_eq!(tracked.colocation[0][0], 1.0, "resident every hour");
    assert_eq!(tracked.colocation[2][2], 0.5, "admitted half-way");
    assert_eq!(untracked.energy_kwh.to_bits(), tracked.energy_kwh.to_bits());
}

#[test]
fn admission_fails_when_full() {
    // Two 2-slot hosts already hold 4 VMs.
    let mut dc = two_host_dc(
        "neat-s3",
        vec![
            (busy_trace(24), WorkloadKind::Interactive),
            (busy_trace(24), WorkloadKind::Interactive),
            (busy_trace(24), WorkloadKind::Interactive),
            (busy_trace(24), WorkloadKind::Interactive),
        ],
    );
    let spec = VmSpec::testbed_flavor(
        VmId(0),
        "overflow",
        VmTrace::idle("x", 24),
        WorkloadKind::Interactive,
    );
    assert_eq!(dc.admit_vm(spec).unwrap_err(), AdmitError::NoHostFits);
    assert_eq!(
        format!("{}", AdmitError::NoHostFits),
        "no host passes the placement filters"
    );
}

#[test]
fn removed_vm_frees_capacity_and_stops_counting() {
    let mut dc = two_host_dc(
        "neat-s3",
        vec![
            (busy_trace(24 * 4), WorkloadKind::Interactive),
            (busy_trace(24 * 4), WorkloadKind::Interactive),
        ],
    );
    dc.run(24);
    assert!(dc.remove_vm(VmId(0)));
    assert!(!dc.remove_vm(VmId(0)), "double remove is a no-op");
    assert!(!dc.remove_vm(VmId(99)), "unknown VM");
    assert_eq!(dc.live_vm_count(), 1);
    dc.run(24 * 3);
    let out = dc.finish();
    // The departed VM's host eventually sleeps (no residents).
    let max = out
        .suspended_fraction
        .iter()
        .map(|(_, f)| *f)
        .fold(0.0f64, f64::max);
    assert!(max > 0.4, "freed host sleeps: {:?}", out.suspended_fraction);
}

#[test]
fn slmu_lifecycle_admit_run_depart() {
    // Churn: admit a batch VM mid-run, let it finish, remove it; the
    // fleet keeps functioning and the energy accounting stays sane.
    let mut dc = two_host_dc(
        "drowsy-dc",
        vec![(idle_trace(24 * 6), WorkloadKind::Interactive)],
    );
    dc.run(24);
    let batch = VmSpec::testbed_flavor(
        VmId(0),
        "mapreduce",
        VmTrace::new("burst", vec![1.0; 12]),
        WorkloadKind::Batch,
    );
    let id = VmId(dc.live_vm_count() as u32);
    dc.admit_vm(batch).expect("admission succeeds mid-run");
    dc.run(24);
    assert!(dc.remove_vm(id));
    dc.run(24 * 4);
    let out = dc.finish();
    assert!(out.energy_kwh > 0.0);
    assert!(out.global_suspended_fraction > 0.3);
}

#[test]
fn waking_module_failure_mid_run_is_survivable() {
    // Kill the waking module halfway: scheduled wakes and drowsy-host
    // state must survive the failover, so the outcome still shows
    // deep suspension and anticipated timer wakes.
    let backup = TracePattern::paper_daily_backup().generate(24 * 6, &mut SimRng::new(2));
    let hosts = vec![
        HostSpec::testbed_machine(HostId(0), "P0"),
        HostSpec::testbed_machine(HostId(1), "P1"),
    ];
    let vms = vec![
        VmSpec::testbed_flavor(VmId(0), "bk", backup, WorkloadKind::TimerDriven),
        VmSpec::testbed_flavor(
            VmId(1),
            "idle",
            idle_trace(24 * 6),
            WorkloadKind::Interactive,
        ),
    ];
    let cfg = DcConfig::paper_default();
    let policy = policy("neat-s3", &cfg, None);
    let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, vec![HostId(0), HostId(1)], 3);
    dc.run(24 * 3);
    dc.inject_waking_failure();
    assert_eq!(dc.waking_failovers(), 1);
    dc.run(24 * 3);
    assert!(wakes_are_anticipated(&dc), "timer wakes still anticipated");
    let out = dc.finish();
    assert!(out.global_suspended_fraction > 0.7, "suspension continues");
}

#[test]
fn energy_is_bounded_by_physical_envelope() {
    // For arbitrary bursty traces the metered energy must sit between
    // the all-suspended floor and the all-awake-at-peak ceiling.
    let mut rng = SimRng::new(21);
    for seed in 0..5u64 {
        let t0 = TracePattern::RandomBursts {
            duty: rng.unit() * 0.8,
            intensity: 0.7,
        }
        .generate(24 * 4, &mut SimRng::new(seed));
        let t1 = TracePattern::RandomBursts {
            duty: rng.unit() * 0.8,
            intensity: 0.7,
        }
        .generate(24 * 4, &mut SimRng::new(seed + 100));
        let mut dc = two_host_dc(
            "drowsy-dc",
            vec![
                (t0, WorkloadKind::Interactive),
                (t1, WorkloadKind::Interactive),
            ],
        );
        dc.run(24 * 4);
        let out = dc.finish();
        let hours = 24.0 * 4.0;
        let floor = 2.0 * 5.0 * hours / 1000.0; // both hosts in S3
        let ceiling = 2.0 * 120.0 * hours / 1000.0; // both at peak
        assert!(
            out.energy_kwh >= floor,
            "seed {seed}: {} < {floor}",
            out.energy_kwh
        );
        assert!(
            out.energy_kwh <= ceiling,
            "seed {seed}: {} > {ceiling}",
            out.energy_kwh
        );
    }
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut dc = two_host_dc(
            "drowsy-dc",
            vec![
                (busy_trace(48), WorkloadKind::Interactive),
                (idle_trace(48), WorkloadKind::Interactive),
            ],
        );
        dc.run(48);
        let o = dc.finish();
        (
            o.energy_kwh,
            o.total_migrations(),
            o.global_suspended_fraction,
        )
    };
    assert_eq!(run(), run());
}

// --- policy-layer seams -------------------------------------------------

fn sleepscale_dc(traces: Vec<(VmTrace, WorkloadKind)>, seed: u64) -> Datacenter {
    let hosts = vec![
        HostSpec::testbed_machine(HostId(0), "P0"),
        HostSpec::testbed_machine(HostId(1), "P1"),
    ];
    let vms: Vec<VmSpec> = traces
        .into_iter()
        .enumerate()
        .map(|(i, (trace, kind))| {
            VmSpec::testbed_flavor(VmId(i as u32), format!("V{i}"), trace, kind)
        })
        .collect();
    let placement: Vec<HostId> = (0..vms.len()).map(|i| HostId((i % 2) as u32)).collect();
    let cfg = DcConfig::paper_default();
    let policy = policy("sleepscale", &cfg, None);
    Datacenter::with_policy(cfg, policy, hosts, vms, placement, seed)
}

#[test]
fn sleepscale_downclocks_active_hosts() {
    // A lightly loaded always-active pair: SleepScale's speed scaling
    // must beat the full-clock Neat+S3 baseline on energy (same packing,
    // strictly less dynamic power), while staying above the S3 floor.
    let run_policy = |sleepscale: bool| {
        let hosts = vec![
            HostSpec::testbed_machine(HostId(0), "P0"),
            HostSpec::testbed_machine(HostId(1), "P1"),
        ];
        let vms = vec![
            VmSpec::testbed_flavor(VmId(0), "V0", busy_trace(96), WorkloadKind::Interactive),
            VmSpec::testbed_flavor(VmId(1), "V1", busy_trace(96), WorkloadKind::Interactive),
        ];
        let placement = vec![HostId(0), HostId(1)];
        let cfg = DcConfig::paper_default();
        let policy = policy(
            if sleepscale { "sleepscale" } else { "neat-s3" },
            &cfg,
            None,
        );
        let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, placement, 5);
        dc.run(96);
        dc.finish()
    };
    let scaled = run_policy(true);
    let nominal = run_policy(false);
    assert_eq!(scaled.policy, "SleepScale");
    assert!(
        scaled.energy_kwh < nominal.energy_kwh,
        "speed scaling must save energy: {} vs {}",
        scaled.energy_kwh,
        nominal.energy_kwh
    );
}

#[test]
fn sleepscale_sends_long_idle_hosts_to_s5() {
    // Two always-idle VMs with no timers: once the idleness models are
    // confident, SleepScale parks the hosts in S5 (1 W) instead of S3
    // (5 W), so it must undercut the Drowsy-DC baseline on energy while
    // reporting the same deep low-power fraction.
    let days = 6;
    let mut dc = sleepscale_dc(
        vec![
            (idle_trace(24 * days), WorkloadKind::Interactive),
            (idle_trace(24 * days), WorkloadKind::Interactive),
        ],
        9,
    );
    dc.run(24 * days as u64);
    let sleepscale = dc.finish();
    let mut dc = two_host_dc(
        "drowsy-dc",
        vec![
            (idle_trace(24 * days), WorkloadKind::Interactive),
            (idle_trace(24 * days), WorkloadKind::Interactive),
        ],
    );
    dc.run(24 * days as u64);
    let drowsy = dc.finish();
    assert!(
        sleepscale.global_suspended_fraction > 0.9,
        "S5 time counts as low-power: {}",
        sleepscale.global_suspended_fraction
    );
    assert!(
        sleepscale.energy_kwh < drowsy.energy_kwh,
        "S5 must undercut S3: {} vs {}",
        sleepscale.energy_kwh,
        drowsy.energy_kwh
    );
}

#[test]
fn power_timelines_and_placement_log_export_when_tracked() {
    let mk = |track: bool| {
        let hosts = vec![
            HostSpec::testbed_machine(HostId(0), "P0"),
            HostSpec::testbed_machine(HostId(1), "P1"),
        ];
        let busy = TracePattern::RandomBursts {
            duty: 0.3,
            intensity: 0.6,
        }
        .generate(48, &mut SimRng::new(9));
        let vms = vec![
            VmSpec::testbed_flavor(VmId(0), "V0", busy, WorkloadKind::Interactive),
            VmSpec::testbed_flavor(VmId(1), "V1", idle_trace(48), WorkloadKind::Interactive),
        ];
        let mut cfg = DcConfig::paper_default();
        cfg.track_power_timeline = track;
        let policy = policy("drowsy-dc", &cfg, None);
        Datacenter::with_policy(cfg, policy, hosts, vms, vec![HostId(0), HostId(1)], 42)
    };
    // Untracked: the outcome carries no timelines and no placement log.
    let mut dc = mk(false);
    dc.run(48);
    let out = dc.finish();
    assert!(out.timelines.is_empty());
    assert!(out.placements.is_empty());

    // Tracked: one timeline per host, covering the full run exactly, and
    // a placement log starting with the initial assignment of every VM.
    let mut dc = mk(true);
    dc.run(48);
    let wakes: Vec<WakeRecord> = dc.wake_log().to_vec();
    let energy_untracked = out.energy_kwh;
    let out = dc.finish();
    assert_eq!(
        out.energy_kwh.to_bits(),
        energy_untracked.to_bits(),
        "timeline recording must not perturb the physics"
    );
    assert_eq!(out.timelines.len(), 2);
    for tl in &out.timelines {
        assert_eq!(tl.start(), Some(SimTime::EPOCH));
        assert_eq!(tl.end(), Some(SimTime::from_hours(48)));
    }
    // The busy host cycled through suspend/resume; its timeline shows
    // low-power spans and matching resume windows.
    let any_parked = out
        .timelines
        .iter()
        .any(|tl| !tl.time_in(|s| s.is_low_power()).is_zero());
    assert!(any_parked, "a drowsy run parks hosts");
    assert!(out.placements.len() >= 2, "initial placement recorded");
    assert_eq!(out.placements[0].vm, VmId(0));
    assert_eq!(out.placements[0].at, SimTime::EPOCH);
    assert_eq!(out.placements[1].vm, VmId(1));
    assert!(out.placements.iter().all(|p| p.host.index() < 2));
    // Every wake in the log appears in its host's timeline as a resume
    // window: parked right before the wake starts, resuming from its
    // start, and operational again exactly at its operational instant.
    assert!(!wakes.is_empty(), "the bursty VM triggered wakes");
    let ms = SimDuration::from_millis(1);
    for w in &wakes {
        let tl = &out.timelines[w.host.index()];
        assert!(
            tl.state_at(w.started - ms)
                .is_some_and(|s| s.is_low_power()),
            "the host was parked until the wake at {}",
            w.started
        );
        assert_eq!(
            tl.state_at(w.started),
            Some(PowerState::Resuming),
            "wake at {} is a resume span",
            w.started
        );
        assert_eq!(
            tl.state_at(w.operational - ms),
            Some(PowerState::Resuming),
            "the resume runs until the logged operational instant"
        );
        assert_eq!(
            tl.operational_from(w.started),
            Some(w.operational),
            "resume completes at the logged operational instant"
        );
    }
}

#[test]
fn sleepscale_timer_wakes_from_s5_are_still_anticipated() {
    // A daily backup with a >4 h gap: SleepScale chooses S5, and the
    // waking module still resumes the host ahead of the timer.
    let backup = TracePattern::paper_daily_backup().generate(24 * 5, &mut SimRng::new(4));
    let mut dc = sleepscale_dc(
        vec![
            (backup, WorkloadKind::TimerDriven),
            (idle_trace(24 * 5), WorkloadKind::Interactive),
        ],
        13,
    );
    dc.run(24 * 5);
    assert!(wakes_are_anticipated(&dc), "scheduled wakes pay no latency");
    let out = dc.finish();
    assert!(
        out.global_suspended_fraction > 0.7,
        "hosts sleep deeply: {}",
        out.global_suspended_fraction
    );
}

#[test]
fn wake_log_carries_epoch_and_cause() {
    // A bursty interactive VM forces packet (traffic) wakes; a
    // timer-driven one gets anticipated wakes. Every record is tagged
    // with the hour it happened in and why the host resumed.
    let busy = TracePattern::RandomBursts {
        duty: 0.3,
        intensity: 0.6,
    }
    .generate(72, &mut SimRng::new(9));
    let nightly = TracePattern::paper_daily_backup().generate(72, &mut SimRng::new(5));
    let mut dc = two_host_dc(
        "drowsy-dc",
        vec![
            (busy, WorkloadKind::Interactive),
            (nightly, WorkloadKind::TimerDriven),
        ],
    );
    dc.run(72);
    let wakes = dc.wake_log().to_vec();
    assert!(!wakes.is_empty(), "the bursty VM triggered wakes");
    for w in &wakes {
        assert!(w.epoch < 72, "epoch {} out of horizon", w.epoch);
        // The record's instants sit inside (or at the boundary of) its
        // tagged control epoch.
        assert!(w.started >= SimTime::from_hours(w.epoch));
        assert!(w.started < SimTime::from_hours(w.epoch + 1));
        // …and completes by its end (the traffic-wake headroom clamp), so
        // no request of a later epoch waits on it.
        assert!(w.operational <= SimTime::from_hours(w.epoch + 1));
    }
    assert!(
        wakes.iter().any(|w| w.cause == WakeCause::Traffic),
        "bursty interactive load produces traffic wakes"
    );
    let labels: std::collections::HashSet<&str> = wakes.iter().map(|w| w.cause.label()).collect();
    assert!(labels.iter().all(|l| !l.is_empty()));
}

impl Datacenter {
    /// Test oracle for the residency lists: each host's list equals the
    /// all-VM filter it replaced — `host == h && !departed`, in VM order.
    fn assert_residency_mirrors_vms(&self) {
        for (h, list) in self.residents.iter().enumerate() {
            let want: Vec<usize> = self
                .vms
                .iter()
                .enumerate()
                .filter(|(_, v)| v.host.index() == h && !v.departed)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                list, &want,
                "host {h}'s resident list at hour {}",
                self.hour
            );
        }
    }
}

/// True when two VMs traded hosts between placements `a` and `b`.
fn saw_swap(a: &[(VmId, HostId)], b: &[(VmId, HostId)]) -> bool {
    let moved: Vec<(HostId, HostId)> = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, y)| (x.1, y.1))
        .collect();
    moved.iter().any(|&(from, to)| moved.contains(&(to, from)))
}

#[test]
fn residency_lists_mirror_vms_through_churn_migrations_and_swaps() {
    // The paper's packed testbed (swaps are the only way to regroup its
    // full hosts) plus one spare machine, on the high-fidelity engine
    // with mid-hour arrivals and departures.
    let spec = crate::testbed::TestbedSpec {
        days: 4,
        ..crate::testbed::TestbedSpec::paper_default()
    };
    let mut hosts = spec.host_specs();
    hosts.push(HostSpec::testbed_machine(HostId(4), "P6"));
    let placement = spec
        .initial_placement
        .iter()
        .map(|&i| HostId(i as u32))
        .collect();
    let cfg = DcConfig::paper_default();
    let policy = policy("drowsy-dc", &cfg, None);
    let mut dc = Datacenter::with_policy(cfg, policy, hosts, spec.vm_specs(42), placement, 42);
    let batch = |name: &str| {
        VmSpec::testbed_flavor(
            VmId(0),
            name,
            VmTrace::new("burst", vec![1.0; 96]),
            WorkloadKind::Batch,
        )
    };
    let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
    engine.schedule_arrival(
        SimTime::from_hours(12) + SimDuration::from_minutes(17),
        batch("job-a"),
        Some(SimDuration::from_hours(20)),
    );
    engine.schedule_departure(
        SimTime::from_hours(30) + SimDuration::from_minutes(10),
        VmId(4),
    );
    engine.schedule_arrival(
        SimTime::from_hours(50) + SimDuration::from_minutes(5),
        batch("job-b"),
        None,
    );
    let (mut swaps, mut moves) = (0, 0);
    for _ in 0..spec.days * 24 {
        let before = engine.dc().debug_placement();
        engine.run_hours(1);
        engine.dc().assert_residency_mirrors_vms();
        let after = engine.dc().debug_placement();
        swaps += usize::from(saw_swap(&before, &after));
        moves += before
            .iter()
            .zip(&after)
            .filter(|(a, b)| a.1 != b.1)
            .count();
    }
    assert_eq!(engine.arrival_stats(), (2, 0));
    drop(engine);
    assert_eq!(
        dc.live_vm_count(),
        8,
        "8 initial + 2 arrivals - 2 departures"
    );
    assert!(moves > 0 && swaps > 0, "moves {moves}, swap hours {swaps}");
}

#[test]
fn residency_lists_mirror_vms_through_oasis_parking() {
    let hosts = vec![
        HostSpec::testbed_machine(HostId(0), "P0"),
        HostSpec::testbed_machine(HostId(1), "P1"),
        HostSpec::cloud_server(HostId(2), "CONS"),
    ];
    let mut day = vec![0.0; 72];
    for (h, level) in day.iter_mut().enumerate() {
        if (8..18).contains(&(h % 24)) {
            *level = 0.4;
        }
    }
    let vms = vec![
        VmSpec::testbed_flavor(VmId(0), "V0", idle_trace(72), WorkloadKind::Interactive),
        VmSpec::testbed_flavor(
            VmId(1),
            "V1",
            VmTrace::new("day", day.clone()),
            WorkloadKind::Interactive,
        ),
        VmSpec::testbed_flavor(
            VmId(2),
            "V2",
            VmTrace::new("day", day),
            WorkloadKind::Interactive,
        ),
    ];
    let placement = vec![HostId(0), HostId(1), HostId(0)];
    let cfg = DcConfig::paper_default();
    let policy = policy("oasis", &cfg, Some(HostId(2)));
    let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, placement, 3);
    let (mut parks, mut unparks) = (0, 0);
    for _ in 0..72 {
        let before: Vec<bool> = dc.vms.iter().map(|v| v.parked).collect();
        dc.run(1);
        dc.assert_residency_mirrors_vms();
        for (was, v) in before.iter().zip(&dc.vms) {
            parks += usize::from(!was && v.parked);
            unparks += usize::from(*was && !v.parked);
        }
    }
    assert!(parks > 0 && unparks > 0, "parks {parks}, unparks {unparks}");
}
