//! End-to-end tests of request-level QoS: scenario → run with the
//! streaming pipeline (`DcConfig::qos_stream`) → `QosReport`, plus the
//! determinism and SLA-shape contracts the `qos` binary reports on.

use drowsy_dc::power::WakeSpeed;
use drowsy_dc::prelude::*;
use drowsy_dc::scenarios::{find, QosSpec};
use drowsy_dc::system::spec::WorkloadKind;
use drowsy_dc::traces::{hour_request_rng, RequestGenerator, RequestProfile};

/// The CI-sized SLA scenario: the catalog entry with days cut down.
fn sla_scenario(days: u64) -> Scenario {
    let mut s = find("sla-web-front").expect("catalog entry ships");
    s.days = days;
    s
}

#[test]
fn scenario_with_qos_section_yields_reports_end_to_end() {
    let s = sla_scenario(2);
    let results = run_scenario_qos(&s, None, 0);
    assert_eq!(results.len(), s.policies.len());
    for (out, qos) in &results {
        assert!(out.outcome.energy_kwh() > 0.0, "{}", out.label);
        assert!(qos.total > 10_000, "{}: requests flowed", out.label);
        assert_eq!(qos.unserved, 0, "{}: every request served", out.label);
        assert_eq!(qos.sla_ms, 200, "the [qos] section's threshold applies");
        // Internal consistency: violations partition into wake vs queue.
        assert_eq!(
            qos.violations(),
            qos.wake_violations + qos.queue_violations,
            "{}",
            out.label
        );
        assert_eq!(qos.latencies.count(), qos.total);
    }
}

#[test]
fn always_awake_fleet_meets_the_papers_sla_and_drowsy_shows_the_wake_tail() {
    // The §VI.A claim, reproduced: >99 % of requests within 200 ms on the
    // always-awake fleet; the suspending policies pay the resume latency
    // in the far tail while spending a fraction of the energy.
    let s = sla_scenario(3);
    let results = run_scenario_qos(&s, None, 0);
    let by_policy = |name: &str| {
        results
            .iter()
            .find(|(o, _)| o.policy == name)
            .unwrap_or_else(|| panic!("policy {name} in scenario"))
    };
    let (awake_out, awake_qos) = by_policy("neat");
    assert!(
        awake_qos.sla_attainment() >= 0.99,
        "always-awake SLA attainment {}",
        awake_qos.sla_attainment()
    );
    assert_eq!(awake_qos.wake_hits, 0, "always-on hosts never wake");
    assert!(
        awake_qos.p999().expect("requests flowed") < 400.0,
        "no wake tail on the awake fleet: {:?}",
        awake_qos.p999()
    );

    let (drowsy_out, drowsy_qos) = by_policy("drowsy-dc");
    assert!(
        drowsy_out.outcome.energy_kwh() < awake_out.outcome.energy_kwh() * 0.5,
        "drowsy energy {} vs awake {}",
        drowsy_out.outcome.energy_kwh(),
        awake_out.outcome.energy_kwh()
    );
    assert!(
        drowsy_qos.sla_attainment() >= 0.99,
        "drowsy still meets the paper's 99 % bar: {}",
        drowsy_qos.sla_attainment()
    );
    assert!(drowsy_qos.wake_hits > 0, "parked hosts produce wake hits");
    assert!(
        drowsy_qos.wake_violations > 0,
        "wake latencies breach the 200 ms SLA"
    );
    // The quick-resume tail: p99.9 reflects the ≈800 ms resume latency.
    let p999 = drowsy_qos.p999().expect("requests flowed");
    assert!(
        (800.0..2000.0).contains(&p999),
        "p99.9 {p999} reflects the quick resume"
    );
}

#[test]
fn every_request_arrives_while_its_host_is_awake_or_resuming() {
    // §V hold-and-release: the request that wakes a parked host is the
    // first one sent to it, so no request of an active interactive VM
    // reaches a host the meter still has in S3 or S5. At the catalog's
    // 0.1 rps peak, requests of `sla-web-front` fall seconds apart: a
    // wake drawn apart from the requests would start after some of them.
    let s = sla_scenario(2);
    let qos = s.qos.clone().expect("sla-web-front carries [qos]");
    assert_eq!(qos.profile.peak_rps, 0.1, "the catalog request profile");
    assert_eq!(qos.wake, WakeSpeed::Quick);
    let mut spec = s.to_cluster_spec();
    spec.config.track_power_timeline = true;
    let out = run_cluster_policy(&spec, "drowsy-dc", s.seed).dc;
    assert!(out.global_suspended_fraction > 0.3, "hosts park");
    let noise = spec.config.im.noise_threshold;
    let (mut requests, mut while_resuming) = (0u64, 0u64);
    for vm in spec.vm_specs(s.seed) {
        if vm.kind != WorkloadKind::Interactive {
            continue;
        }
        let moves: Vec<(SimTime, HostId)> = out
            .placements
            .iter()
            .filter(|p| p.vm == vm.id)
            .map(|p| (p.at, p.host))
            .collect();
        for hour in 0..out.hours {
            if vm.trace.level_at_hour(hour) < noise {
                continue;
            }
            // The hour's requests, drawn by the sequential reference
            // client on the VM-hour's own stream.
            let rng = hour_request_rng(s.seed, vm.id.index() as u64, hour);
            let mut client = RequestGenerator::new(vm.trace.clone(), qos.profile.clone(), rng);
            for arrival in client.arrivals_in_hour(hour) {
                let seat = moves.partition_point(|&(at, _)| at <= arrival);
                let host = moves[seat - 1].1;
                let state = out.timelines[host.index()].state_at(arrival);
                assert!(
                    matches!(state, Some(PowerState::Active | PowerState::Resuming)),
                    "{} at {arrival}: request reached host {host} in {state:?}",
                    vm.name
                );
                requests += 1;
                while_resuming += u64::from(state == Some(PowerState::Resuming));
            }
        }
    }
    assert!(requests > 10_000, "requests checked: {requests}");
    assert!(while_resuming > 0, "some requests waited on a resume");
}

#[test]
fn stock_resume_shifts_the_tail_to_1500ms() {
    let mut s = sla_scenario(3);
    let qos = s.qos.clone().expect("sla-web-front carries [qos]");
    s.qos = Some(QosSpec {
        profile: RequestProfile {
            resume_latency: drowsy_dc_resume_stock(),
            ..qos.profile
        },
        wake: WakeSpeed::Normal,
    });
    let results = run_scenario_qos(&s, None, 0);
    let (_, drowsy) = results
        .iter()
        .find(|(o, _)| o.policy == "drowsy-dc")
        .expect("drowsy-dc in scenario");
    let p999 = drowsy.p999().expect("requests flowed");
    assert!(
        (1500.0..3000.0).contains(&p999),
        "stock-resume p99.9 {p999} reflects the ≈1500 ms path"
    );
    assert!(drowsy.worst_wake_ms >= 1500);
}

/// The stock resume expectation (kept as a helper so the test reads at
/// the paper's numbers).
fn drowsy_dc_resume_stock() -> SimDuration {
    SimDuration::from_millis(1500)
}

#[test]
fn qos_reports_are_bit_identical_across_thread_counts_and_replays() {
    let s = sla_scenario(2);
    let serial = run_scenario_qos(&s, None, 1);
    let parallel = run_scenario_qos(&s, None, 4);
    let auto = run_scenario_qos(&s, None, 0);
    assert_eq!(serial.len(), parallel.len());
    for ((a_out, a_qos), ((b_out, b_qos), (c_out, c_qos))) in
        serial.iter().zip(parallel.iter().zip(&auto))
    {
        assert_eq!(a_out.policy, b_out.policy);
        assert_eq!(
            a_out.outcome.energy_kwh().to_bits(),
            b_out.outcome.energy_kwh().to_bits(),
            "{}: energy is thread-invariant",
            a_out.policy
        );
        assert_eq!(a_qos, b_qos, "{}: 1-vs-4 threads", a_out.policy);
        assert_eq!(a_qos, c_qos, "{}: 1-vs-auto threads", c_out.policy);
        assert_eq!(
            c_out.outcome.energy_kwh().to_bits(),
            a_out.outcome.energy_kwh().to_bits()
        );
    }
}

#[test]
fn cluster_level_qos_pairs_energy_with_latency() {
    // The non-scenario entry point: one cluster point, energy + QoS.
    let mut spec = ClusterSpec::paper_default(0.8);
    spec.hosts = 4;
    spec.vms = 12;
    spec.days = 2;
    let profile = RequestProfile {
        peak_rps: 0.5,
        ..RequestProfile::web_search_quick_resume()
    };
    spec.config.qos_stream = Some(QosStreamConfig::serial(profile));
    let outcome = run_cluster_policy(&spec, "drowsy-dc", 42);
    let report = outcome.dc.qos.clone().expect("the run streamed QoS");
    assert!(outcome.energy_kwh() > 0.0);
    assert!(report.total > 0);
    // Running the same point twice is a pure function.
    let outcome2 = run_cluster_policy(&spec, "drowsy-dc", 42);
    assert_eq!(
        outcome.energy_kwh().to_bits(),
        outcome2.energy_kwh().to_bits()
    );
    assert_eq!(Some(report), outcome2.dc.qos);
}

#[test]
fn bad_qos_sections_fail_with_line_numbers() {
    let base = "\
[scenario]
name = qos-check
summary = qos validation
days = 1
policies = drowsy-dc

[qos]
peak-rps = 1

[fleet.box]
count = 2
cores = 8
ram-mb = 16384

[workload.idle]
pattern = always-idle
count = 2
vcpus = 2
ram-mb = 6144
";
    assert!(Scenario::parse(base).is_ok(), "the base text is valid");
    let cases = [
        ("peak-rps = 1", "latency-budget = 5", 8, "unknown key"),
        ("peak-rps = 1", "wake = warp", 8, "quick or stock"),
        ("peak-rps = 1", "sla-ms = 0", 8, "must be positive"),
        ("[qos]", "[qos.web]", 7, "takes no name"),
    ];
    for (from, to, line, needle) in cases {
        let err = Scenario::parse(&base.replace(from, to)).unwrap_err();
        assert_eq!(err.line, line, "{to}: {err}");
        assert!(err.message.contains(needle), "{to}: {err}");
        assert!(err.to_string().starts_with(&format!("line {line}:")));
    }
}
