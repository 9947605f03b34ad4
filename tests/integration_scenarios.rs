//! End-to-end tests of the scenario layer: catalog execution, the
//! 1-vs-N-thread determinism contract, heterogeneous fleet physics and
//! line-numbered rejection of malformed scenario text — all through the
//! `drowsy_dc` façade, as a downstream user would drive it.

use drowsy_dc::scenarios::{catalog, find, run_scenario, Scenario};
use drowsy_dc::system::datacenter::EngineConfig;

fn shrunk(name: &str, days: u64) -> Scenario {
    let mut s = find(name).unwrap_or_else(|| panic!("catalog entry '{name}'"));
    s.days = days;
    s
}

#[test]
fn same_scenario_and_seed_is_bit_identical_across_thread_counts() {
    // The satellite contract: scenario + seed ⇒ the same bits whether the
    // sweep runs serially or fanned out.
    let s = shrunk("flash-crowd-front", 2);
    let serial = run_scenario(&s, None, 1);
    let parallel = run_scenario(&s, None, 4);
    assert_eq!(serial.len(), s.policies.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(
            a.outcome.energy_kwh().to_bits(),
            b.outcome.energy_kwh().to_bits(),
            "{}: energy must not depend on scheduling",
            a.policy
        );
        assert_eq!(
            a.outcome.suspension().to_bits(),
            b.outcome.suspension().to_bits()
        );
        assert_eq!(
            a.outcome.dc.total_migrations(),
            b.outcome.dc.total_migrations()
        );
    }
    // And replaying the serial run reproduces it exactly.
    let replay = run_scenario(&s, None, 1);
    for (a, b) in serial.iter().zip(&replay) {
        assert_eq!(
            a.outcome.energy_kwh().to_bits(),
            b.outcome.energy_kwh().to_bits()
        );
    }
}

#[test]
fn every_catalog_scenario_runs_its_first_policy() {
    for entry in catalog() {
        let mut s = entry.clone();
        s.days = 1;
        s.policies.truncate(1);
        let out = run_scenario(&s, None, 0);
        assert_eq!(out.len(), 1, "{}", s.name);
        assert!(
            out[0].outcome.energy_kwh() > 0.0,
            "{}: energy must be positive",
            s.name
        );
        assert_eq!(out[0].policy, entry.policies[0], "{}", s.name);
    }
}

#[test]
fn heterogeneous_fleet_attaches_per_class_power_models() {
    let s = find("green-hetero").expect("catalog entry");
    assert_eq!(s.fleet.len(), 2, "two host classes");
    let spec = s.to_cluster_spec();
    assert_eq!(spec.fleet.len(), s.host_count());
    // The first six hosts are the performance class, the rest eco.
    let perf = spec.fleet[0].power.as_ref().expect("perf class model");
    let eco = spec.fleet[6].power.as_ref().expect("eco class model");
    assert_eq!(perf.idle_watts, 80.0);
    assert_eq!(eco.idle_watts, 18.0);
    assert!(
        eco.timings.resume_quick > perf.timings.resume_quick,
        "eco hosts wake slower"
    );
    // Physics: the same scenario on an all-stock fleet burns more energy
    // than with the eco class's cheap hosts in the mix.
    let mut stock = s.clone();
    stock.days = 2;
    let mut eco_run = stock.clone();
    for class in &mut stock.fleet {
        class.power = None;
    }
    stock.policies = vec!["neat".into()]; // always-on isolates the draw model
    eco_run.policies = vec!["neat".into()];
    let a = run_scenario(&stock, None, 0)[0].outcome.energy_kwh();
    let b = run_scenario(&eco_run, None, 0)[0].outcome.energy_kwh();
    assert!(b < a, "eco fleet {b} must undercut stock fleet {a}");
}

#[test]
fn high_fidelity_mode_flows_through_to_the_engine() {
    let s = shrunk("hifi-flash", 1);
    assert_eq!(s.mode, EngineConfig::HighFidelity);
    let spec = s.to_cluster_spec();
    assert_eq!(
        spec.engine,
        EngineConfig::HighFidelity,
        "sub-hour events on"
    );
    let out = run_scenario(&s, None, 0);
    assert!(out.iter().all(|o| o.outcome.energy_kwh() > 0.0));
}

#[test]
fn malformed_scenarios_fail_with_line_numbers() {
    let text = "\
[scenario]
name = broken-demo
summary = error cases
days = 2
policies = drowsy-dc

[fleet.box]
count = 4
cores = 16
ram-mb = 32768

[workload.w]
pattern = flash-crowd
count = 4
vcpus = 2
ram-mb = 6144
crowd-intensity = 7.5
";
    let err = Scenario::parse(text).expect_err("intensity out of range");
    assert_eq!(err.line, 17, "points at the offending entry: {err}");
    assert_eq!(
        err.to_string(),
        "line 17: 'crowd-intensity' must be in [0, 1], got 7.5"
    );
    // Structural errors too.
    let err = Scenario::parse("[scenario]\nname = x\nbroken line\n").unwrap_err();
    assert_eq!(err.line, 3);
}

#[test]
fn seed_override_produces_a_different_but_deterministic_run() {
    let s = shrunk("idle-fleet", 1);
    let a = run_scenario(&s, Some(1), 1);
    let b = run_scenario(&s, Some(2), 1);
    let a2 = run_scenario(&s, Some(1), 1);
    assert_eq!(
        a[0].outcome.energy_kwh().to_bits(),
        a2[0].outcome.energy_kwh().to_bits(),
        "equal seeds replay"
    );
    // Different seeds need not differ on an all-idle fleet's energy, but
    // the run must at least complete under both.
    assert!(b[0].outcome.energy_kwh() > 0.0);
}
