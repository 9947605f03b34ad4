//! End-to-end integration tests over the §VI.A testbed scenario,
//! exercising every crate at once: traces → idleness models → placement →
//! suspension → waking → energy accounting.

use drowsy_dc::prelude::*;

fn spec(days: u64) -> TestbedSpec {
    let mut spec = TestbedSpec::paper_default();
    spec.days = days;
    spec
}

#[test]
fn energy_ordering_drowsy_neat_s3_neat() {
    // The paper's headline: 18 kWh < 24 kWh < 40 kWh.
    let drowsy = run_testbed(&spec(7), "drowsy-dc", 42);
    let neat_s3 = run_testbed(&spec(7), "neat-s3", 42);
    let neat = run_testbed(&spec(7), "neat", 42);
    assert!(drowsy.total_energy_kwh() < neat_s3.total_energy_kwh());
    assert!(neat_s3.total_energy_kwh() < neat.total_energy_kwh());
    // Roughly half the energy of the always-on deployment.
    let saving = 1.0 - drowsy.total_energy_kwh() / neat.total_energy_kwh();
    assert!(
        (0.30..0.70).contains(&saving),
        "saving vs always-on: {saving}"
    );
}

#[test]
fn suspension_gain_over_neat_matches_paper_shape() {
    // Paper: Drowsy-DC's hosts spent 35 % more time suspended than
    // Neat's (66 % vs 49 % global).
    let drowsy = run_testbed(&spec(7), "drowsy-dc", 42);
    let neat = run_testbed(&spec(7), "neat-s3", 42);
    let gain = drowsy.global_suspension_fraction() / neat.global_suspension_fraction();
    assert!(
        gain > 1.1,
        "Drowsy {} vs Neat {}",
        drowsy.global_suspension_fraction(),
        neat.global_suspension_fraction()
    );
}

#[test]
fn colocation_matrix_is_symmetric_and_bounded() {
    let out = run_testbed(&spec(7), "drowsy-dc", 42);
    for i in 0..8 {
        assert!(
            (out.dc.colocation[i][i] - 1.0).abs() < 1e-9,
            "diagonal is 100 %"
        );
        for j in 0..8 {
            let a = out.dc.colocation[i][j];
            assert!((0.0..=1.0).contains(&a));
            assert!((a - out.dc.colocation[j][i]).abs() < 1e-9, "symmetry");
        }
    }
}

#[test]
fn each_vm_is_always_somewhere() {
    // Row sums of colocation include self=1; each VM shares its host
    // with at most one companion at any hour (2-slot hosts), so the row
    // sum is bounded by 2.
    let out = run_testbed(&spec(7), "drowsy-dc", 42);
    for i in 0..8 {
        let row: f64 = out.dc.colocation[i].iter().sum();
        assert!((1.0..=2.0 + 1e-9).contains(&row), "row {i} sums to {row}");
    }
}

#[test]
fn sla_holds_and_wake_hits_are_bounded() {
    let mut spec = spec(7);
    spec.config.stream_qos();
    let out = run_testbed(&spec, "drowsy-dc", 42);
    let qos = out.dc.qos.expect("the run streamed QoS");
    assert!(qos.total > 1_000, "enough requests served");
    assert!(qos.sla_attainment() > 0.99);
    if qos.wake_hits > 0 {
        // Quick resume (800 ms) + bounded service time.
        assert!(qos.worst_wake_ms >= 800);
        assert!(qos.worst_wake_ms < 1800);
    }
}

#[test]
fn neat_without_suspension_never_sleeps_or_migrates_summarily() {
    let out = run_testbed(&spec(5), "neat", 42);
    assert_eq!(out.global_suspension_fraction(), 0.0);
    for (host, cycles) in &out.dc.suspend_cycles {
        assert_eq!(*cycles, 0, "host {host} suspended under always-on policy");
    }
}

#[test]
fn outcomes_are_deterministic_per_seed_and_differ_across_seeds() {
    let a = run_testbed(&spec(4), "drowsy-dc", 1);
    let b = run_testbed(&spec(4), "drowsy-dc", 1);
    let c = run_testbed(&spec(4), "drowsy-dc", 2);
    assert_eq!(a.total_energy_kwh(), b.total_energy_kwh());
    assert_eq!(a.migration_counts(), b.migration_counts());
    assert!(
        (a.total_energy_kwh() - c.total_energy_kwh()).abs() > 1e-9
            || a.migration_counts() != c.migration_counts(),
        "different seeds should differ somewhere"
    );
}

#[test]
fn longer_runs_improve_drowsy_relative_position() {
    // "Drowsy-DC's effectiveness increases with time, as idleness models
    // get updated."
    let short = run_testbed(&spec(2), "drowsy-dc", 42);
    let long = run_testbed(&spec(10), "drowsy-dc", 42);
    assert!(
        long.global_suspension_fraction() >= short.global_suspension_fraction() - 0.05,
        "short {} vs long {}",
        short.global_suspension_fraction(),
        long.global_suspension_fraction()
    );
}
