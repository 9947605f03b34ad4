//! Policy-equivalence regression tests.
//!
//! The `ControlPolicy` refactor moved every algorithm-specific branch out
//! of the `Datacenter` control loop into policy impls. These tests pin
//! the refactor to golden outcomes captured from the pre-refactor seed
//! tree (commit 31831bc, the `match self.algorithm` monolith): for each
//! of the paper's policies at a fixed seed, the registry-dispatched run
//! must reproduce the old `DcOutcome` **bit-identically** — energy and
//! suspension fractions compared via `f64::to_bits`, not epsilons.
//!
//! The tables are keyed by policy-registry name and pin each policy's
//! display label, which every outcome reports. The testbed and
//! `mixed-production` tables were re-captured once, when traffic wakes
//! moved to the arrival of each hour's first request (the request the QoS
//! stream serves); the cluster table did not move, as its runs have no
//! traffic wake.

use drowsy_dc::prelude::*;

/// Golden values: `TestbedSpec::paper_default()` with `days = 2`, seed
/// 42, streaming QoS at the testbed's own 2 rps (`DcConfig::stream_qos`);
/// `wake_hits` is the QoS report's.
const TESTBED_GOLDEN: &[(&str, &str, u64, u64, u32, u64)] = &[
    // (registry name, label, energy_kwh bits, suspension bits, migrations, wake_hits)
    (
        "drowsy-dc",
        "Drowsy-DC",
        0x401b1a3226bcfa10,
        0x3fde9f88499e67ee,
        2,
        17,
    ),
    (
        "neat-s3",
        "Neat+S3",
        0x401d6f65574fd4a7,
        0x3fda4d1843741adb,
        0,
        12,
    ),
    ("neat", "Neat", 0x4025d13e8880a287, 0x0000000000000000, 0, 0),
];

/// Golden values captured on the pre-refactor tree:
/// `ClusterSpec::paper_default(0.5)` shrunk to 6 hosts / 18 VMs / 2 days,
/// seed 7.
const CLUSTER_GOLDEN: &[(&str, &str, u64, u64, u32)] = &[
    // (registry name, label, energy_kwh bits, suspension bits, migrations)
    (
        "drowsy-dc",
        "Drowsy-DC",
        0x40286c8fcf842882,
        0x3fd5544a55b66c78,
        6,
    ),
    (
        "neat-s3",
        "Neat+S3",
        0x40286c8fcf842881,
        0x3fd5544a55b66c78,
        6,
    ),
    ("neat", "Neat", 0x403087f5b6554315, 0x0000000000000000, 6),
    ("oasis", "Oasis", 0x40279c6e5198b6ec, 0x3fde10c83fb72ea6, 67),
];

/// Golden values first captured on commit 0097e95, before the planners'
/// undo-log scratch and the datacenter's residency lists:
/// `mixed-production` scaled to 100 hosts (356 VMs), 2 days, seed 42.
/// The small tables above never roll a drain back after a partial
/// placement; at this size every policy's drain does so over a thousand
/// times per run (about 1.7k for Drowsy-DC), so this table runs the
/// planners' undo path end to end. The exact VM order a rollback restores
/// is pinned by the oracle proptests in `dds-placement`.
const MIXED_PRODUCTION_100_GOLDEN: &[(&str, &str, u64, u64, u32)] = &[
    // (registry name, label, energy_kwh bits, suspension bits, migrations)
    (
        "drowsy-dc",
        "Drowsy-DC",
        0x4067cce2386a3cba,
        0x3fd42fe50d94e440,
        150,
    ),
    (
        "neat-s3",
        "Neat+S3",
        0x4068705a0b7d8bcb,
        0x3fd2ac2a909d8972,
        112,
    ),
    ("neat", "Neat", 0x4070286d58d2346a, 0x0000000000000000, 112),
    (
        "oasis",
        "Oasis",
        0x4065c93ba92cec4b,
        0x3fd9607691d759a7,
        586,
    ),
];

fn testbed_spec() -> TestbedSpec {
    let mut spec = TestbedSpec::paper_default();
    spec.days = 2;
    spec
}

fn cluster_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::paper_default(0.5);
    spec.hosts = 6;
    spec.vms = 18;
    spec.days = 2;
    spec
}

#[test]
fn testbed_outcomes_match_pre_refactor_goldens() {
    for &(name, label, energy, susp, migrations, wake_hits) in TESTBED_GOLDEN {
        let mut spec = testbed_spec();
        spec.config.stream_qos();
        let out = run_testbed(&spec, name, 42);
        assert_eq!(
            out.total_energy_kwh().to_bits(),
            energy,
            "{name}: energy drifted from the pre-refactor golden \
             ({} vs {})",
            out.total_energy_kwh(),
            f64::from_bits(energy)
        );
        assert_eq!(
            out.global_suspension_fraction().to_bits(),
            susp,
            "{name}: suspension fraction drifted"
        );
        assert_eq!(out.dc.total_migrations(), migrations, "{name}: migrations");
        let qos = out.dc.qos.as_ref().expect("the run streamed QoS");
        assert_eq!(qos.wake_hits, wake_hits, "{name}: wake hits");
        assert_eq!(out.dc.policy, label, "{name}: outcome label");
    }
}

#[test]
fn cluster_outcomes_match_pre_refactor_goldens() {
    for &(name, label, energy, susp, migrations) in CLUSTER_GOLDEN {
        let out = run_cluster_policy(&cluster_spec(), name, 7);
        assert_eq!(
            out.energy_kwh().to_bits(),
            energy,
            "{name}: energy drifted from the pre-refactor golden \
             ({} vs {})",
            out.energy_kwh(),
            f64::from_bits(energy)
        );
        assert_eq!(
            out.suspension().to_bits(),
            susp,
            "{name}: suspension fraction drifted"
        );
        assert_eq!(out.dc.total_migrations(), migrations, "{name}: migrations");
        assert_eq!(out.dc.policy, label, "{name}: outcome label");
    }
}

#[test]
fn mixed_production_100_hosts_matches_goldens() {
    let mut scenario = drowsy_dc::scenarios::find("mixed-production").expect("catalog entry");
    scenario.days = 2;
    scenario.scale_to_hosts(100);
    assert_eq!((scenario.host_count(), scenario.vm_count()), (100, 356));
    scenario.policies = MIXED_PRODUCTION_100_GOLDEN
        .iter()
        .map(|(name, ..)| name.to_string())
        .collect();
    let outcomes = run_scenario(&scenario, Some(42), 0);
    assert_eq!(outcomes.len(), MIXED_PRODUCTION_100_GOLDEN.len());
    for (out, &(name, label, energy, susp, migrations)) in
        outcomes.iter().zip(MIXED_PRODUCTION_100_GOLDEN)
    {
        assert_eq!(out.policy, name, "policy order preserved");
        assert_eq!(out.label, label, "{name}: label");
        assert_eq!(
            out.outcome.energy_kwh().to_bits(),
            energy,
            "{name}: energy drifted ({} vs {})",
            out.outcome.energy_kwh(),
            f64::from_bits(energy)
        );
        assert_eq!(
            out.outcome.suspension().to_bits(),
            susp,
            "{name}: suspension fraction drifted"
        );
        assert_eq!(
            out.outcome.dc.total_migrations(),
            migrations,
            "{name}: migrations"
        );
    }
}

#[test]
fn parallel_sweep_reproduces_the_goldens_in_order() {
    // The threaded sweep runner must not perturb outcomes or ordering.
    let policies: Vec<String> = CLUSTER_GOLDEN
        .iter()
        .map(|(name, ..)| name.to_string())
        .collect();
    let points = llmi_grid(&policies, &[0.5], |_| cluster_spec(), 7);
    let outcomes = run_sweep(&points, 0);
    assert_eq!(outcomes.len(), CLUSTER_GOLDEN.len());
    for (res, &(name, _, energy, ..)) in outcomes.iter().zip(CLUSTER_GOLDEN) {
        assert_eq!(res.policy, name, "input order preserved");
        assert_eq!(
            res.outcome.energy_kwh().to_bits(),
            energy,
            "{name} under the parallel sweep"
        );
    }
}

#[test]
fn sleepscale_runs_alongside_the_paper_lineup() {
    // The new policy exists only through the seam; it must run in the
    // same sweep and land in the physically sensible band: no worse than
    // the always-on baseline, suspension strictly positive on a 50 %
    // LLMI mix.
    let out = run_cluster_policy(&cluster_spec(), "sleepscale", 7);
    let neat = run_cluster_policy(&cluster_spec(), "neat", 7);
    assert!(out.energy_kwh() > 0.0);
    assert!(
        out.energy_kwh() < neat.energy_kwh(),
        "SleepScale ({}) must beat always-on Neat ({})",
        out.energy_kwh(),
        neat.energy_kwh()
    );
    assert!(out.suspension() > 0.0, "hosts do sleep under SleepScale");
    assert_eq!(out.dc.policy, "SleepScale");
}
