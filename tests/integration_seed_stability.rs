//! Seed-stability regression tests.
//!
//! Every experiment in the reproduction is driven by a single `u64` seed
//! (`dds_sim_core::SimRng` stream-splits it per entity), so two runs of
//! the same scenario with the same seed must be bit-identical — that is
//! the property that makes regression comparisons across PRs meaningful.

use drowsy_dc::prelude::*;

fn spec() -> TestbedSpec {
    let mut s = TestbedSpec::paper_default();
    s.days = 2; // long enough to exercise suspension + waking, CI-fast
    s
}

/// The same `(spec, policy, seed)` triple replays to identical
/// outcomes, down to every per-host figure.
#[test]
fn same_seed_same_outcome() {
    for policy in ["drowsy-dc", "neat-s3"] {
        let a = run_testbed(&spec(), policy, 42);
        let b = run_testbed(&spec(), policy, 42);
        assert_eq!(
            a.total_energy_kwh().to_bits(),
            b.total_energy_kwh().to_bits(),
            "{policy}: energy must be bit-identical for equal seeds"
        );
        assert_eq!(
            a.global_suspension_fraction().to_bits(),
            b.global_suspension_fraction().to_bits(),
            "{policy}: suspension fraction must replay"
        );
        let (ra, rb) = (a.suspension_row(), b.suspension_row());
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{policy}: per-host row");
        }
        assert_eq!(a.migration_counts(), b.migration_counts());
    }
}

/// Different seeds drive different workload realizations, so outcomes
/// must not be identical (a constant outcome would mean the seed is
/// ignored somewhere in the pipeline).
#[test]
fn different_seeds_differ() {
    let a = run_testbed(&spec(), "drowsy-dc", 1);
    let b = run_testbed(&spec(), "drowsy-dc", 2);
    assert_ne!(
        a.total_energy_kwh().to_bits(),
        b.total_energy_kwh().to_bits(),
        "seeds 1 and 2 produced bit-identical energy — seed is ignored"
    );
}

/// The cluster-scale scenario replays identically too.
#[test]
fn cluster_run_replays() {
    let mut spec = ClusterSpec::paper_default(0.5);
    spec.hosts = 6;
    spec.vms = 18;
    spec.days = 2;
    let a = run_cluster_policy(&spec, "drowsy-dc", 7);
    let b = run_cluster_policy(&spec, "drowsy-dc", 7);
    assert_eq!(
        a.energy_kwh().to_bits(),
        b.energy_kwh().to_bits(),
        "cluster energy must replay for equal seeds"
    );
    assert_eq!(a.suspension().to_bits(), b.suspension().to_bits());
}
