//! Property-style integration tests of the pure pipeline:
//! trace generation → idleness modelling → placement scoring → planning →
//! plan application, without the datacenter loop.

use drowsy_dc::idleness::{IdlenessModel, ImConfig};
use drowsy_dc::placement::{
    ClusterState, DrowsyConfig, DrowsyPlanner, HostState, NeatPlanner, VmState,
};
use drowsy_dc::sim::time::CalendarStamp;
use drowsy_dc::sim::{HostId, SimRng, VmId};
use drowsy_dc::traces::{nutanix_trace, TracePattern};
use proptest::prelude::*;

/// Trains one IM per trace and returns next-hour scores at `hour`.
fn scores_from_traces(traces: &[drowsy_dc::traces::VmTrace], hours: u64) -> Vec<f64> {
    traces
        .iter()
        .map(|t| {
            let mut im = IdlenessModel::new(ImConfig::paper_default());
            for h in 0..hours {
                im.observe_hour(CalendarStamp::from_hour_index(h), t.level_at_hour(h));
            }
            im.raw_score(CalendarStamp::from_hour_index(hours))
        })
        .collect()
}

#[test]
fn identical_workloads_get_identical_scores() {
    let rng = SimRng::new(3);
    let t = nutanix_trace(3, 24 * 30, &rng);
    let scores = scores_from_traces(&[t.clone(), t], 24 * 30);
    assert_eq!(scores[0], scores[1]);
}

#[test]
fn llmu_scores_negative_llmi_scores_positive_after_training() {
    let mut rng = SimRng::new(4);
    let llmu = TracePattern::paper_llmu().generate(24 * 30, &mut rng);
    let backup = TracePattern::paper_daily_backup().generate(24 * 30, &mut rng);
    let scores = scores_from_traces(&[llmu, backup], 24 * 30);
    assert!(scores[0] < 0.0, "LLMU score {}", scores[0]);
    // The backup VM is idle at almost every hour; pick a non-backup hour.
    assert!(scores[1] > 0.0, "LLMI score {}", scores[1]);
}

#[test]
fn end_to_end_grouping_from_raw_traces() {
    // Four VMs: two trace-3 twins and two always-active. Train IMs, feed
    // scores into the planner, apply the plan: twins end up together.
    let rng = SimRng::new(5);
    let t3 = nutanix_trace(3, 24 * 30, &rng);
    let mut r = SimRng::new(6);
    let llmu_a = TracePattern::paper_llmu().generate(24 * 30, &mut r);
    let llmu_b = TracePattern::paper_llmu().generate(24 * 30, &mut r);
    let traces = vec![t3.clone(), llmu_a, t3, llmu_b];
    // Pick a training horizon ending at an hour where the twins are idle
    // (daytime): scores separate clearly.
    let train_hours = 24 * 30 + 12;
    let scores = scores_from_traces(&traces, train_hours as u64);

    let mk_vm = |i: usize| VmState {
        id: VmId(i as u32),
        vcpus: 2.0,
        ram_mb: 6_144,
        cpu_demand: 0.1,
        ip_score: scores[i],
    };
    let mk_host = |id: u32, vms: Vec<VmState>| HostState {
        id: HostId(id),
        cpu_capacity: 8.0,
        ram_capacity: 16_384,
        max_vms: 2,
        vms,
    };
    // Interleaved start: twin+llmu on each host.
    let state = ClusterState::new(vec![
        mk_host(0, vec![mk_vm(0), mk_vm(1)]),
        mk_host(1, vec![mk_vm(2), mk_vm(3)]),
    ]);
    let planner = DrowsyPlanner::new(DrowsyConfig::paper_default());
    let plan = planner.plan(&state);
    let mut after = state;
    after.apply_plan(&plan).unwrap();
    after.check_invariants().unwrap();
    let h0 = after.host_of(VmId(0)).unwrap();
    let h2 = after.host_of(VmId(2)).unwrap();
    assert_eq!(h0, h2, "trace twins must be colocated");
    assert_ne!(
        after.host_of(VmId(1)).unwrap(),
        h0,
        "LLMU VMs on the other host"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary mixes of duty cycles, both planners produce plans
    /// that apply cleanly and preserve every invariant.
    #[test]
    fn planners_never_corrupt_state(duties in proptest::collection::vec(0.0f64..0.9, 8)) {
        let mut rng = SimRng::new(9);
        let traces: Vec<_> = duties
            .iter()
            .map(|&d| {
                TracePattern::RandomBursts { duty: d, intensity: 0.5 }
                    .generate(24 * 14, &mut rng)
            })
            .collect();
        let scores = scores_from_traces(&traces, 24 * 14);
        let mk_vm = |i: usize| VmState {
            id: VmId(i as u32),
            vcpus: 2.0,
            ram_mb: 4_096,
            cpu_demand: traces[i].level_at_hour(24 * 14) * 2.0,
            ip_score: scores[i],
        };
        let state = ClusterState::new(vec![
            HostState { id: HostId(0), cpu_capacity: 8.0, ram_capacity: 16_384, max_vms: 0, vms: vec![mk_vm(0), mk_vm(1), mk_vm(2)] },
            HostState { id: HostId(1), cpu_capacity: 8.0, ram_capacity: 16_384, max_vms: 0, vms: vec![mk_vm(3), mk_vm(4), mk_vm(5)] },
            HostState { id: HostId(2), cpu_capacity: 8.0, ram_capacity: 16_384, max_vms: 0, vms: vec![mk_vm(6), mk_vm(7)] },
        ]);
        let drowsy = DrowsyPlanner::new(DrowsyConfig::paper_default());
        let plan = drowsy.plan(&state);
        let mut after = state.clone();
        prop_assert!(after.apply_plan(&plan).is_ok());
        prop_assert!(after.check_invariants().is_ok());
        prop_assert_eq!(after.vm_count(), 8);

        let neat = NeatPlanner::default();
        let plan = neat.plan(&state);
        let mut after = state.clone();
        prop_assert!(after.apply_plan(&plan).is_ok());
        prop_assert!(after.check_invariants().is_ok());
        prop_assert_eq!(after.vm_count(), 8);
    }
}
