//! Criterion bench: planning-round cost vs number of VMs — the §VII
//! complexity comparison (Drowsy-DC ~O(n) vs pairwise multiplexing
//! O(n²)). Criterion's per-size medians are the data behind the
//! `scalability` experiment binary's exponent fit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_placement::{
    ClusterState, DrowsyConfig, DrowsyPlanner, HistoryBook, HostState, MultiplexPlanner,
    NeatPlanner, VmState,
};
use dds_sim_core::{HostId, SimRng, VmId};

fn build_state(n_vms: usize, rng: &mut SimRng) -> (ClusterState, HistoryBook) {
    let vms_per_host = 4;
    let n_hosts = n_vms.div_ceil(vms_per_host);
    let mut hosts = Vec::with_capacity(n_hosts);
    let mut hist = HistoryBook::new(24);
    for h in 0..n_hosts {
        let mut vms = Vec::new();
        for k in 0..vms_per_host {
            let i = h * vms_per_host + k;
            if i >= n_vms {
                break;
            }
            let id = VmId(i as u32);
            vms.push(VmState {
                id,
                vcpus: 2.0,
                ram_mb: 4_096,
                cpu_demand: rng.uniform(1.4, 2.4), // hosts in the normal band:
                // neither under- nor overloaded, so the planner cost is
                // the algorithm-specific layer (§VII's comparison)
                ip_score: rng.uniform(-0.02, 0.02),
            });
            for _ in 0..24 {
                hist.push(id, rng.uniform(0.0, 2.0));
            }
        }
        hosts.push(HostState {
            id: HostId(h as u32),
            cpu_capacity: 16.0,
            ram_capacity: 65_536,
            max_vms: 0,
            vms,
        });
    }
    (ClusterState::new(hosts), hist)
}

fn bench_planners(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement_scalability");
    g.sample_size(10);
    for &n in &[64usize, 256, 1024] {
        let mut rng = SimRng::new(11);
        let (state, hist) = build_state(n, &mut rng);

        let drowsy = DrowsyPlanner::new(DrowsyConfig::paper_default());
        g.bench_with_input(BenchmarkId::new("drowsy", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(drowsy.plan(&state)));
        });

        let neat = NeatPlanner::default();
        g.bench_with_input(BenchmarkId::new("neat", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(neat.plan(&state)));
        });

        let multiplex = MultiplexPlanner::new(0.5);
        g.bench_with_input(BenchmarkId::new("multiplex", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(multiplex.plan(&state, &hist)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_planners);
criterion_main!(benches);
