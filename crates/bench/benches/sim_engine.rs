//! Criterion bench: simulation-substrate hot paths — event queue
//! throughput, one full datacenter control hour, and the event engine at
//! both fidelities (legacy epochs vs high-fidelity sub-hour events).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dds_core::datacenter::{Datacenter, DcConfig, DcEngine, EngineConfig};
use dds_core::registry::PolicyRegistry;
use dds_core::spec::{HostSpec, VmSpec, WorkloadKind};
use dds_sim_core::{EventQueue, HostId, SimRng, SimTime, VmId};
use dds_traces::TracePattern;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("push_pop_10k", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                let mut rng = SimRng::new(5);
                for i in 0..10_000u64 {
                    q.schedule(SimTime::from_millis(rng.below(1_000_000)), i);
                }
                q
            },
            |mut q| {
                while let Some(ev) = q.pop() {
                    std::hint::black_box(ev.time);
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn build_dc(hosts: usize, vms: usize) -> Datacenter {
    let rng = SimRng::new(17);
    let host_specs: Vec<HostSpec> = (0..hosts)
        .map(|i| HostSpec::cloud_server(HostId(i as u32), format!("h{i}")))
        .collect();
    let vm_specs: Vec<VmSpec> = (0..vms)
        .map(|i| {
            let mut r = rng.stream_indexed("vm", i as u64);
            let trace = TracePattern::RandomBursts {
                duty: 0.2,
                intensity: 0.4,
            }
            .generate(24 * 30, &mut r);
            VmSpec {
                id: VmId(i as u32),
                name: format!("vm{i}"),
                vcpus: 2.0,
                ram_mb: 4_096,
                trace,
                kind: WorkloadKind::Interactive,
            }
        })
        .collect();
    let placement: Vec<HostId> = (0..vms).map(|i| HostId((i % hosts) as u32)).collect();
    let mut cfg = DcConfig::paper_default();
    cfg.track_colocation = false;
    let policy = PolicyRegistry::standard()
        .build("drowsy-dc", &cfg, None)
        .expect("drowsy-dc is registered");
    Datacenter::with_policy(cfg, policy, host_specs, vm_specs, placement, 23)
}

fn bench_control_hour(c: &mut Criterion) {
    let mut g = c.benchmark_group("datacenter");
    g.sample_size(10);
    g.bench_function("control_hour_20h_80vm", |b| {
        b.iter_batched(
            || {
                let mut dc = build_dc(20, 80);
                dc.run(24); // warm the models past the cold start
                dc
            },
            |mut dc| {
                dc.run(8);
                dc
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_engine_drivers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_engine");
    g.sample_size(10);
    // Control epochs only.
    g.bench_function("legacy_epochs_24h_80vm", |b| {
        b.iter_batched(
            || build_dc(20, 80),
            |mut dc| {
                DcEngine::new(&mut dc, EngineConfig::Legacy).run_hours(24);
                dc
            },
            BatchSize::LargeInput,
        );
    });
    // Sub-hour fidelity: scheduled-wake events (no failure, so no
    // heartbeat round).
    g.bench_function("high_fidelity_24h_80vm", |b| {
        b.iter_batched(
            || build_dc(20, 80),
            |mut dc| {
                DcEngine::new(&mut dc, EngineConfig::HighFidelity).run_hours(24);
                dc
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_control_hour,
    bench_engine_drivers
);
criterion_main!(benches);
