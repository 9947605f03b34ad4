//! Criterion bench: request-level QoS evaluation pipelines.
//!
//! Two ways to price the same request workload against the same run:
//!
//! * `batched` — the post-hoc interval-batched replay (chunked VMs,
//!   cursored lookups, reused stream/server buffers) over a recorded run;
//! * `streaming_run` — the whole simulation with the inline QoS stream
//!   (`DcConfig::qos_stream`), no recorded timelines at all. This one
//!   includes the simulation itself, so it bounds the end-to-end cost of
//!   "just stream it" rather than isolating the QoS arithmetic.
//!
//! Both produce bit-identical reports (asserted at setup); only the wall
//! clock differs. Serial (`threads = 1`) so criterion measures the
//! arithmetic, not the worker pool.

use criterion::{criterion_group, criterion_main, Criterion};
use dds_core::datacenter::QosStreamConfig;
use dds_core::registry::PolicyRegistry;
use dds_core::sweep::run_sweep_with;
use dds_qos::{replay, QosConfig};
use dds_scenarios::find;

fn bench_qos_replay(c: &mut Criterion) {
    let mut scenario = find("sla-web-front").expect("catalog entry");
    scenario.days = 2;
    scenario.policies = vec!["drowsy-dc".to_string()];
    let seed = scenario.seed;
    let profile = scenario
        .qos
        .as_ref()
        .expect("sla-web-front carries [qos]")
        .profile
        .clone();
    let registry = PolicyRegistry::standard();

    // One recorded run for the replay.
    let mut points = scenario.sweep_points(None);
    points[0].spec.config.track_power_timeline = true;
    let recorded = run_sweep_with(&registry, &points, 1)
        .pop()
        .expect("one policy")
        .outcome
        .dc;
    let cfg = QosConfig {
        profile: profile.clone(),
        noise: points[0].spec.config.im.noise_threshold,
    };
    let vms = points[0].spec.vm_specs(seed);

    // The streaming twin of the same point.
    let mut stream_points = scenario.sweep_points(None);
    stream_points[0].spec.config.track_power_timeline = false;
    stream_points[0].spec.config.qos_stream = Some(QosStreamConfig::serial(profile));

    let reference = replay(&vms, &recorded, &cfg, seed, 1);
    assert!(reference.total > 0);
    let streamed = run_sweep_with(&registry, &stream_points, 1)
        .pop()
        .expect("one policy")
        .outcome
        .dc
        .qos;
    assert_eq!(streamed.as_ref(), Some(&reference), "streaming agrees");

    let mut g = c.benchmark_group("qos_replay");
    g.bench_function("batched", |b| {
        b.iter(|| std::hint::black_box(replay(&vms, &recorded, &cfg, seed, 1)));
    });
    g.bench_function("streaming_run", |b| {
        b.iter(|| {
            let out = run_sweep_with(&registry, &stream_points, 1)
                .pop()
                .expect("one policy");
            std::hint::black_box(out.outcome.dc.qos.expect("streaming report"))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_qos_replay);
criterion_main!(benches);
