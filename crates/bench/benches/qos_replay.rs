//! Criterion bench: the request-level QoS pipeline.
//!
//! `streaming_run` is the whole simulation with the inline QoS stream
//! (`DcConfig::qos_stream`) on `sla-web-front`'s drowsy-dc point. It
//! includes the simulation itself, so it bounds the end-to-end cost of
//! streaming QoS rather than isolating the request arithmetic. Serial
//! (`threads = 1`) so criterion measures the pipeline, not the worker
//! pool.

use criterion::{criterion_group, criterion_main, Criterion};
use dds_core::registry::PolicyRegistry;
use dds_core::sweep::run_sweep_with;
use dds_scenarios::find;

fn bench_qos_replay(c: &mut Criterion) {
    let mut scenario = find("sla-web-front").expect("catalog entry");
    scenario.days = 2;
    scenario.policies = vec!["drowsy-dc".to_string()];
    // The scenario's [qos] section streams QoS on every point.
    let points = scenario.sweep_points(None);
    let registry = PolicyRegistry::standard();

    let mut g = c.benchmark_group("qos_replay");
    g.bench_function("streaming_run", |b| {
        b.iter(|| {
            let out = run_sweep_with(&registry, &points, 1)
                .pop()
                .expect("one policy");
            std::hint::black_box(out.outcome.dc.qos.expect("streaming report"))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_qos_replay);
criterion_main!(benches);
