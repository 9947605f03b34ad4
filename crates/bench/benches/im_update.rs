//! Criterion bench: idleness-model hourly update cost.
//!
//! The paper stresses that the IM update + weight learning "can be set to
//! not incur any overhead in the consolidation system"; this bench pins
//! the per-hour cost (nanoseconds per VM-hour) with learning on and off,
//! plus the cost of one IP query. `batch_4096` feeds one hour to 4,096
//! trained models through `IdlenessModel::observe_batch`, as the
//! `Datacenter` control loop does; divide its time by 4,096 for
//! nanoseconds per VM-hour.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dds_idleness::{IdlenessModel, ImConfig};
use dds_sim_core::time::CalendarStamp;
use dds_sim_core::SimRng;

/// Models in the batched case.
const BATCH: usize = 4096;

fn trained_model(learning: bool, seed: u64) -> IdlenessModel {
    let mut cfg = ImConfig::paper_default();
    if !learning {
        cfg.learning_rate = 0.0;
    }
    let mut m = IdlenessModel::new(cfg);
    let mut rng = SimRng::new(seed);
    for h in 0..24 * 30u64 {
        let level = if rng.chance(0.2) { rng.unit() } else { 0.0 };
        m.observe_hour(CalendarStamp::from_hour_index(h), level);
    }
    m
}

fn bench_im(c: &mut Criterion) {
    let mut g = c.benchmark_group("im_update");
    for (label, learning) in [("with_learning", true), ("frozen_weights", false)] {
        g.bench_function(label, |b| {
            let model = trained_model(learning, 3);
            let mut hour = 24 * 30u64;
            b.iter_batched(
                || model.clone(),
                |mut m| {
                    hour += 1;
                    m.observe_hour(
                        CalendarStamp::from_hour_index(hour),
                        if hour.is_multiple_of(5) { 0.6 } else { 0.0 },
                    );
                    m
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.bench_function("batch_4096", |b| {
        // The models learn on in place, one hour per sample, as in a run.
        let mut models: Vec<IdlenessModel> = (0..BATCH as u64)
            .map(|seed| trained_model(true, seed))
            .collect();
        let mut hour = 24 * 30u64;
        b.iter(|| {
            hour += 1;
            let stamp = CalendarStamp::from_hour_index(hour);
            let level = |i: usize| {
                if (hour + i as u64).is_multiple_of(5) {
                    0.6
                } else {
                    0.0
                }
            };
            IdlenessModel::observe_batch(
                stamp,
                models.iter_mut().enumerate().map(|(i, m)| (m, level(i))),
            );
        });
    });
    g.bench_function("ip_query", |b| {
        let model = trained_model(true, 3);
        let stamp = CalendarStamp::from_hour_index(24 * 31);
        b.iter(|| std::hint::black_box(model.probability(stamp)));
    });
    g.finish();
}

criterion_group!(benches, bench_im);
criterion_main!(benches);
