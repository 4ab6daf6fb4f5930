//! Criterion benchmarks of full-model detection and recovery latency (the run-time path
//! RADAR embeds into inference).

// criterion_group! expands to undocumented glue functions.
#![allow(missing_docs)]

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use radar_core::{RadarConfig, RadarProtection};
use radar_nn::{resnet20, ResNetConfig};
use radar_quant::{QuantizedModel, MSB};

fn model() -> QuantizedModel {
    QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(10))))
}

fn bench_detect(c: &mut Criterion) {
    let m = model();
    let mut group = c.benchmark_group("detect_full_model");
    for &g in &[16usize, 128, 512] {
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(g));
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, _| {
            b.iter(|| black_box(radar.detect(&m)))
        });
    }
    group.finish();
}

fn bench_detect_and_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_and_recover_after_flip");
    for &g in &[16usize, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, &g| {
            b.iter_batched(
                || {
                    let mut m = model();
                    let radar = RadarProtection::new(&m, RadarConfig::paper_default(g));
                    m.flip_bit(0, 0, MSB);
                    (m, radar)
                },
                |(mut m, mut radar)| black_box(radar.detect_and_recover(&mut m)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_detect, bench_detect_and_recover
}
criterion_main!(benches);
