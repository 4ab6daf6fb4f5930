//! Criterion micro-benchmarks of the RADAR signature primitive: the masked addition
//! checksum and per-layer signing. Whole-model verify throughput (the fused
//! fetch+verify sweep at paper width) is measured by the repository benchmark's
//! `audit_r18` workload, as `core.verify_gbps`.

// criterion_group! expands to undocumented glue functions.
#![allow(missing_docs)]

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use radar_core::{binarize, masked_sum, GroupLayout, Grouping, SecretKey, SignatureBits};

fn bench_masked_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("masked_sum");
    for &size in &[8usize, 64, 512] {
        let weights: Vec<i8> = (0..size).map(|i| (i as i32 % 251 - 125) as i8).collect();
        let key = SecretKey::new(0xACE1);
        group.bench_with_input(BenchmarkId::from_parameter(size), &weights, |b, w| {
            b.iter(|| masked_sum(black_box(w), black_box(&key)))
        });
    }
    group.finish();
}

fn bench_layer_signing(c: &mut Criterion) {
    // Sign a 64k-weight layer (≈ one mid-sized conv layer of ResNet-18) the way the
    // protection does: one storage-order sweep, then binarize every group.
    let weights: Vec<i8> = (0..65_536).map(|i| (i % 251 - 125) as i8).collect();
    let key = SecretKey::new(0xBEEF);
    let mut group = c.benchmark_group("layer_signing_64k");
    for (name, grouping) in [
        ("contiguous", Grouping::Contiguous),
        ("interleaved", Grouping::interleaved()),
    ] {
        let layout = GroupLayout::new(weights.len(), 512, grouping);
        let mut sums = vec![0i32; layout.num_groups()];
        group.bench_function(name, |b| {
            b.iter(|| {
                layout.masked_sums(&key, black_box(&weights), &mut sums);
                let sigs: Vec<u8> = sums
                    .iter()
                    .map(|&m| binarize(m, SignatureBits::Two))
                    .collect();
                black_box(sigs)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_masked_sum, bench_layer_signing
}
criterion_main!(benches);
