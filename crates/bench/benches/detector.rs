//! Criterion micro-benchmarks of the detection engine: per-request header
//! processing and per-slice feature evaluation — the code the paper budgets
//! at 147/254 ns per I/O on a 1.2 GHz core.

use criterion::{criterion_group, criterion_main, Criterion};
use insider_detect::{
    CountingTable, DecisionTree, Detector, DetectorConfig, FeatureVector, IoMode, IoReq,
};
use insider_nand::{Lba, SimTime};
use std::hint::black_box;

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_ingest");

    // Plain write stream (no overwrites).
    let mut det = Detector::new(DetectorConfig::default(), DecisionTree::stump(0, f64::MAX));
    let mut i = 0u64;
    group.bench_function("plain_write", |b| {
        b.iter(|| {
            i += 1;
            let req = IoReq::new(
                SimTime::from_millis(i),
                Lba::new(i % 100_000),
                IoMode::Write,
                1,
            );
            black_box(det.ingest(black_box(req)));
        })
    });

    // Ransomware-style read-then-overwrite stream.
    let mut det = Detector::new(DetectorConfig::default(), DecisionTree::stump(0, f64::MAX));
    let mut i = 0u64;
    group.bench_function("read_then_overwrite", |b| {
        b.iter(|| {
            i += 1;
            let lba = Lba::new(i % 10_000);
            let t = SimTime::from_millis(i);
            black_box(det.ingest(IoReq::new(t, lba, IoMode::Read, 1)));
            black_box(det.ingest(IoReq::new(t.plus_micros(10), lba, IoMode::Write, 1)));
        })
    });
    group.finish();
}

/// The counting table on a 256-block read-then-overwrite extent stream,
/// with a window slide every thousand requests.
fn bench_counting_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting_table_256blk_rw");
    let mut table = CountingTable::new();
    let mut i = 0u64;
    group.bench_function("interval", |b| {
        b.iter(|| {
            i += 1;
            let lba = Lba::new((i % 64) * 256);
            let slice = i / 1_000;
            table.record_read_range(black_box(lba), black_box(256), slice);
            black_box(table.record_write_range(black_box(lba), black_box(256), slice));
            if i.is_multiple_of(1_000) {
                black_box(table.evict_older_than(slice.saturating_sub(10)));
            }
        })
    });
    group.finish();
}

fn bench_tree_predict(c: &mut Criterion) {
    // A tree of realistic deployed size.
    let mut samples = Vec::new();
    for i in 0..400 {
        let f = FeatureVector {
            owio: (i % 97) as f64,
            owst: (i % 7) as f64 / 7.0,
            pwio: (i % 213) as f64 * 3.0,
            avgwio: (i % 31) as f64,
            owslope: (i % 13) as f64,
            io: (i % 301) as f64 * 10.0,
            went: (i % 8) as f64 * 1000.0,
            rhew: (i % 17) as f64,
            owburst: (i % 5) as f64 / 2.0,
        };
        samples.push(insider_detect::Sample {
            features: f,
            label: (i * 7 % 13) < 5,
        });
    }
    let tree = DecisionTree::train(&samples, &insider_detect::Id3Params::default());
    let probe = samples[137].features;
    c.bench_function("tree_predict", |b| {
        b.iter(|| black_box(tree.predict(black_box(&probe))))
    });
}

criterion_group!(
    benches,
    bench_ingest,
    bench_counting_table,
    bench_tree_predict
);
criterion_main!(benches);
