//! Criterion micro-benchmarks behind Fig. 8: per-operation software cost of
//! the conventional FTL, the SSD-Insider FTL, and the full device with
//! inline detection.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use insider_detect::DecisionTree;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use ssd_insider::{InsiderConfig, SsdInsider};
use std::hint::black_box;

fn bench_geometry() -> Geometry {
    Geometry::builder()
        .channels(2)
        .chips_per_channel(2)
        .blocks_per_chip(256)
        .pages_per_block(64)
        .page_size(4096)
        .build()
}

fn payload() -> Bytes {
    Bytes::from_static(&[0x5a; 64])
}

fn write_cycler(logical: u64) -> impl FnMut() -> (Lba, SimTime) {
    let mut i = 0u64;
    move || {
        i += 1;
        // Cycle through half the logical space; time advances 1 ms per op so
        // recovery-queue entries steadily retire.
        (Lba::new(i % (logical / 2)), SimTime::from_millis(i))
    }
}

fn bench_ftl_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("4k_write");

    let mut conventional =
        InsiderFtl::new(FtlConfig::new(bench_geometry()).protection_window(None));
    let mut next = write_cycler(conventional.logical_pages());
    group.bench_function("conventional_ftl", |b| {
        b.iter(|| {
            let (lba, now) = next();
            conventional.write(black_box(lba), payload(), now).unwrap();
        })
    });

    let mut insider = InsiderFtl::new(FtlConfig::new(bench_geometry()));
    let mut next = write_cycler(insider.logical_pages());
    group.bench_function("insider_ftl", |b| {
        b.iter(|| {
            let (lba, now) = next();
            insider.write(black_box(lba), payload(), now).unwrap();
        })
    });

    let mut device = SsdInsider::new(
        InsiderConfig::new(bench_geometry()),
        DecisionTree::stump(0, f64::MAX), // realistic tree walk, never alarms
    );
    let mut next = write_cycler(device.logical_pages());
    group.bench_function("device_with_detection", |b| {
        b.iter(|| {
            let (lba, now) = next();
            device.write(black_box(lba), payload(), now).unwrap();
        })
    });
    group.finish();
}

fn bench_ftl_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("4k_read");

    let mut conventional =
        InsiderFtl::new(FtlConfig::new(bench_geometry()).protection_window(None));
    for i in 0..1024u64 {
        conventional
            .write(Lba::new(i), payload(), SimTime::ZERO)
            .unwrap();
    }
    let mut i = 0u64;
    group.bench_function("conventional_ftl", |b| {
        b.iter(|| {
            i += 1;
            conventional
                .read(black_box(Lba::new(i % 1024)), SimTime::from_millis(i))
                .unwrap();
        })
    });

    let mut device = SsdInsider::new(
        InsiderConfig::new(bench_geometry()),
        DecisionTree::stump(0, f64::MAX),
    );
    for i in 0..1024u64 {
        device.write(Lba::new(i), payload(), SimTime::ZERO).unwrap();
    }
    let mut i = 0u64;
    group.bench_function("device_with_detection", |b| {
        b.iter(|| {
            i += 1;
            device
                .read(black_box(Lba::new(i % 1024)), SimTime::from_millis(i))
                .unwrap();
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ftl_writes, bench_ftl_reads);
criterion_main!(benches);
