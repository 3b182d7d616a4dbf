//! Bounded tier-1 latency smoke test: a small write/read churn through a
//! whole [`SsdInsider`] device under the default out-of-order scheduler
//! must produce internally consistent per-command percentiles. `LAT_PAGES`
//! overrides the page count.

use bytes::Bytes;
use insider_detect::DecisionTree;
use insider_nand::{Geometry, KindLatency, Lba, SimTime};
use ssd_insider::{InsiderConfig, SsdInsider};

fn pages() -> u64 {
    std::env::var("LAT_PAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

fn assert_ordered(kind: &str, l: &KindLatency) {
    assert!(l.count > 0, "{kind}: no commands recorded");
    assert!(l.p50_ns > 0, "{kind}: zero median");
    assert!(
        l.p50_ns <= l.p95_ns,
        "{kind}: p50 {} > p95 {}",
        l.p50_ns,
        l.p95_ns
    );
    assert!(
        l.p95_ns <= l.p99_ns,
        "{kind}: p95 {} > p99 {}",
        l.p95_ns,
        l.p99_ns
    );
    assert!(
        l.p99_ns <= l.max_ns,
        "{kind}: p99 {} > max {}",
        l.p99_ns,
        l.max_ns
    );
}

#[test]
fn scheduled_device_reports_consistent_percentiles() {
    let mut device = SsdInsider::new(
        InsiderConfig::new(Geometry::tiny()),
        DecisionTree::constant(false),
    );
    let span = device.logical_pages().min(64);
    let pages = pages();
    // One simulated second per op, so the insider FTL's protection window
    // keeps retiring and delayed deletion never starves GC on the tiny
    // geometry.
    for i in 0..pages {
        let now = SimTime::from_secs(i);
        let lba = Lba::new(i % span);
        device
            .write(lba, Bytes::copy_from_slice(format!("p{i}").as_bytes()), now)
            .unwrap();
        if i % 3 == 0 {
            device.read(lba, now).unwrap();
        }
    }
    device.sync();
    let snap = device.latency_snapshot();
    assert_ordered("read", &snap.read);
    assert_ordered("program", &snap.program);
    assert_ordered("total", &snap.total);
    assert_eq!(
        snap.total.count,
        snap.read.count + snap.program.count + snap.erase.count,
        "total must aggregate every kind"
    );
    assert!(
        snap.total.max_ns
            >= snap
                .read
                .max_ns
                .max(snap.program.max_ns)
                .max(snap.erase.max_ns),
        "total max must dominate per-kind maxima"
    );
}
