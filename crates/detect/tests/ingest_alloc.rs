//! Allocation gate for the detector's request header path: once warm,
//! [`Detector::ingest`] makes no heap allocation for a request that
//! changes no run boundary. Within one slice, two such kinds are checked:
//!
//! * reads that fall inside runs the counting table already holds (a
//!   refresh in place);
//! * overwrites of LBAs already counted this slice (the counting table's
//!   run, the distinct-overwrite set and the accessed set all cover them).
//!
//! The counting allocator is `insider-ftl`'s (`support/counting_alloc.rs`
//! under its tests). This file holds one test, so no other test's
//! allocations are counted.

use insider_detect::{DecisionTree, Detector, DetectorConfig, IoMode, IoReq};
use insider_nand::{Lba, SimTime};
use std::sync::atomic::Ordering;

#[path = "../../ftl/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::ALLOCS;

/// Runs of 16 blocks, 64 apart: they never touch, so none merges.
const RUNS: u64 = 64;
const RUN: u32 = 16;
const GAP: u64 = 64;

#[test]
fn warm_ingest_of_covered_reads_and_counted_overwrites_allocates_nothing() {
    let mut detector = Detector::new(DetectorConfig::default(), DecisionTree::stump(0, 0.5));
    let lba = |run: u64, at: u64| Lba::new(run * GAP + at);
    let mut now = SimTime::from_millis(10);
    let mut tick = || {
        now = now.plus_micros(100);
        now
    };

    // Warm-up, all inside slice 0: read every run, then overwrite each.
    for run in 0..RUNS {
        detector.ingest(IoReq::new(tick(), lba(run, 0), IoMode::Read, RUN));
    }
    for run in 0..RUNS {
        detector.ingest(IoReq::new(tick(), lba(run, 0), IoMode::Write, RUN));
    }
    let entries = detector.engine().counting_table().len();
    assert_eq!(entries, RUNS as usize);

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut verdicts = 0;
    for round in 0..4 {
        for run in 0..RUNS {
            let at = (run + round) % RUN as u64;
            let len = RUN - at as u32;
            verdicts += detector
                .ingest(IoReq::new(tick(), lba(run, at), IoMode::Read, len))
                .len();
            verdicts += detector
                .ingest(IoReq::new(tick(), lba(run, at), IoMode::Write, len))
                .len();
        }
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(now < SimTime::from_secs(1), "the requests span one slice");
    assert_eq!(verdicts, 0, "no slice closed");
    assert_eq!(detector.engine().counting_table().len(), entries);
    assert_eq!(
        allocs,
        0,
        "{} warm header requests made {allocs} heap allocations",
        8 * RUNS
    );
}
